"""Sparse squarefree polynomials: construction, evaluation, reconstruction."""

import itertools
import random

import pytest

from hyperkirch import DomainError, MultilinearPoly
from hyperkirch.poly import equal, evaluate


def _poly(variables, terms):
    return MultilinearPoly.from_terms(frozenset(variables), terms)


def test_from_terms_accumulates_and_drops_zeros():
    p = _poly(
        "abc",
        [
            (frozenset("ab"), 2),
            (frozenset("ab"), -1),
            (frozenset("c"), 3),
            (frozenset("c"), -3),
        ],
    )
    assert p.terms == {frozenset("ab"): 1}


def test_from_terms_rejects_foreign_variables():
    with pytest.raises(DomainError):
        _poly("ab", [(frozenset("abc"), 1)])


def test_evaluate_requires_all_variables():
    """evaluate takes an int for exactly its variables: a missing or unknown
    key, a float or a bool raises DomainError."""
    p = _poly("ab", [(frozenset("ab"), 1), (frozenset(), 5)])
    assert p.evaluate({"a": 2, "b": 3}) == 11
    for bad in ({"a": 2}, {"a": 2, "b": 3, "zzz": 9}, {"a": 2, "b": 0.5}, {"a": True, "b": 3}):
        with pytest.raises(DomainError):
            p.evaluate(bad)
    assert evaluate(p, {"a": -1, "b": 4}) == 1


def test_equal_requires_same_variable_set():
    p = _poly("ab", [(frozenset("a"), 1)])
    q = _poly("ab", [(frozenset("a"), 1)])
    r = _poly("abc", [(frozenset("a"), 1)])
    assert p.equal(q) and equal(p, q)
    with pytest.raises(DomainError):
        p.equal(r)
    assert not p.equal(_poly("ab", [(frozenset("b"), 1)]))


def test_degree_homogeneity_and_01_flags():
    p = _poly("abc", [(frozenset("ab"), 1), (frozenset("bc"), 1)])
    assert p.degree() == 2
    assert p.is_homogeneous()
    assert p.coefficients_are_01()
    q = _poly("abc", [(frozenset("ab"), 1), (frozenset("c"), 2)])
    assert q.degree() == 2
    assert not q.is_homogeneous()
    assert not q.coefficients_are_01()
    one = _poly("", [(frozenset(), 1)])
    assert one.degree() == 0 and one.is_homogeneous()


def test_zero_polynomial():
    z = _poly("ab", [])
    assert z.terms == {}
    assert z.evaluate({"a": 5, "b": 6}) == 0
    assert z.degree() == 0


def test_finite_difference_reconstruction():
    """Coefficients are alternating sums of 0/1 evaluations.

    For a squarefree polynomial, f(1_T) sums the coefficients of monomials
    inside T, so inclusion-exclusion over subsets recovers each coefficient.
    This recomputes random polynomials from evaluations alone.
    """
    rng = random.Random(0xD1FF)
    variables = ["a", "b", "c", "d"]
    for _ in range(25):
        terms = []
        for mono in itertools.chain.from_iterable(
            itertools.combinations(variables, k) for k in range(5)
        ):
            coeff = rng.randint(-4, 4)
            if coeff:
                terms.append((frozenset(mono), coeff))
        p = _poly(variables, terms)
        for mono, coeff in p.terms.items():
            acc = 0
            support = sorted(mono)
            for k in range(len(support) + 1):
                for sub in itertools.combinations(support, k):
                    point = {v: 1 if v in sub else 0 for v in variables}
                    acc += (-1) ** (len(support) - k) * p.evaluate(point)
            assert acc == coeff
