"""Fibre and total volumes of the forest-counting family over a local field.

The model: over a base disc with one coordinate per edge, the fibre over a
point with edge valuations nu has volume (1 - 1/q)^betti1 times the value
of the forest-complement polynomial at nu. Integrating over the cycle-space
directions of the base (each coordinate ranging over the maximal ideal) and
clearing the q^betti1 normalization gives an integer invariant equal to the
number of maximal spanning forests.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .graphs import DomainError, Multigraph, charge, check_int, int_map
from .kirchhoff import _delcon, psi_delcon, psi_enum
from .lattice import tropical_jacobian


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class LocalFieldParams:
    """Residue cardinality q = p^j, residue characteristic p, working precision k."""

    q: int
    p: int
    k: int

    def __post_init__(self):
        if not _is_prime(check_int(self.p, "p")):
            raise DomainError(f"p = {self.p} is not prime")
        q = check_int(self.q, "q", 2)
        while q % self.p == 0:
            q //= self.p
        if q != 1:
            raise DomainError(f"q = {self.q} is not a power of p = {self.p}")
        check_int(self.k, "precision k", 1)


def _check_q(q: int) -> int:
    try:
        return check_int(q, "q", 2)
    except DomainError:
        # kept word for word: recorded CLI outputs contain this message
        raise DomainError("q must be an integer >= 2") from None


def valuation_stratum_measure(q: int, n: int) -> Fraction:
    """Haar mass of the valuation-n stratum inside the unit ball: (q-1) q^-(n+1)."""
    _check_q(q)
    check_int(n, "stratum valuation", 0)
    return Fraction(q - 1, q ** (n + 1))


def valuation_tail_measure(q: int, cutoff: int) -> Fraction:
    """Haar mass of all strata with valuation above cutoff: q^-(cutoff+1)."""
    _check_q(q)
    check_int(cutoff, "cutoff", 0)
    return Fraction(1, q ** (cutoff + 1))


def fibre_volume(graph: Multigraph, nu: Mapping[str, int], q: int) -> Fraction:
    """Volume (1 - 1/q)^betti1 times the forest-complement value at nu."""
    _check_q(q)
    v = int_map(nu, graph.edge_ids, "valuation", 1)
    psi = psi_delcon(graph).evaluate(v)
    return Fraction(q - 1, q) ** graph.betti1() * psi


def total_volume(graph: Multigraph) -> int:
    """The integer total volume: the number of maximal spanning forests.

    Runs the deletion-contraction engine of psi_delcon with integer rules:
    the edgeless minor counts 1, a loop leaves the count unchanged, and an
    ordinary edge adds the deleted and the contracted counts. It is checked
    against routes that share no code with that engine: the brute-force
    forest count of the tests, the forest enumeration of psi_enum, and the
    residue-class sum of total_volume_padic_oracle.
    """
    return _delcon(graph, {}, 1, lambda e, count: count, lambda e, d, c: d + c)


def central_fibre_point_count(graph: Multigraph, q: int) -> int:
    """Residue-field point count of the central fibre: forest count times q^betti1."""
    _check_q(q)
    return total_volume(graph) * q ** graph.betti1()


def trop_volume_check(graph: Multigraph, nu: Mapping[str, int], q: int) -> bool:
    """Fibre volume equals (1 - 1/q)^rank times the covolume of the quotient torus."""
    _check_q(q)
    v = int_map(nu, graph.edge_ids, "valuation", 1)
    torus = tropical_jacobian(graph, v)
    return fibre_volume(graph, v, q) == Fraction(q - 1, q) ** torus.rank * torus.covolume


def _power_tail(m: int, start: int, x: Fraction) -> Fraction:
    """Exact value of sum over j >= start of j^m x^j, for 0 < x < 1.

    With P(i) = (start + i)^m, the sum is x^start times the sum over l <= m
    of the l-th forward difference of P at 0 times x^l / (1 - x)^(l + 1).
    """
    diffs = [(start + i) ** m for i in range(m + 1)]
    total = Fraction(0)
    for l in range(m + 1):
        total += diffs[0] * x**l / (1 - x) ** (l + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return total * x**start


def total_volume_padic_oracle(
    graph: Multigraph,
    params: LocalFieldParams,
    budget: int | None = None,
    monte_carlo: bool = False,
    samples: int = 20000,
    seed: int = 0,
) -> tuple[Fraction, Fraction]:
    """Estimate the total volume by integrating over residue classes, with a bound.

    Enumerates the cycle-space coordinates t over (Z/p^k)^r, forms the edge
    coordinates of the corresponding chain, keeps the classes whose edge
    coordinates all vanish mod p, truncates each edge valuation at k, and
    returns

        estimate = (q-1)^r * p^(-k r) * sum over kept classes of Psi(nu)

    together with a proven truncation bound. Requires q = p so residue
    classes exhaust the unit ball coordinates exactly.

    Error bound: refining k to k+1 splits every class and can only raise a
    truncated valuation from k to k+1, so the estimates increase monotonically
    to the true value. In one refinement step the increase is at most, per
    non-bridge edge e and per forest monomial containing e, the measure
    q^-(k+1) of the residue set where e's cycle functional vanishes to order
    k+1 (the functional is primitive since fundamental cycles have unit
    coefficients) times (k+1)^(r-1), a cap on the other factors. Summing the
    geometric-polynomial tail over all later steps gives

        bound = (q-1)^r * F * E_nb * sum over j >= k+1 of j^(r-1) q^-j

    with F the forest count and E_nb the number of non-bridge edges; the tail
    is evaluated in closed form, so the bound is exact, decreasing in k, and
    of size about k^(r-1) q^-k.

    With monte_carlo=True the kept-class sum is sampled instead of
    enumerated, and the returned radius is the truncation bound plus a 99
    percent confidence radius for the sampling error; the estimate is then
    not guaranteed to lie within the radius.
    """
    if params.q != params.p:
        raise DomainError("the residue enumeration oracle requires q = p")
    p, k = params.p, params.k
    r = graph.betti1()
    if r == 0:
        return Fraction(1), Fraction(0)
    pk = p**k
    if monte_carlo:
        check_int(samples, "samples", 2)
    else:
        charge(pk**r, "oracle residue classes", budget)
    cycles = graph.cycle_basis()
    eids = sorted(graph.edge_ids)
    rows = [[c[eid] for c in cycles] for eid in eids]
    non_bridge = sum(1 for row in rows if any(row))
    psi = psi_enum(graph)
    monomials = [
        [eids.index(e) for e in mono] for mono in sorted(psi.terms, key=sorted)
    ]
    forest_count = len(monomials)

    def class_value(t: tuple) -> int:
        nu = []
        for row in rows:
            z = sum(ti * gi for ti, gi in zip(t, row)) % pk
            if z == 0:
                nu.append(k)
            elif z % p:
                return 0
            else:
                v = 0
                while z % p == 0:
                    z //= p
                    v += 1
                nu.append(v)
        total = 0
        for mono in monomials:
            prod = 1
            for i in mono:
                prod *= nu[i]
            total += prod
        return total

    tail = _power_tail(r - 1, k + 1, Fraction(1, p))
    bound = Fraction(p - 1) ** r * forest_count * non_bridge * tail

    if monte_carlo:
        rng = random.Random(seed)
        vals = [
            class_value(tuple(rng.randrange(pk) for _ in range(r)))
            for _ in range(samples)
        ]
        s1 = sum(vals)
        s2 = sum(v * v for v in vals)
        mean = Fraction(s1, samples)
        estimate = Fraction(p - 1) ** r * mean
        var = (Fraction(s2) - Fraction(s1 * s1, samples)) / (samples - 1)
        radius = Fraction(p - 1) ** r * Fraction(2576, 1000) * _sqrt_upper(
            var / samples
        )
        return estimate, bound + radius

    total = sum(class_value(t) for t in itertools.product(range(pk), repeat=r))
    estimate = Fraction((p - 1) ** r * total, pk**r)
    return estimate, bound


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for the square root of a nonnegative rational."""
    if x < 0:
        raise DomainError("square root of a negative value")
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    return Fraction(math.isqrt(num * den) + 1, den)
