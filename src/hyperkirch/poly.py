"""Multilinear integer polynomials with squarefree monomials in named variables."""

from __future__ import annotations

from collections import abc
from typing import Iterable, Mapping

from .graphs import DomainError, _record, int_map


@_record
class MultilinearPoly:
    """Integer polynomial whose monomials are subsets of a fixed variable set.

    terms maps the support of each monomial (a frozenset of variable names)
    to its nonzero integer coefficient; the empty set keys the constant term.
    """

    variables: frozenset
    terms: dict

    @staticmethod
    def from_terms(variables: Iterable[str], terms) -> "MultilinearPoly":
        """Build from a mapping monomial -> coefficient or an iterable of pairs.

        Repeated monomials accumulate; zero coefficients are dropped.
        """
        vs = frozenset(variables)
        clean: dict[frozenset, int] = {}
        items = terms.items() if isinstance(terms, abc.Mapping) else terms
        for mono, coeff in items:
            m = frozenset(mono)
            if not m <= vs:
                raise DomainError("monomial uses an undeclared variable")
            if coeff:
                c = clean.get(m, 0) + coeff
                if c:
                    clean[m] = c
                elif m in clean:
                    del clean[m]
        return MultilinearPoly(vs, clean)

    def evaluate(self, x: Mapping[str, int]) -> int:
        """Value at an integer point: x must give an int to exactly the variables."""
        x = int_map(x, sorted(self.variables), "variable assignment")
        total = 0
        for mono, coeff in self.terms.items():
            prod = coeff
            for v in mono:
                prod *= x[v]
            total += prod
        return total

    def equal(self, other: "MultilinearPoly") -> bool:
        if self.variables != other.variables:
            raise DomainError("cannot compare polynomials over different variable sets")
        return self.terms == other.terms

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {len(m) for m in self.terms}
        return len(degrees) <= 1

    def coefficients_are_01(self) -> bool:
        return all(c in (0, 1) for c in self.terms.values())


def evaluate(poly: MultilinearPoly, x: Mapping[str, int]):
    return poly.evaluate(x)


def equal(p: MultilinearPoly, q: MultilinearPoly) -> bool:
    return p.equal(q)
