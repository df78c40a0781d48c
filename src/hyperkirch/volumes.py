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
from collections import Counter
from fractions import Fraction
from typing import Mapping

from .graphs import (
    _EXACT_BITS,
    DomainError,
    Multigraph,
    _amount,
    _record,
    charge,
    check_int,
    enumeration_budget,
    int_map,
)
from .kirchhoff import _delcon, psi_delcon
from .lattice import tropical_jacobian


# Miller-Rabin to the 13 prime bases 2 .. 41 decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Exact primality for n below _PRIME_LIMIT."""
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@_record
class LocalFieldParams:
    """Residue cardinality q = p^j, residue characteristic p, working precision k."""

    q: int
    p: int
    k: int

    def __post_init__(self):
        if check_int(self.p, "p") >= _PRIME_LIMIT:
            raise DomainError(f"p must be below {_PRIME_LIMIT}, where primality is decided exactly")
        if not _is_prime(self.p):
            raise DomainError(f"p = {self.p} is not prime")
        q = check_int(self.q, "q", 2)
        while q % self.p == 0:
            q //= self.p
        if q != 1:
            raise DomainError(f"q = {_amount(self.q)} is not a power of p = {self.p}")
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

    Runs the deletion-contraction engine of psi_delcon with an integer rule:
    the edgeless minor counts 1, and a split adds the deleted and the
    contracted counts, a loop contracting nothing. It is checked
    against routes that share no code with that engine: the brute-force
    forest count of the tests, the forest enumeration of psi_enum, and the
    residue-class sum of total_volume_padic_oracle.
    """
    return _delcon(graph, 1, lambda e, d, c=0: d + c)


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


# the longest column of valuations the exhaustive oracle builds at once, so a
# long sweep (betti1 = 1 and a large p^(k-1)) needs no memory per class
_SWEEP_BLOCK = 4096


def total_volume_padic_oracle(
    graph: Multigraph,
    params: LocalFieldParams,
    budget: int | None = None,
    monte_carlo: bool = False,
    samples: int = 20000,
    seed: int = 0,
) -> tuple[Fraction, Fraction]:
    """Estimate the total volume by integrating over residue classes, with a bound.

    Ranges the cycle-space coordinates t over (Z/p^k)^r, forms the edge
    coordinates of the corresponding chain, keeps the classes whose edge
    coordinates all vanish mod p, truncates each edge valuation at k, and
    returns

        estimate = (q-1)^r * p^(-k r) * sum over kept classes of Psi(nu)

    together with a proven truncation bound. Requires q = p so residue
    classes exhaust the unit ball coordinates exactly.

    Each fundamental cycle has coefficient 1 on its own chord and 0 on every
    other chord, so the chord coordinates of class t are the t_i themselves:
    a class is kept exactly when every t_i lies in pZ/p^kZ, and then every
    edge coordinate does too. The exhaustive sum visits only those
    p^((k-1) r) classes, t = p s with s in (Z/p^(k-1))^r. It sweeps the last
    coordinate of s as one column of valuations per edge, counts the
    distinct valuation vectors, and evaluates Psi once per vector.

    The exhaustive estimate is exactly F (1 - p^-k)^r, F the forest count.
    Psi(nu) sums, over the maximal forests T, the product of nu_e over the r
    edges outside T. The fundamental cycle matrix is totally unimodular, and
    its r x r minor on those edges is nonsingular, since a cycle that
    vanishes off T is supported on a forest and so is 0. That minor is
    therefore unimodular, and s -> (sum_i s_i c_i[e]) for e outside T is a
    bijection of (Z/p^(k-1))^r. Over the kept classes T's monomial thus sums
    to the r-th power of the sum of valuation(w) over Z/p^(k-1), which is
    (p^k - 1) / (p - 1), as valuation(w) >= j holds for p^(k-j) values of w,
    j = 1 .. k. The factor (p-1)^r p^(-k r) turns F ((p^k - 1) / (p - 1))^r
    into F (1 - p^-k)^r. A bridge lies in every forest and in no monomial.

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

    The budget is charged the p^((k-1) r) kept classes the exhaustive sum
    visits, or the samples, and then the forest enumeration that lists the
    monomials of Psi. The first charge is made before the acyclic shortcut,
    so a malformed budget or sample count is refused on every graph. On a
    graph with cycles, a precision is refused with a DomainError, before p^k
    or the tail is built, once 2^((k + r)(bitlen(p) - 1)), a lower bound for
    p^(k + r), passes 2^1000, the longest int a refusal prints exactly: the
    answer's size grows with p^(k + r), and past 4300 digits CPython does
    not print an int at all.
    """
    if params.q != params.p:
        raise DomainError("the residue enumeration oracle requires q = p")
    p, k = params.p, params.k
    r = graph.betti1()
    if monte_carlo:
        check_int(samples, "samples", 2)
        charge(samples, "oracle samples", budget)
    else:
        # p^e >= 2^e, and 2^e > cap once e passes the cap's bit length; past
        # b, which is also past exact printing, 2^b is charged in place of
        # p^e, a lower bound the refusal prints as such, and p^e is not built
        e = (k - 1) * r
        b = max(enumeration_budget(budget).bit_length(), _EXACT_BITS)
        charge(p**e if e <= b else 1 << b, "oracle residue classes", budget)
    if r == 0:
        return Fraction(1), Fraction(0)
    # the bound's denominator is p^(k+1) and the estimate carries (p-1)^r or
    # p^(k r), so the answer is refused where p^(k + r) has a lower bound
    # past the ints printed exactly
    bits = (k + r) * (p.bit_length() - 1)
    if bits > _EXACT_BITS:
        raise DomainError(f"oracle precision: p^(k + betti1) is at least 2^{bits}, over 2^{_EXACT_BITS}")
    pk = p**k
    forests = graph.spanning_forests(budget)
    cycles = graph.cycle_basis()
    # a bridge lies in no cycle and in every forest, so it has a zero row and
    # appears in no monomial: valuation vectors cover the other edges only
    eids = [eid for eid in sorted(graph.edge_ids) if any(c[eid] for c in cycles)]
    rows = [[c[eid] for c in cycles] for eid in eids]
    position = {eid: i for i, eid in enumerate(eids)}
    monomials = [
        [position[eid] for eid in eids if eid not in forest] for forest in forests
    ]
    m = p ** (k - 1)

    def valuation(w: int) -> int:
        """Truncated valuation of the edge coordinate p w, for w in Z/p^(k-1)."""
        if w == 0:
            return k
        v = 1
        while w % p == 0:
            w //= p
            v += 1
        return v

    psi_cache: dict[tuple, int] = {}

    def psi(nu: tuple) -> int:
        value = psi_cache.get(nu)
        if value is None:
            value = psi_cache[nu] = sum(math.prod(map(nu.__getitem__, mono)) for mono in monomials)
        return value

    tail = _power_tail(r - 1, k + 1, Fraction(1, p))
    bound = Fraction(p - 1) ** r * len(forests) * len(eids) * tail

    if monte_carlo:
        rng = random.Random(seed)
        s1 = s2 = 0
        for _ in range(samples):
            t = tuple(rng.randrange(pk) for _ in range(r))
            if any(ti % p for ti in t):
                continue  # a chord coordinate is a unit: the class adds 0
            s = [ti // p for ti in t]
            v = psi(tuple(valuation(sum(si * gi for si, gi in zip(s, row)) % m) for row in rows))
            s1 += v
            s2 += v * v
        mean = Fraction(s1, samples)
        estimate = Fraction(p - 1) ** r * mean
        var = (Fraction(s2) - Fraction(s1 * s1, samples)) / (samples - 1)
        radius = Fraction(p - 1) ** r * Fraction(2576, 1000) * _sqrt_upper(
            var / samples
        )
        return estimate, bound + radius

    val = [valuation(w) for w in range(m)]
    lasts = [row[-1] for row in rows]
    counts: Counter = Counter()
    for head in itertools.product(range(m), repeat=r - 1):
        # zip stops after the r - 1 head coordinates; lasts carries the rest
        bases = [sum(si * gi for si, gi in zip(head, row)) for row in rows]
        for lo in range(0, m, _SWEEP_BLOCK):
            sweep = range(lo, min(lo + _SWEEP_BLOCK, m))
            cols = [[val[(b + g * s) % m] for s in sweep] for b, g in zip(bases, lasts)]
            counts.update(zip(*cols))
    total = sum(n * psi(nu) for nu, n in counts.items())
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
