"""Residue volumes, forest counts, and the integration oracle."""

import random
from fractions import Fraction

import pytest

from conftest import (
    brute_forest_count,
    brute_padic_oracle,
    brute_psi_value,
    complete_graph,
    cycle_graph,
    disjoint_union,
    grid_graph,
    iso_catalog,
    loop_graph,
    path_graph,
    random_multigraph,
    theta_graph,
)
from hyperkirch import (
    BudgetExceededError,
    DomainError,
    LocalFieldParams,
    central_fibre_point_count,
    fibre_volume,
    total_volume,
    total_volume_padic_oracle,
    trop_volume_check,
    valuation_stratum_measure,
    valuation_tail_measure,
)
from hyperkirch import volumes
from hyperkirch.volumes import _PRIME_LIMIT, _is_prime, _power_tail


def test_total_volume_loop_and_cycles():
    assert total_volume(loop_graph()) == 1
    for n in range(1, 11):
        assert total_volume(cycle_graph(n)) == n


def test_total_volume_is_forest_count():
    rng = random.Random(0x70)
    graphs = list(iso_catalog(6)) + [
        random_multigraph(rng, rng.randint(1, 6), rng.randint(0, 8))
        for _ in range(30)
    ]
    for g in graphs:
        assert total_volume(g) == brute_forest_count(g)


def test_total_volume_on_a_1200_edge_path():
    assert total_volume(path_graph(1200)) == 1


def test_total_volume_on_the_5x5_grid():
    """557,568,000 spanning trees; grid_graph's ids put every horizontal
    edge before every vertical one, an order the engine no longer follows."""
    assert total_volume(grid_graph(5, 5)) == 557_568_000


def test_total_volume_multiplicative_over_components():
    a = theta_graph()
    b = cycle_graph(4)
    assert total_volume(disjoint_union(a, b)) == total_volume(a) * total_volume(b)


def test_fibre_volume_frozen_examples():
    assert fibre_volume(loop_graph(), {"e1": 1}, 7) == Fraction(6, 7)
    assert fibre_volume(theta_graph(), {"e1": 1, "e2": 1, "e3": 1}, 2) == Fraction(3, 4)
    # trees have no cycles: volume 1 regardless of q
    assert fibre_volume(path_graph(4), {"e1": 2, "e2": 3, "e3": 4}, 5) == 1


def test_fibre_volume_formula_against_brute_force():
    rng = random.Random(0xFB)
    for g in iso_catalog(5):
        for _ in range(3):
            nu = {e: rng.randint(1, 5) for e in g.edge_ids}
            for q in (2, 3, 5, 7):
                expected = (
                    Fraction(q - 1, q) ** g.betti1() * brute_psi_value(g, nu)
                )
                assert fibre_volume(g, nu, q) == expected


def test_fibre_volume_multiplicative():
    a = cycle_graph(3)
    b = theta_graph()
    u = disjoint_union(a, b)
    nu_u = {e: 2 for e in u.edge_ids}
    prod = fibre_volume(a, {e: 2 for e in a.edge_ids}, 3) * fibre_volume(
        b, {e: 2 for e in b.edge_ids}, 3
    )
    assert fibre_volume(u, nu_u, 3) == prod


def test_fibre_volume_validation():
    g = loop_graph()
    with pytest.raises(DomainError):
        fibre_volume(g, {"e1": 0}, 3)
    with pytest.raises(DomainError):
        fibre_volume(g, {}, 3)
    with pytest.raises(DomainError):
        fibre_volume(g, {"e1": 1}, 1)


def test_point_count_theta_and_random():
    for q in (2, 3, 5, 7):
        assert central_fibre_point_count(theta_graph(), q) == 3 * q * q
    rng = random.Random(0x9C)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 7))
        q = rng.choice((2, 3, 4, 5))
        assert central_fibre_point_count(g, q) == brute_forest_count(g) * q ** g.betti1()


def test_trop_volume_check_small():
    rng = random.Random(0x7C)
    for g in iso_catalog(5):
        nu = {e: rng.randint(1, 5) for e in g.edge_ids}
        for q in (2, 5):
            assert trop_volume_check(g, nu, q)


def test_valuation_measures_sum_to_one():
    for q in (2, 3, 5):
        for cutoff in (0, 1, 4):
            partial = sum(
                (valuation_stratum_measure(q, n) for n in range(cutoff + 1)),
                Fraction(0),
            )
            assert partial + valuation_tail_measure(q, cutoff) == 1


def test_valuation_measure_matches_residue_counting():
    """Count residues of each valuation directly in Z/p^k."""
    for p in (2, 3):
        k = 5
        counts = {}
        for x in range(p**k):
            v = 0
            y = x
            while y and y % p == 0:
                v += 1
                y //= p
            v = k if x == 0 else v
            counts[v] = counts.get(v, 0) + 1
        for n in range(k):
            assert Fraction(counts[n], p**k) == valuation_stratum_measure(p, n)
        assert Fraction(counts[k], p**k) == valuation_tail_measure(p, k - 1)


def test_local_field_params_validation():
    LocalFieldParams(q=8, p=2, k=3)
    with pytest.raises(DomainError):
        LocalFieldParams(q=6, p=2, k=1)
    with pytest.raises(DomainError):
        LocalFieldParams(q=4, p=4, k=1)
    with pytest.raises(DomainError):
        LocalFieldParams(q=2, p=2, k=0)


def test_local_field_params_refuses_a_huge_q_in_words():
    """A q of over 4300 digits is reported by a lower bound, not printed."""
    with pytest.raises(DomainError) as info:
        LocalFieldParams(q=6**6000, p=2, k=1)
    assert str(info.value) == "q = at least 2^15509 is not a power of p = 2"
    with pytest.raises(DomainError) as info:
        LocalFieldParams(q=6, p=2, k=1)
    assert str(info.value) == "q = 6 is not a power of p = 2"


def test_primality_is_exact_and_fast():
    """Miller-Rabin to the prime bases 2 .. 41 agrees with trial division,
    rejects strong pseudoprimes to many of those bases, accepts an 18-digit
    prime at once, and is refused from the first strong pseudoprime to all
    13 bases, where it is no longer exact."""
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 5000) if _is_prime(n)] == [n for n in range(5000) if trial(n)]
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(_PRIME_LIMIT)  # a strong pseudoprime to every base
    p = 10**18 + 3
    assert LocalFieldParams(q=p, p=p, k=1).p == p
    composite = (10**12 + 39) * (10**12 + 61)
    with pytest.raises(DomainError, match=f"p = {composite} is not prime"):
        LocalFieldParams(q=composite, p=composite, k=1)
    with pytest.raises(DomainError, match="p must be below 3317044064679887385961981"):
        LocalFieldParams(q=_PRIME_LIMIT, p=_PRIME_LIMIT, k=1)


def test_oracle_loop_closed_form():
    """One loop: estimate is exactly 1 - 2^-k and the bound 2^-k is tight."""
    for k in range(1, 8):
        est, bound = total_volume_padic_oracle(
            loop_graph(), LocalFieldParams(q=2, p=2, k=k)
        )
        assert est == 1 - Fraction(1, 2**k)
        assert bound == Fraction(1, 2**k)
        assert abs(est - 1) <= bound


def test_oracle_monotone_refinement():
    g = cycle_graph(3)
    true = total_volume(g)
    prev_est = None
    prev_bound = None
    for k in range(1, 7):
        est, bound = total_volume_padic_oracle(g, LocalFieldParams(q=3, p=3, k=k))
        assert abs(est - true) <= bound
        if prev_est is not None:
            assert est >= prev_est
            assert bound <= prev_bound
        prev_est, prev_bound = est, bound


def test_oracle_within_bound_on_small_graphs():
    rng = random.Random(0x0AC)
    graphs = [theta_graph(), cycle_graph(2), cycle_graph(4), path_graph(3)]
    for _ in range(10):
        graphs.append(random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 4)))
    for g in graphs:
        for p in (2, 3):
            k = 3 if g.betti1() <= 2 else 2
            est, bound = total_volume_padic_oracle(g, LocalFieldParams(q=p, p=p, k=k))
            assert abs(est - total_volume(g)) <= bound


def test_oracle_requires_residue_prime_field():
    with pytest.raises(DomainError):
        total_volume_padic_oracle(loop_graph(), LocalFieldParams(q=4, p=2, k=2))


def test_oracle_budget():
    g = theta_graph()
    with pytest.raises(DomainError):
        total_volume_padic_oracle(g, LocalFieldParams(q=3, p=3, k=6), budget=100)


def test_oracle_checks_its_inputs_on_an_acyclic_graph():
    """budget and samples are checked before the betti1 = 0 shortcut."""
    g = path_graph(2)
    params = LocalFieldParams(q=2, p=2, k=3)
    with pytest.raises(DomainError, match="samples must be an integer"):
        total_volume_padic_oracle(g, params, monte_carlo=True, samples="x")
    for monte_carlo in (False, True):
        with pytest.raises(DomainError, match="budget must be an integer"):
            total_volume_padic_oracle(g, params, budget=True, monte_carlo=monte_carlo)
    assert total_volume_padic_oracle(g, params) == (1, 0)


def test_oracle_charges_the_classes_it_visits():
    """K4 (betti1 3) at p = 2, k = 7 visits 2^(6*3) = 262,144 kept classes,
    under the default budget, though (p^k)^3 = 2,097,152 is over it. At
    p = 3, k = 10^7 the 3^(3 (k - 1)) classes are refused by comparing the
    exponent with the cap's bit length, unbuilt, and reported by a lower
    bound."""
    g = complete_graph(4)
    params = LocalFieldParams(q=2, p=2, k=7)
    est, bound = total_volume_padic_oracle(g, params)
    assert est <= 16 <= est + bound
    assert total_volume_padic_oracle(g, params, budget=262_144) == (est, bound)
    with pytest.raises(BudgetExceededError) as info:
        total_volume_padic_oracle(g, params, budget=262_143)
    assert str(info.value) == "oracle residue classes: 262144 needed, budget is 262143"
    with pytest.raises(BudgetExceededError) as info:
        total_volume_padic_oracle(g, LocalFieldParams(q=3, p=3, k=10**7), budget=262_143)
    assert str(info.value) == "oracle residue classes: at least 2^1000 needed, budget is 262143"


def test_oracle_refuses_a_precision_past_exact_printing(monkeypatch):
    """At p^(k + betti1) past 2^1000 the Monte Carlo oracle is refused before
    it draws a class or builds the tail; at 2^1000 it still answers."""
    g = theta_graph()

    def never(*args, **kwargs):
        raise AssertionError("the tail was built before the precision was refused")

    with monkeypatch.context() as m:
        m.setattr(volumes, "_power_tail", never)
        with pytest.raises(DomainError) as info:
            total_volume_padic_oracle(g, LocalFieldParams(q=3, p=3, k=3_000_000), monte_carlo=True, samples=2)
    assert str(info.value) == "oracle precision: p^(k + betti1) is at least 2^3000002, over 2^1000"
    est, bound = total_volume_padic_oracle(g, LocalFieldParams(q=2, p=2, k=998), monte_carlo=True, samples=2)
    assert est >= 0 and bound > 0
    with pytest.raises(DomainError):
        total_volume_padic_oracle(g, LocalFieldParams(q=2, p=2, k=999), monte_carlo=True, samples=2)


def test_oracle_budget_reaches_forest_enumeration():
    """K5 at p = 2, k = 1 passes the 2^6 class charge under budget 100, and
    its forest enumeration (C(10, 4) = 210 candidate subsets) must then be
    charged against the same budget."""
    g = complete_graph(5)
    with pytest.raises(BudgetExceededError) as info:
        total_volume_padic_oracle(g, LocalFieldParams(q=2, p=2, k=1), budget=100)
    assert str(info.value) == "forest enumeration candidate subsets: 210 needed, budget is 100"


def test_oracle_samples_capped_before_any_draw(monkeypatch):
    g = theta_graph()
    params = LocalFieldParams(q=2, p=2, k=3)
    assert total_volume_padic_oracle(g, params, budget=50, monte_carlo=True, samples=50)

    def never(*args, **kwargs):
        raise AssertionError("a class was drawn before the samples were charged")

    monkeypatch.setattr(random.Random, "randrange", never)
    with pytest.raises(BudgetExceededError) as info:
        total_volume_padic_oracle(g, params, budget=50, monte_carlo=True, samples=51)
    assert str(info.value) == "oracle samples: 51 needed, budget is 50"
    with pytest.raises(BudgetExceededError):
        total_volume_padic_oracle(g, params, monte_carlo=True, samples=2_000_001)


def test_oracle_matches_the_per_class_reference():
    """Exhaustive and Monte Carlo results equal the visit-every-class sum of
    the tests' reference, exactly, estimate and bound."""
    rng = random.Random(0x0AC1)
    betti, disconnected, loops, bridges = set(), False, False, False
    for i in range(320):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 7))
        if i % 4 == 0:
            g = disjoint_union(g, random_multigraph(rng, rng.randint(1, 3), rng.randint(0, 3)))
        r = g.betti1()
        p = rng.choice([q for q in (2, 3, 5) if q**r <= 2000])
        k = max(j for j in range(1, 5) if j == 1 or p ** (j * r) <= 2000)
        params = LocalFieldParams(q=p, p=p, k=k)
        assert total_volume_padic_oracle(g, params) == brute_padic_oracle(g, p, k)
        samples, seed = rng.randint(2, 200), rng.randrange(1000)
        assert total_volume_padic_oracle(
            g, params, monte_carlo=True, samples=samples, seed=seed
        ) == brute_padic_oracle(g, p, k, monte_carlo=True, samples=samples, seed=seed)
        betti.add(r)
        disconnected |= g.n_components() > 1
        loops |= any(e.head == e.tail for e in g.edges)
        bridges |= any(g.classify_edge(e) == "bridge" for e in g.edge_ids)
    assert {0, 1, 2, 3} <= betti
    assert disconnected and loops and bridges


def test_oracle_exhaustive_estimate_is_exact():
    """The exhaustive estimate is exactly F (1 - p^-k)^r, F the forest count
    and r = betti1, as total_volume_padic_oracle's docstring proves: on
    theta, C3, K4, the 2x3 grid and seeded multigraphs with loops, bridges
    and several components, at each (p, k) whose p^((k-1) r) classes number
    at most 5,000."""
    rng = random.Random(0x0AC9)
    graphs = [theta_graph(), cycle_graph(3), complete_graph(4), grid_graph(2, 3)]
    for i in range(45):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 9))
        if i % 3 == 0:
            g = disjoint_union(g, random_multigraph(rng, rng.randint(1, 3), rng.randint(0, 3)))
        graphs.append(g)
    betti, checks = set(), 0
    for g in graphs:
        r = g.betti1()
        forests = total_volume(g)
        for p, k in ((2, 3), (3, 2), (2, 1)):
            if p ** ((k - 1) * r) <= 5000:
                est, _ = total_volume_padic_oracle(g, LocalFieldParams(q=p, p=p, k=k))
                assert est == forests * (1 - Fraction(1, p**k)) ** r
                checks += 1
                betti.add(r)
    assert set(range(6)) <= betti and checks > 100
    assert any(g.n_components() > 1 for g in graphs)
    assert any(e.head == e.tail for g in graphs for e in g.edges)
    assert any(g.classify_edge(e) == "bridge" for g in graphs for e in g.edge_ids)


def test_oracle_repeat_determinism():
    g = theta_graph()
    params = LocalFieldParams(q=2, p=2, k=5)
    assert total_volume_padic_oracle(g, params) == total_volume_padic_oracle(g, params)


def test_oracle_monte_carlo_seeded():
    g = theta_graph()
    params = LocalFieldParams(q=2, p=2, k=6)
    a = total_volume_padic_oracle(g, params, monte_carlo=True, samples=500, seed=11)
    b = total_volume_padic_oracle(g, params, monte_carlo=True, samples=500, seed=11)
    assert a == b
    exact_est, exact_bound = total_volume_padic_oracle(g, params)
    # the reported radius widens the proven truncation bound
    assert a[1] >= exact_bound
    assert a[0] >= 0


def test_power_tail_closed_forms():
    """_power_tail(m, s, x) is sum over j >= s of j^m x^j."""
    xs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 7))
    for x in xs:
        for s in range(8):
            assert _power_tail(0, s, x) == x**s / (1 - x)
            assert _power_tail(1, s, x) == x**s * (s / (1 - x) + x / (1 - x) ** 2)
            for m in range(7):
                assert _power_tail(m, s, x) == s**m * x**s + _power_tail(m, s + 1, x)
    # against a long partial sum, whose remainder is below 10^-40
    for m, s, x in ((4, 2, Fraction(1, 3)), (7, 5, Fraction(1, 2)), (10, 0, Fraction(1, 5))):
        partial = sum(j**m * x**j for j in range(s, 400))
        assert 0 < _power_tail(m, s, x) - partial < Fraction(1, 10**40)
