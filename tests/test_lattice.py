"""Integer matrices, Smith form, component groups, tropical tori."""

import itertools
import math
import random

import pytest

from conftest import (
    brute_forest_count,
    brute_psi_value,
    cycle_graph,
    iso_catalog,
    random_multigraph,
    theta_graph,
)
from hyperkirch import (
    ComponentGroup,
    DomainError,
    IntMatrix,
    component_group,
    smith_normal_form,
    tau_matrix,
    tropical_jacobian,
)


def test_int_matrix_basics():
    m = IntMatrix.from_rows([[2, -1], [-1, 2]])
    assert m.det() == 3
    assert m.transpose() == m
    assert (m @ IntMatrix.identity(2)) == m
    assert IntMatrix.from_rows([[5]]).det() == 5
    assert IntMatrix.from_rows([]).det() == 1
    with pytest.raises(DomainError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_from_rows_rejects_non_integers():
    """Floats and bools are refused, not truncated or read as 0/1."""
    for bad in (1.5, 2.0, True, "3", None):
        with pytest.raises(DomainError, match="matrix entry must be an integer"):
            IntMatrix.from_rows([[1, bad]])
    assert IntMatrix.from_rows(iter([iter([1, -2])])).entries == ((1, -2),)


def test_det_against_permutation_expansion():
    rng = random.Random(0xDE7)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        m = IntMatrix.from_rows(rows)
        expected = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = sign
            for i in range(n):
                prod *= rows[i][perm[i]]
            expected += prod
        assert m.det() == expected


def test_smith_normal_form_frozen_example():
    m = IntMatrix.from_rows([[2, -1], [-1, 2]])
    u, d, v = smith_normal_form(m)
    assert d == IntMatrix.from_rows([[1, 0], [0, 3]])
    assert u @ m @ v == d


def _diag(d: IntMatrix) -> list:
    return [d.entries[i][i] for i in range(min(d.rows, d.cols))]


def test_smith_normal_form_certificates_random():
    rng = random.Random(0x51F7)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        )
        u, d, v = smith_normal_form(m)
        assert u @ m @ v == d
        assert abs(u.det()) == 1
        assert abs(v.det()) == 1
        diag = _diag(d)
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert d.entries[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_smith_diagonal_matches_minor_gcds():
    """d1 ... dk equals the gcd of all k x k minors, an independent definition."""
    rng = random.Random(0x6CD)
    for _ in range(25):
        n = rng.randint(1, 3)
        c = rng.randint(1, 3)
        rows = [[rng.randint(-7, 7) for _ in range(c)] for _ in range(n)]
        m = IntMatrix.from_rows(rows)
        _, d, _ = smith_normal_form(m)
        diag = _diag(d)
        for k in range(1, min(n, c) + 1):
            minors = []
            for ri in itertools.combinations(range(n), k):
                for ci in itertools.combinations(range(c), k):
                    sub = IntMatrix.from_rows(
                        [[rows[i][j] for j in ci] for i in ri]
                    )
                    minors.append(sub.det())
            gcd_minors = 0
            for x in minors:
                gcd_minors = math.gcd(gcd_minors, x)
            prod = 1
            for x in diag[:k]:
                prod *= x
            assert abs(prod) == gcd_minors


def test_tau_matrix_theta_explicit_basis():
    """Pairing matrix in the chord-difference basis, then the default basis."""
    g = theta_graph()
    a, b, c = 2, 3, 5
    w = {"e1": a, "e2": b, "e3": c}
    explicit = [
        {"e1": 1, "e2": -1, "e3": 0},
        {"e1": 0, "e2": 1, "e3": -1},
    ]
    t = tau_matrix(g, w, explicit)
    assert t == IntMatrix.from_rows([[a + b, -b], [-b, b + c]])
    t_default = tau_matrix(g, w)
    assert t_default == IntMatrix.from_rows([[a + b, a], [a, a + c]])
    assert t.det() == t_default.det() == a * b + a * c + b * c


def test_tau_matrix_validation():
    g = theta_graph()
    with pytest.raises(DomainError, match="^weight must be a mapping$"):
        tau_matrix(g, [1, 2])
    with pytest.raises(DomainError):
        tau_matrix(g, {"e1": 1, "e2": 1})
    with pytest.raises(DomainError):
        tau_matrix(g, {"e1": 1, "e2": 1, "e3": True})
    bad_basis = [{"e1": 1}]
    with pytest.raises(DomainError):
        tau_matrix(g, {"e1": 1, "e2": 1, "e3": 1}, bad_basis)


def test_component_group_cycle_is_cyclic():
    for n in range(1, 7):
        cg = component_group(cycle_graph(n), {f"e{i}": 1 for i in range(1, n + 1)})
        assert cg.invariant_factors == (n,)
        assert cg.order == n


def test_component_group_theta_frozen():
    cg = component_group(theta_graph(), {"e1": 1, "e2": 1, "e3": 1})
    assert cg.invariant_factors == (1, 3)
    assert cg.order == 3


def test_critical_group_order_is_forest_count():
    for g in iso_catalog(5):
        ones = {e: 1 for e in g.edge_ids}
        assert component_group(g, ones).order == brute_forest_count(g)


def test_component_group_order_is_psi_value():
    rng = random.Random(0xC6)
    for g in iso_catalog(5):
        for _ in range(3):
            w = {e: rng.randint(1, 5) for e in g.edge_ids}
            assert component_group(g, w).order == brute_psi_value(g, w)


def test_component_group_requires_positive_weights():
    g = theta_graph()
    with pytest.raises(DomainError):
        component_group(g, {"e1": 0, "e2": 1, "e3": 1})
    with pytest.raises(DomainError):
        component_group(g, {"e1": -2, "e2": 1, "e3": 1})


def test_invariant_factor_count_is_betti1():
    rng = random.Random(0x1F)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 7))
        w = {e: rng.randint(1, 4) for e in g.edge_ids}
        cg = component_group(g, w)
        assert len(cg.invariant_factors) == g.betti1()
        assert all(f >= 1 for f in cg.invariant_factors)


def test_positive_definite_for_positive_weights():
    rng = random.Random(0x9D)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(1, 7))
        w = {e: rng.randint(1, 6) for e in g.edge_ids}
        t = tau_matrix(g, w)
        for k in t.leading_principal_minors():
            assert k > 0


def test_tropical_jacobian_frozen_and_consistency():
    g = theta_graph()
    torus = tropical_jacobian(g, {"e1": 2, "e2": 3, "e3": 5})
    assert torus.rank == 2
    assert torus.covolume == 31
    rng = random.Random(0x7A)
    for gg in iso_catalog(5):
        w = {e: rng.randint(1, 5) for e in gg.edge_ids}
        t = tropical_jacobian(gg, w)
        assert t.rank == gg.betti1()
        assert t.covolume == brute_psi_value(gg, w)
        assert t.covolume == component_group(gg, w).order


def test_component_group_dataclass_order():
    assert ComponentGroup((1, 2, 6)).order == 12
    assert ComponentGroup(()).order == 1
