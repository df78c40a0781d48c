"""Stability: membership, semistability vs brute force, genericity, strata."""

import hashlib
import itertools
import random
import time

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    grid_graph,
    loop_graph,
    path_graph,
    random_multigraph,
    theta_graph,
)
from hyperkirch import (
    BudgetExceededError,
    CharRange,
    DomainError,
    Edge,
    Multigraph,
    StabilityParam,
    delta_membership,
    generic_orbit,
    is_generic,
    is_semistable,
    orbit_char_set,
    point_orbit,
    segment_orbit,
    stability,
    strata_complex,
    total_volume,
)
from hyperkirch.io import dump_json, strata_to_doc


def test_delta_membership_frozen():
    assert delta_membership(1, 0, 1) == "boundary"
    assert delta_membership(0, 0, 1) == "outside"
    assert delta_membership(2, 0, 1) == "interior"
    assert delta_membership(2, 1, 1) == "boundary"
    assert delta_membership(3, 1, 1) == "interior"
    assert delta_membership(1, 1, 1) == "outside"
    with pytest.raises(DomainError):
        delta_membership(0, 0, 0)


def test_delta_boundary_is_convex_in_m():
    """The boundary height is a convex piecewise-linear function of m."""
    for N in (1, 2, 3):
        heights = {}
        for m in range(-3 * N - 2, 3 * N + 3):
            k = 0
            while delta_membership(k, m, N) == "outside":
                k += 1
            assert delta_membership(k, m, N) == "boundary"
            assert delta_membership(k + 1, m, N) == "interior"
            heights[m] = k
        for m in range(-3 * N - 1, 3 * N + 2):
            assert heights[m - 1] + heights[m + 1] >= 2 * heights[m]


def test_orbit_char_set_frozen():
    spec = {"a": generic_orbit(), "b": segment_orbit(-1), "c": point_orbit(2)}
    out = orbit_char_set(spec, 3)
    assert out == {
        "a": CharRange(None, None),
        "b": CharRange(-3, 0),
        "c": CharRange(6, 6),
    }
    with pytest.raises(DomainError):
        orbit_char_set(spec, 0)


def test_param_validation():
    g = theta_graph()
    with pytest.raises(DomainError):
        is_semistable(g, StabilityParam({"u": 1, "v": 1}, 2), {})
    with pytest.raises(DomainError):
        is_semistable(g, StabilityParam({"u": 0}, 2), {})
    with pytest.raises(DomainError):
        is_semistable(g, StabilityParam({"u": 0, "v": 0}, 0), {})
    spec = {e: generic_orbit() for e in ("e1", "e2")}
    with pytest.raises(DomainError):
        is_semistable(g, StabilityParam({"u": 0, "v": 0}, 2), spec)


def _brute_boundary(graph, c):
    out = {v: 0 for v in graph.vertices}
    for e in graph.edges:
        out[e.head] += c[e.id]
        out[e.tail] -= c[e.id]
    return out


def _brute_box_feasible(graph, eta, ranges):
    """Scan integer points of the boxes directly; ranges must all be finite."""
    eids = sorted(graph.edge_ids)
    axes = [range(ranges[e][0], ranges[e][1] + 1) for e in eids]
    for point in itertools.product(*axes):
        c = dict(zip(eids, point))
        d = _brute_boundary(graph, c)
        if all(d[v] == -eta[v] for v in graph.vertices):
            return True
    return False


def _random_spec(rng, graph, max_generic):
    spec = {}
    n_generic = 0
    for e in sorted(graph.edge_ids):
        roll = rng.random()
        if roll < 0.34 and n_generic < max_generic:
            spec[e] = generic_orbit()
            n_generic += 1
        elif roll < 0.67:
            spec[e] = segment_orbit(rng.randint(-2, 2))
        else:
            spec[e] = point_orbit(rng.randint(-2, 2))
    return spec


def test_semistable_matches_brute_force_bounded():
    rng = random.Random(0xB0B)
    for _ in range(120):
        g = random_multigraph(rng, rng.randint(2, 4), rng.randint(1, 5))
        N = rng.randint(1, 3)
        vals = [rng.randint(-3, 3) for _ in range(len(g.vertices) - 1)]
        eta = dict(zip(sorted(g.vertices), vals + [-sum(vals)]))
        if any(abs(x) > 3 for x in eta.values()):
            continue
        spec = _random_spec(rng, g, max_generic=0)
        param = StabilityParam(eta, N)
        ranges = {
            e: (
                N * spec[e].level,
                N * (spec[e].level + (0 if spec[e].kind == "point" else 1)),
            )
            for e in g.edge_ids
        }
        assert is_semistable(g, param, spec) == _brute_box_feasible(g, eta, ranges)


def test_semistable_matches_windowed_brute_force_with_generics():
    """Unbounded edges scanned over the decomposition window, then wider.

    If a solution exists at all, one exists with every coordinate bounded by
    the total mass of eta and the finite box ends, so the window scan is
    complete; the wider re-scan would catch a window that was too small.
    """
    rng = random.Random(0x6E2)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(2, 3), rng.randint(1, 4))
        N = rng.randint(1, 3)
        vals = [rng.randint(-2, 2) for _ in range(len(g.vertices) - 1)]
        eta = dict(zip(sorted(g.vertices), vals + [-sum(vals)]))
        if any(abs(x) > 2 for x in eta.values()):
            continue
        spec = _random_spec(rng, g, max_generic=2)
        param = StabilityParam(eta, N)
        mass = sum(abs(x) for x in eta.values())
        for e, orbit in spec.items():
            if orbit.kind != "generic":
                mass += abs(N * orbit.level) + abs(N * (orbit.level + 1))
        window = mass + 1
        ranges = {}
        for e, orbit in spec.items():
            if orbit.kind == "generic":
                ranges[e] = (-window, window)
            elif orbit.kind == "segment":
                ranges[e] = (N * orbit.level, N * (orbit.level + 1))
            else:
                ranges[e] = (N * orbit.level, N * orbit.level)
        got = is_semistable(g, param, spec)
        found = _brute_box_feasible(g, eta, ranges)
        assert got == found
        if not got:
            wide = {
                e: ((-2 * window - 5, 2 * window + 5) if spec[e].kind == "generic" else r)
                for e, r in ranges.items()
            }
            assert not _brute_box_feasible(g, eta, wide)


def _fm_feasible(inequalities, n_vars):
    """Fourier-Motzkin elimination over Fractions.

    inequalities: list of (coeffs tuple, const) meaning sum a_i x_i <= const.
    Exact rational feasibility of the relaxation.
    """
    from fractions import Fraction

    rows = [([Fraction(a) for a in coeffs], Fraction(c)) for coeffs, c in inequalities]
    for var in range(n_vars):
        lower, upper, rest = [], [], []
        for coeffs, const in rows:
            a = coeffs[var]
            if a > 0:
                upper.append(([x / a for x in coeffs], const / a))
            elif a < 0:
                lower.append(([x / a for x in coeffs], const / a))
            else:
                rest.append((coeffs, const))
        rows = rest
        for lo_coeffs, lo_const in lower:
            for up_coeffs, up_const in upper:
                coeffs = [u - l for u, l in zip(up_coeffs, lo_coeffs)]
                coeffs[var] = Fraction(0)
                rows.append((coeffs, up_const - lo_const))
    return all(const >= 0 for _, const in rows)


def test_rational_relaxation_matches_integer_feasibility():
    """The incidence system is totally unimodular, so the rational relaxation
    of the box problem is feasible exactly when an integer point exists."""
    rng = random.Random(0x1B1)
    for _ in range(60):
        g = random_multigraph(rng, rng.randint(2, 4), rng.randint(1, 4))
        N = rng.randint(1, 3)
        vals = [rng.randint(-2, 2) for _ in range(len(g.vertices) - 1)]
        eta = dict(zip(sorted(g.vertices), vals + [-sum(vals)]))
        spec = _random_spec(rng, g, max_generic=0)
        eids = sorted(g.edge_ids)
        ranges = {
            e: (
                N * spec[e].level,
                N * (spec[e].level + (0 if spec[e].kind == "point" else 1)),
            )
            for e in eids
        }
        inequalities = []
        for i, e in enumerate(eids):
            row = [0] * len(eids)
            row[i] = 1
            inequalities.append((tuple(row), ranges[e][1]))
            row = [0] * len(eids)
            row[i] = -1
            inequalities.append((tuple(row), -ranges[e][0]))
        for v in sorted(g.vertices):
            row = [0] * len(eids)
            for i, e in enumerate(eids):
                edge = g.edge(e)
                row[i] += (1 if edge.head == v else 0) - (1 if edge.tail == v else 0)
            inequalities.append((tuple(row), -eta[v]))
            inequalities.append((tuple(-x for x in row), eta[v]))
        rational = _fm_feasible(inequalities, len(eids))
        integer = _brute_box_feasible(g, eta, ranges)
        assert rational == integer
        assert is_semistable(g, StabilityParam(eta, N), spec) == integer


def test_generic_eta_forbids_disconnecting_point_sets():
    """When eta is generic, no semistable assignment has a point-edge set
    whose removal disconnects the graph."""
    rng = random.Random(0x9E9)
    kinds = [generic_orbit()]
    for level in range(-2, 3):
        kinds.append(segment_orbit(level))
        kinds.append(point_orbit(level))
    checked = 0
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(2, 3), rng.randint(1, 3))
        N = rng.randint(1, 3)
        vals = [rng.randint(-2, 2) for _ in range(len(g.vertices) - 1)]
        eta = dict(zip(sorted(g.vertices), vals + [-sum(vals)]))
        param = StabilityParam(eta, N)
        if not is_generic(g, param):
            continue
        checked += 1
        eids = sorted(g.edge_ids)
        for combo in itertools.product(kinds, repeat=len(eids)):
            spec = dict(zip(eids, combo))
            if not is_semistable(g, param, spec):
                continue
            points = [e for e in eids if spec[e].kind == "point"]
            if not points:
                continue
            rest = Multigraph(
                g.vertices, [e for e in g.edges if e.id not in points]
            )
            assert len(rest.components()) == 1
    assert checked >= 5


def test_theta_semistability_frozen():
    g = theta_graph()
    eta1 = StabilityParam({"u": -1, "v": 1}, 2)
    all_generic = {e: generic_orbit() for e in ("e1", "e2", "e3")}
    all_point0 = {e: point_orbit(0) for e in ("e1", "e2", "e3")}
    all_seg0 = {e: segment_orbit(0) for e in ("e1", "e2", "e3")}
    far_seg = {e: segment_orbit(2) for e in ("e1", "e2", "e3")}
    assert is_semistable(g, eta1, all_generic)
    assert not is_semistable(g, eta1, all_point0)
    assert is_semistable(g, eta1, all_seg0)
    assert not is_semistable(g, eta1, far_seg)
    assert is_semistable(g, StabilityParam({"u": 0, "v": 0}, 2), all_point0)


def _brute_particular(graph, eta):
    """Window scan for any c with d(c) = -eta; the forest routing keeps
    every coordinate within the total eta mass, so the window is complete."""
    mass = sum(abs(x) for x in eta.values())
    eids = sorted(graph.edge_ids)
    for point in itertools.product(range(-mass, mass + 1), repeat=len(eids)):
        c = dict(zip(eids, point))
        d = _brute_boundary(graph, c)
        if all(d[v] == -eta[v] for v in graph.vertices):
            return c
    return None


def _brute_generic(graph, eta, N):
    """Independent genericity scan.

    c mod N only depends on the cycle coordinates mod N, so scanning the
    cycle coefficients over {0..N-1}^rank decides each congruence system.
    """
    c0 = _brute_particular(graph, eta)
    if c0 is None:
        return True
    cycles = graph.cycle_basis()
    eids = sorted(graph.edge_ids)
    for size in range(len(eids) + 1):
        for removed in itertools.combinations(eids, size):
            rest = Multigraph(
                graph.vertices, [e for e in graph.edges if e.id not in removed]
            )
            comps = len(
                {
                    frozenset(comp)
                    for comp in rest.components()
                }
            )
            if comps <= 1:
                continue
            feasible = False
            for t in itertools.product(range(N), repeat=len(cycles)):
                ok = True
                for eid in removed:
                    val = c0[eid] + sum(ti * cyc[eid] for ti, cyc in zip(t, cycles))
                    if val % N != 0:
                        ok = False
                        break
                if ok:
                    feasible = True
                    break
            if feasible:
                return False
    return True


def test_theta_genericity_table():
    g = theta_graph()
    assert is_generic(g, StabilityParam({"u": -1, "v": 1}, 2))
    assert not is_generic(g, StabilityParam({"u": -2, "v": 2}, 2))
    assert not is_generic(g, StabilityParam({"u": -1, "v": 1}, 1))
    assert not is_generic(g, StabilityParam({"u": 0, "v": 0}, 2))


def test_two_cycle_and_bridge_genericity():
    two = cycle_graph(2)
    assert is_generic(two, StabilityParam({"v1": 1, "v2": -1}, 2))
    assert not is_generic(two, StabilityParam({"v1": 2, "v2": -2}, 2))
    bridge = path_graph(2)
    assert is_generic(bridge, StabilityParam({"v1": 1, "v2": -1}, 2))
    assert not is_generic(bridge, StabilityParam({"v1": 2, "v2": -2}, 2))


def test_square_genericity_turns_on_two_vertex_sides():
    """No vertex of C4 has N | eta(v) here, so each verdict is decided by a
    bond with two vertices on each side."""
    g = cycle_graph(4)
    for N, vals, generic in (
        (2, (1, 1, -1, -1), False),
        (4, (1, 3, 1, -5), False),
        (4, (1, 1, 1, -3), True),
    ):
        eta = dict(zip(("v1", "v2", "v3", "v4"), vals))
        assert is_generic(g, StabilityParam(eta, N)) == generic == _brute_generic(g, eta, N)


def test_vacuous_genericity_without_solutions():
    g = Multigraph(["a", "b"], [])
    assert is_generic(g, StabilityParam({"a": 1, "b": -1}, 2))


def _has_wide_bond(graph):
    """Does some bond delta(S) have at least two vertices on each side?"""
    verts = sorted(graph.vertices)

    def connected(side):
        return Multigraph(
            side, [e for e in graph.edges if e.head in side and e.tail in side]
        ).is_connected()

    for size in range(2, len(verts) - 1):
        for side in itertools.combinations(verts, size):
            rest = [v for v in verts if v not in side]
            if connected(list(side)) and connected(rest):
                return True
    return False


def test_genericity_matches_brute_force():
    rng = random.Random(0x6E6)
    seen = set()
    for _ in range(50):
        g = random_multigraph(rng, rng.randint(2, 4), rng.randint(1, 4))
        N = rng.randint(1, 3)
        vals = [rng.randint(-2, 2) for _ in range(len(g.vertices) - 1)]
        eta = dict(zip(sorted(g.vertices), vals + [-sum(vals)]))
        param = StabilityParam(eta, N)
        verdict = is_generic(g, param)
        assert verdict == _brute_generic(g, eta, N)
        seen.add(("generic", verdict))
        if g.is_connected():
            seen.add(("wide bond", _has_wide_bond(g)))
        else:
            solvable = not any(sum(eta[v] for v in c) for c in g.components())
            seen.add(("disconnected", solvable))
    # the branches the bond test relies on: both verdicts, a connected graph
    # whose bond sides are not all single vertices, and disconnected graphs
    # with and without a solution
    assert seen >= {
        ("generic", True),
        ("generic", False),
        ("wide bond", True),
        ("disconnected", True),
        ("disconnected", False),
    }


def test_genericity_budget(monkeypatch):
    """The 2^(V-1) bond candidates are charged before any bond side is built."""
    g = cycle_graph(5)
    param = StabilityParam({v: 0 for v in g.vertices}, 2)
    edge = Multigraph.edge
    calls = []

    def counted(self, edge_id):
        calls.append(edge_id)
        return edge(self, edge_id)

    # _bonds looks the edges up only after charging the candidates
    monkeypatch.setattr(Multigraph, "edge", counted)
    for budget in (10, 15):
        with pytest.raises(BudgetExceededError, match="genericity bond candidates: 16 needed"):
            is_generic(g, param, budget=budget)
    assert calls == []
    assert not is_generic(g, param, budget=16)
    assert calls


def test_loop_strata_are_cycles():
    g = loop_graph()
    for N in range(1, 7):
        sc = strata_complex(g, StabilityParam({"v1": 0}, N))
        assert len(sc.nodes) == N
        assert len(sc.adjacency) == N
        assert sc.connected
        # every interval box of the loop is fully feasible: 3 faces each
        for faces in sc.faces:
            assert sorted(dim for _, dim in faces) == [0, 0, 1]


def test_theta_strata_frozen():
    sc = strata_complex(theta_graph(), StabilityParam({"u": -1, "v": 1}, 2))
    assert len(sc.nodes) == 12
    assert len(sc.adjacency) == 48
    assert sc.connected
    assert sc.edge_order == ("e1", "e2", "e3")
    # box sums of representatives sit at the three feasible levels
    sums = sorted({sum(vec) for vec in sc.nodes})
    assert sums == [-2, -1, 0]


def test_tree_strata_are_boxes_at_corner():
    g = path_graph(3)
    sc = strata_complex(g, StabilityParam({v: 0 for v in g.vertices}, 2))
    assert sorted(sc.nodes) == [(-1, -1), (-1, 0), (0, -1), (0, 0)]
    assert len(sc.adjacency) == 6
    assert sc.connected


def test_strata_empty_when_no_solution():
    g = Multigraph(["a", "b"], [])
    sc = strata_complex(g, StabilityParam({"a": 1, "b": -1}, 2))
    assert sc.nodes == ()
    assert sc.adjacency == ()
    assert sc.connected


def _tiling_cases():
    return [
        (theta_graph(), {"u": -1, "v": 1}, 2),
        (theta_graph(), {"u": 0, "v": 0}, 3),
        (cycle_graph(2), {"v1": 1, "v2": -1}, 2),
        (cycle_graph(3), {"v1": 1, "v2": -1, "v3": 0}, 2),
    ]


def test_strata_tiling_property():
    """Integer solutions fall in exactly one half-open box, and that box's
    class appears among the discovered nodes."""
    rng = random.Random(0x71E)
    for g, eta, N in _tiling_cases():
        sc = strata_complex(g, StabilityParam(eta, N))
        eids = list(sc.edge_order)
        cycles = g.cycle_basis()
        chords = sorted(set(g.edge_ids) - g.spanning_forest())

        def in_class(vec, rep):
            lam = []
            for chord in chords:
                i = eids.index(chord)
                diff = vec[i] - rep[i]
                if diff % N != 0:
                    return False
                lam.append(diff // N)
            for i, eid in enumerate(eids):
                shift = sum(
                    l * cyc[eid] for l, cyc in zip(lam, cycles)
                )
                if rep[i] + N * shift != vec[i]:
                    return False
            return True

        base = _brute_particular(g, eta)
        assert base is not None
        for _ in range(20):
            t = [rng.randint(-2, 2) for _ in cycles]
            c = {
                e: base[e] + sum(ti * cyc[e] for ti, cyc in zip(t, cycles))
                for e in g.edge_ids
            }
            half_open = tuple(c[e] // N for e in eids)
            owners = [rep for rep in sc.nodes if in_class(half_open, rep)]
            assert len(owners) == 1


def test_strata_eta_shift_invariance():
    """Shifting eta by the boundary of N times an edge vector translates the
    complex without changing its shape."""
    g = theta_graph()
    N = 2
    eta = {"u": -1, "v": 1}
    base = strata_complex(g, StabilityParam(eta, N))
    rng = random.Random(0x5F1)
    for _ in range(4):
        w = {e: rng.randint(-2, 2) for e in g.edge_ids}
        d = _brute_boundary(g, {e: N * w[e] for e in g.edge_ids})
        eta2 = {v: eta[v] + d[v] for v in g.vertices}
        shifted = strata_complex(g, StabilityParam(eta2, N))
        assert len(shifted.nodes) == len(base.nodes)
        assert len(shifted.adjacency) == len(base.adjacency)
        assert shifted.connected == base.connected


def test_strata_budget():
    g = theta_graph()
    with pytest.raises(BudgetExceededError):
        strata_complex(g, StabilityParam({"u": 0, "v": 0}, 5), budget=20)


def _random_strata_cases():
    rng = random.Random(0xC0FF)
    for _ in range(12):
        g = random_multigraph(rng, rng.randint(1, 3), rng.randint(1, 3))
        N = rng.randint(1, 2)
        vals = [rng.randint(-1, 1) for _ in range(len(g.vertices) - 1)]
        eta = dict(zip(sorted(g.vertices), vals + [-sum(vals)]))
        yield g, eta, N


def test_strata_connected_across_random_cases():
    for g, eta, N in _random_strata_cases():
        sc = strata_complex(g, StabilityParam(eta, N))
        assert sc.connected


# sha256 of dump_json(strata_to_doc(...)): pins the chosen representatives,
# the face lists and the adjacency order, which the CLI prints as they are
STRATA_DIGESTS = [
    (theta_graph(), {"u": -1, "v": 1}, 2,
     "3f8a2496ceae78cad09c5470f42fc399d52d81affb95762df175e765b2314ec7"),
    (theta_graph(), {"u": 0, "v": 0}, 3,
     "4a0f2d064240d8620281d1b5229a2d1e67b32ca93ed67226f3deb0a3a4c41dd3"),
    (cycle_graph(3), {"v1": 1, "v2": -1, "v3": 0}, 2,
     "6d6957af3c0169190cbfe480b5507b7c2404a89439ae6798fa74cafe796a1580"),
    (cycle_graph(4), {"v1": 1, "v2": 0, "v3": -1, "v4": 0}, 2,
     "9c8958e19f166039bbb2fd3ed028ec1ac7f49f3469fb3b6c4620f94837e366b3"),
    (path_graph(3), {"v1": 0, "v2": 0, "v3": 0}, 2,
     "baa57c548165e295324bad46c82d451e2229c66ed42d84281d78264afa8155a2"),
    (loop_graph(), {"v1": 0}, 3,
     "a69977aff96e11f3dbec69a868befa5c5bf960c006dfbcd9dccbfde48f4465eb"),
]


def test_strata_bytes_pinned():
    for g, eta, N, digest in STRATA_DIGESTS:
        text = dump_json(strata_to_doc(strata_complex(g, StabilityParam(eta, N))))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_strata_budget_checked_before_any_flow(monkeypatch):
    """The face scan runs no max-flow, and its faces are charged exactly, as
    they are found: theta at N = 2 has 12 nodes of 3^2 faces each."""

    def no_flow(*args):
        raise AssertionError("max-flow called")

    monkeypatch.setattr(stability, "_box_flow_feasible", no_flow)
    param = StabilityParam({"u": -1, "v": 1}, 2)
    with pytest.raises(BudgetExceededError, match="strata faces: 108 needed"):
        strata_complex(theta_graph(), param, budget=107)
    sc = strata_complex(theta_graph(), param, budget=108)
    assert len(sc.nodes) == 12
    assert sum(map(len, sc.faces)) == 108
    # semistability still goes through the max-flow
    with pytest.raises(AssertionError, match="max-flow called"):
        is_semistable(theta_graph(), param, {e: generic_orbit() for e in ("e1", "e2", "e3")})


def test_strata_on_edgeless_graphs():
    """With no edge the one class is the empty vector: one node, its one
    face, no adjacency entry, and a connected complex."""
    for g in (Multigraph(["v"], []), Multigraph(["a", "b"], [])):
        sc = strata_complex(g, StabilityParam({v: 0 for v in g.vertices}, 2))
        assert sc.nodes == ((),)
        assert sc.faces == ((((), 0),),)
        assert sc.adjacency == ()
        assert sc.connected


def test_strata_charges_each_node_once(monkeypatch):
    """One vertex with five loops at N = 3: each witness coordinate in 0 .. 8
    gives the index 0, 1 or 2, and a multiple of 3 also the index below, so
    the scan visits (6 + 3 * 2)^5 = 248,832 box combinations but meets only
    the 4^5 = 1,024 vectors of {-1 .. 2}^5, and charges each once."""
    charge = stability.charge
    calls = []

    def counted(need, what, budget=None):
        calls.append(what)
        return charge(need, what, budget)

    monkeypatch.setattr(stability, "charge", counted)
    g = Multigraph(["v"], [Edge(f"l{i}", "v", "v") for i in range(5)])
    sc = strata_complex(g, StabilityParam({"v": 0}, 3))
    assert calls.count("strata nodes") == 1024
    assert len(sc.nodes) == 243


def _hoffman_feasible(graph, eta, bounds):
    """The cut route: every component balanced, no empty box, and for each
    bond side S (and its complement) -eta(S) <= sum_in hi - sum_out lo."""
    if any(lo is not None and hi is not None and lo > hi for lo, hi in bounds.values()):
        return False
    if any(sum(eta[v] for v in comp) for comp in graph.components()):
        return False
    eids = sorted(graph.edge_ids)
    for side, signs in stability._bonds(graph, eids, "bond candidates"):
        eta_side = sum(eta[v] for v in side)
        for sg, need in ((signs, -eta_side), ([-s for s in signs], eta_side)):
            # an edge into S contributes its hi, an edge out of S minus its lo
            ends = [(s, bounds[e][s > 0]) for s, e in zip(sg, eids) if s]
            if any(end is None for _, end in ends):
                continue
            if need > sum(s * end for s, end in ends):
                return False
    return True


def test_cut_route_matches_max_flow():
    """Hoffman's condition over the bonds agrees with the max-flow on random
    boxes with loops, unbounded ends, disconnected graphs and empty boxes."""
    rng = random.Random(0x40FF)
    verdicts = {True: 0, False: 0}
    disconnected = 0
    for _ in range(3000):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 7))
        disconnected += not g.is_connected()
        vals = [rng.randint(-3, 3) for _ in range(len(g.vertices) - 1)]
        eta = dict(zip(sorted(g.vertices), vals + [-sum(vals)]))
        bounds = {}
        for e in g.edge_ids:
            lo = rng.randint(-3, 3)
            hi = lo + rng.randint(-1, 3)
            bounds[e] = (
                None if rng.random() < 0.2 else lo,
                None if rng.random() < 0.2 else hi,
            )
        verdict = stability._box_flow_feasible(g, eta, bounds)
        assert _hoffman_feasible(g, eta, bounds) == verdict, (g.edges, eta, bounds)
        verdicts[verdict] += 1
    assert min(verdicts.values()) > 500 and disconnected > 500


def test_strata_faces_match_max_flow():
    """Every node's face list, grown from the rooms of the bond sides, is
    exactly the faces of its box that the max-flow finds feasible, in
    product order."""
    cases = list(_tiling_cases()) + list(_random_strata_cases())
    cases.append((cycle_graph(4), {"v1": 1, "v2": 0, "v3": -1, "v4": 0}, 2))
    checked = 0
    for g, eta, N in cases:
        sc = strata_complex(g, StabilityParam(eta, N))
        m = len(sc.edge_order)
        for rep, faces in zip(sc.nodes, sc.faces):
            expected = []
            for face in itertools.product((-1, 0, 1), repeat=m):
                bounds = {
                    eid: (N * (x + (d > 0)), N * (x + (d >= 0)))
                    for eid, x, d in zip(sc.edge_order, rep, face)
                }
                if stability._box_flow_feasible(g, eta, bounds):
                    expected.append((face, face.count(0)))
                checked += 1
            assert faces == tuple(expected)
    assert checked > 1000


def test_strata_adjacency_reads_off_faces():
    """Every adjacency entry (i, j, a, b) starts at node i <= j and steps to a
    neighbour b whose joint box with a is a feasible face of node i's box. A
    self pair, which needs N = 1, shows the smaller of a + delta and
    a - delta."""
    cases = list(_tiling_cases()) + list(_random_strata_cases())
    cases += [(loop_graph(), {"v1": 0}, 1), (theta_graph(), {"u": 1, "v": -1}, 1)]
    checked = selfs = 0
    for g, eta, N in cases:
        sc = strata_complex(g, StabilityParam(eta, N))
        for i, j, a, b in sc.adjacency:
            assert i <= j < len(sc.nodes)
            assert a == sc.nodes[i]
            delta = tuple(y - x for x, y in zip(a, b))
            assert set(delta) <= {-1, 0, 1} and any(delta)
            assert (delta, delta.count(0)) in sc.faces[i]
            if i == j:
                assert b < tuple(x - d for x, d in zip(a, delta))
                selfs += 1
            checked += 1
    assert checked > 0 and selfs > 0


def _generic_strata_cases():
    """Connected graphs with a generic eta, found by a seeded search: theta3-5,
    C4, K4 and the 2x3 grid, then random multigraphs with betti1 <= 3."""
    rng = random.Random(0x6E7)

    def theta(k):
        return Multigraph(["u", "v"], [Edge(f"e{i}", "v", "u") for i in range(1, k + 1)])

    graphs = [(theta(3), 2), (theta(3), 3), (theta(4), 2), (theta(4), 3), (theta(5), 2)]
    graphs += [(cycle_graph(4), 3), (cycle_graph(4), 4), (complete_graph(4), 4)]
    graphs.append((grid_graph(2, 3), 3))
    while len(graphs) < 36:
        g = random_multigraph(rng, rng.randint(1, 4), rng.randint(1, 6))
        if g.is_connected() and g.betti1() <= 3:
            graphs.append((g, rng.randint(2, 4)))
    for g, N in graphs:
        verts = sorted(g.vertices)
        for _ in range(200):
            vals = [rng.randint(-2 * N, 2 * N) for _ in verts[1:]]
            eta = dict(zip(verts, vals + [-sum(vals)]))
            if is_generic(g, StabilityParam(eta, N)):
                yield g, eta, N
                break


def test_generic_strata_identities():
    """Strata's second route. For generic eta the complex has F N^r nodes
    (F the forest count, r = betti1), 3^r faces per node and 3^r - 1
    neighbours per node, and it is connected.

    Proof sketch. Let A be the r-dimensional affine space of edge vectors c
    with d(c) = -eta, cut by the hyperplanes c_e in NZ. A vertex of that
    arrangement fixes the r chord coordinates of some maximal forest T to
    multiples of N, and the chord coordinates are unimodular, so modulo N^2
    times the cycle lattice (the translation the quotient uses) there are
    N^r vertices per forest, F N^r in all. A point's set W of edges with
    c_e in NZ is the Point edge set of a semistable assignment, so eta is
    generic exactly when no such W disconnects the graph, that is when the
    arrangement is simple. In a simple arrangement of bounded cells a generic
    linear functional makes each cell's lowest vertex unique; each vertex is
    the lowest vertex of exactly one of its 2^r cells, and of exactly
    C(r, j) of its faces of codimension j. That gives the node count, and
    nodes * C(r, j) 2^j faces of codimension j, nodes * 3^r in all. The
    non-central faces are the adjacencies, each found from both of its ends.
    """
    cases = list(_generic_strata_cases())
    assert len(cases) >= 30
    assert sum(any(e.head == e.tail for e in g.edges) for g, _, _ in cases) >= 10
    for g, eta, N in cases:
        sc = strata_complex(g, StabilityParam(eta, N))
        r = g.betti1()
        assert len(sc.nodes) == total_volume(g) * N**r, (g.edges, eta, N)
        assert sum(map(len, sc.faces)) == len(sc.nodes) * 3**r
        assert 2 * len(sc.adjacency) == len(sc.nodes) * (3**r - 1)
        assert sc.connected


def test_generic_c12_strata_under_default_budget():
    """Faces are found by output, not tabulated over 3^E: generic C12 at
    N = 12 has 144 nodes of 3 faces each, where a 3^12 table per node would
    need 76,527,504 checks."""
    g = cycle_graph(12)
    eta = {f"v{i}": 1 for i in range(1, 12)}
    eta["v12"] = -11
    start = time.perf_counter()
    sc = strata_complex(g, StabilityParam(eta, 12))
    assert time.perf_counter() - start < 1.0
    assert len(sc.nodes) == 144
    assert sum(map(len, sc.faces)) == 432
    assert len(sc.adjacency) == 144
    assert sc.connected


def test_semistable_on_3000_edge_cycle():
    """The max-flow is iterative: a unit demand across half of a 3000-edge
    cycle is carried by the forward arc, and pinning one edge of each arc to
    character 1 leaves no solution."""
    g = cycle_graph(3000)
    eta = {v: 0 for v in g.vertices}
    eta["v1"], eta["v1501"] = 1, -1
    param = StabilityParam(eta, 1)
    spec = {eid: segment_orbit(0) for eid in g.edge_ids}
    assert is_semistable(g, param, spec)
    spec["e1"] = spec["e2000"] = point_orbit(1)
    assert not is_semistable(g, param, spec)


def _full_network_feasible(graph, eta, bounds):
    """The unreduced feasible-flow network, kept as the reduction's oracle.

    Every vertex and every edge but a loop goes to the max-flow, with the
    unbounded ends capped by the total mass of eta and of the finite ends.
    """
    cap = sum(abs(x) for x in eta.values()) + 1
    for lo, hi in bounds.values():
        if lo is not None and hi is not None and lo > hi:
            return False
        cap += abs(lo or 0) + abs(hi or 0)
    verts = sorted(graph.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    arcs = []
    excess = {v: -eta[v] for v in verts}
    for e in graph.edges:
        lo, hi = bounds[e.id]
        if e.head == e.tail:
            continue
        lo = -cap if lo is None else lo
        hi = cap if hi is None else hi
        arcs.append((idx[e.tail], idx[e.head], hi - lo))
        excess[e.head] -= lo
        excess[e.tail] += lo
    total = 0
    for v in verts:
        if excess[v] > 0:
            arcs.append((idx[v], n + 1, excess[v]))
            total += excess[v]
        elif excess[v] < 0:
            arcs.append((n, idx[v], -excess[v]))
    return stability._max_flow(n + 2, arcs, n, n + 1) == total


def _random_box(rng):
    """Free 30%, fixed 10%, half-bounded 20%, bounded, and now and then empty."""
    lo = rng.randint(-3, 3)
    roll = rng.random()
    if roll < 0.3:
        return None, None
    if roll < 0.4:
        return lo, lo
    if roll < 0.5:
        return lo, None
    if roll < 0.6:
        return None, lo
    if roll < 0.995:
        return lo, lo + rng.randint(1, 3)
    return lo, lo - 1


def test_reduction_matches_full_network():
    """The reduced route and the unreduced network agree on 3,000 seeded
    multigraphs of up to 12 vertices and 20 edges, with loops, parallel
    edges, several components, and free, fixed, half-bounded, bounded and
    empty boxes."""
    rng = random.Random(0x5E41E5)
    verdicts = {True: 0, False: 0}
    seen = dict.fromkeys(("loop", "parallel", "disconnected", "empty"), 0)
    for _ in range(3000):
        g = random_multigraph(rng, rng.randint(1, 12), rng.randint(0, 20))
        verts = sorted(g.vertices)
        vals = [rng.randint(-2, 2) for _ in verts[1:]]
        eta = dict(zip(verts, vals + [-sum(vals)]))
        bounds = {eid: _random_box(rng) for eid in g.edge_ids}
        verdict = stability._box_flow_feasible(g, eta, bounds)
        assert verdict == _full_network_feasible(g, eta, bounds), (g.edges, eta, bounds)
        verdicts[verdict] += 1
        ends = [frozenset((e.head, e.tail)) for e in g.edges]
        seen["loop"] += any(len(x) == 1 for x in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["disconnected"] += not g.is_connected()
        seen["empty"] += any(hi is not None and lo is not None and lo > hi for lo, hi in bounds.values())
    assert min(verdicts.values()) >= 500, verdicts
    assert min(seen.values()) >= 100, seen


def test_reduction_leaves_only_the_core(monkeypatch):
    """A cycle reduces to nothing, so the max-flow gets no arc; on K4, where
    every vertex has three edges and no box is free or fixed, every edge
    stays an arc."""
    arcs_seen = []
    max_flow = stability._max_flow

    def recorded(n, arcs, s, t):
        arcs_seen.append([a for a in arcs if s not in a[:2] and t not in a[:2]])
        return max_flow(n, arcs, s, t)

    monkeypatch.setattr(stability, "_max_flow", recorded)
    g = cycle_graph(50)
    eta = dict.fromkeys(g.vertices, 0)
    eta["v1"], eta["v25"] = 1, -1
    assert stability._box_flow_feasible(g, eta, dict.fromkeys(g.edge_ids, (-1, 1)))
    assert arcs_seen.pop() == []
    k4 = complete_graph(4)
    eta = dict.fromkeys(k4.vertices, 0)
    assert stability._box_flow_feasible(k4, eta, dict.fromkeys(k4.edge_ids, (-1, 1)))
    assert len(arcs_seen.pop()) == len(k4.edges)


def _cycle_interval_verdict(n, param, spec):
    """Semistability on cycle_graph(n) by intersecting integer intervals.

    Edge e_i runs v_i -> v_(i+1), so d(c) = -eta reads c_(i+1) = c_i +
    eta(v_(i+1)), and every solution is c_i = t + S_i with S_i the sum of
    eta over v_2 .. v_i. Semistable iff some integer t puts every
    coordinate in its orbit's interval.
    """
    N = param.N
    lo_t, hi_t = None, None
    s = 0
    for i in range(1, n + 1):
        if i > 1:
            s += param.eta[f"v{i}"]
        orbit = spec[f"e{i}"]
        if orbit.kind == "generic":
            continue
        lo = N * orbit.level
        hi = lo if orbit.kind == "point" else lo + N
        lo_t = lo - s if lo_t is None else max(lo_t, lo - s)
        hi_t = hi - s if hi_t is None else min(hi_t, hi - s)
    return lo_t is None or lo_t <= hi_t


@pytest.mark.parametrize("p_generic", [0.0, 0.2])
def test_semistable_on_20000_edge_cycle(p_generic):
    """Orbits drawn around a solution c = t + S on a 20,000-edge cycle, then
    one Segment moved two levels off it: the first is semistable and the
    second is not, as the interval test says, and each call takes under
    half a second."""
    n, N = 20000, 3
    rng = random.Random(20000 + int(100 * p_generic))
    g = cycle_graph(n)
    vals = [rng.randint(-2, 2) for _ in range(n - 1)]
    eta = dict(zip((f"v{i}" for i in range(1, n + 1)), vals + [-sum(vals)]))
    param = StabilityParam(eta, N)
    spec, s = {}, rng.randint(-N, N)
    for i in range(1, n + 1):
        if i > 1:
            s += eta[f"v{i}"]
        if rng.random() < p_generic:
            spec[f"e{i}"] = generic_orbit()
        else:
            # c_i = s lies in [N l, N l + N] for l = s // N, and for l - 1 at the top
            spec[f"e{i}"] = segment_orbit(s // N - (s % N == 0 and rng.random() < 0.5))
    moved = dict(spec)
    eid = next(e for e in sorted(spec, reverse=True) if spec[e].kind == "segment")
    moved[eid] = segment_orbit(spec[eid].level + 2)
    for orbits, expected in ((spec, True), (moved, False)):
        assert _cycle_interval_verdict(n, param, orbits) is expected
        start = time.perf_counter()
        assert is_semistable(g, param, orbits) is expected
        assert time.perf_counter() - start < 0.5
