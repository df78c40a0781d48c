"""Core multigraph operations against brute-force recounts."""

import random

import pytest

from conftest import (
    brute_component_count,
    brute_forests,
    complete_graph,
    cycle_graph,
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
    Edge,
    LoopContractionError,
    Multigraph,
    UnknownEdgeError,
    enumeration_budget,
)
from hyperkirch.graphs import DEFAULT_BUDGET, charge


def test_constructor_rejects_duplicates_and_dangling():
    with pytest.raises(DomainError):
        Multigraph(["a", "a"], [])
    with pytest.raises(DomainError):
        Multigraph(["a"], [Edge("e", "a", "a"), Edge("e", "a", "a")])
    with pytest.raises(DomainError):
        Multigraph(["a"], [Edge("e", "a", "b")])


def test_edge_lookup():
    g = theta_graph()
    assert g.edge("e2") == Edge("e2", "u", "v")
    with pytest.raises(UnknownEdgeError):
        g.edge("nope")


def test_classify_edge():
    g = Multigraph(
        ["a", "b", "c"],
        [
            Edge("loop", "a", "a"),
            Edge("bridge", "b", "a"),
            Edge("c1", "c", "b"),
            Edge("c2", "b", "c"),
        ],
    )
    assert g.classify_edge("loop") == "loop"
    assert g.classify_edge("bridge") == "bridge"
    assert g.classify_edge("c1") == "ordinary"
    assert g.classify_edge("c2") == "ordinary"


def test_classify_edge_matches_definition():
    """A non-loop edge is a bridge iff deleting it adds a component."""
    rng = random.Random(0xB41D)
    kinds = set()
    parallel = multi_component = False
    for _ in range(300):
        g = random_multigraph(rng, rng.randint(2, 8), rng.randint(1, 12))
        c = g.n_components()
        multi_component |= c > 1
        parallel |= len({frozenset((e.head, e.tail)) for e in g.edges}) < len(g.edges)
        for e in g.edges:
            if e.head == e.tail:
                expected = "loop"
            elif g.delete(e.id).n_components() > c:
                expected = "bridge"
            else:
                expected = "ordinary"
            assert g.classify_edge(e.id) == expected
            kinds.add(expected)
    assert kinds == {"loop", "bridge", "ordinary"} and parallel and multi_component


def test_delete_and_contract():
    g = theta_graph()
    d = g.delete("e1")
    assert set(d.edge_ids) == {"e2", "e3"}
    assert set(d.vertices) == {"u", "v"}
    c = g.contract("e1")
    # contraction merges v into u (the smaller id) and keeps the other edges
    assert len(c.vertices) == 1
    assert set(c.edge_ids) == {"e2", "e3"}
    assert all(c.edge(e).head == c.edge(e).tail for e in ("e2", "e3"))
    with pytest.raises(LoopContractionError):
        loop_graph().contract("e1")


def test_components_and_betti1_match_brute_force():
    rng = random.Random(0x5EED)
    graphs = list(iso_catalog(5)) + [
        random_multigraph(rng, rng.randint(2, 6), rng.randint(0, 8))
        for _ in range(40)
    ]
    for g in graphs:
        c = brute_component_count(g)
        assert g.n_components() == c
        assert g.betti1() == len(g.edges) - len(g.vertices) + c
        assert g.is_connected() == (c == 1)


def test_spanning_forests_match_brute_force():
    rng = random.Random(0xF0857)
    graphs = list(iso_catalog(5)) + [
        random_multigraph(rng, rng.randint(1, 7), rng.randint(0, 10)) for _ in range(200)
    ]
    for g in graphs:
        assert g.spanning_forests() == set(brute_forests(g))


def test_spanning_forests_of_a_long_path():
    g = path_graph(1200)
    assert g.spanning_forests() == {frozenset(g.edge_ids)}


def test_minors_commute_as_ordered_graphs():
    """Different orders of the same deletions and contractions give equal
    vertex and edge tuples, not just isomorphic graphs."""
    for g in (complete_graph(5), grid_graph(3, 3)):
        for a in g.edge_ids:
            for b in g.edge_ids:
                if a == b:
                    continue
                assert g.contract(a).delete(b) == g.delete(b).contract(a)
                if g.contract(a).edge(b).head != g.contract(a).edge(b).tail:
                    assert g.contract(a).contract(b) == g.contract(b).contract(a)


def test_minors_equal_validated_graphs():
    rng = random.Random(0x3140)
    graphs = [complete_graph(5), grid_graph(3, 3)]
    graphs += [random_multigraph(rng, rng.randint(1, 6), rng.randint(1, 9)) for _ in range(100)]
    for g in graphs:
        for e in g.edges:
            minors = [g.delete(e.id)]
            if e.head != e.tail:
                minors.append(g.contract(e.id))
            for m in minors:
                rebuilt = Multigraph(m.vertices, m.edges)
                assert m == rebuilt
                assert m._by_id == rebuilt._by_id
                assert type(m.vertices) is tuple and type(m.edges) is tuple


def test_greedy_forest_is_a_forest():
    rng = random.Random(0xF0E)
    for _ in range(30):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 7))
        forest = g.spanning_forest()
        assert forest in g.spanning_forests()


def test_cycle_basis_shape_and_boundaries():
    rng = random.Random(0xC1C)
    graphs = list(iso_catalog(4)) + [
        random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 7))
        for _ in range(30)
    ]
    for g in graphs:
        cycles = g.cycle_basis()
        assert len(cycles) == g.betti1()
        chords = sorted(set(g.edge_ids) - g.spanning_forest())
        for i, c in enumerate(cycles):
            assert set(c) == set(g.edge_ids)
            assert c[chords[i]] == 1
            for j, other in enumerate(chords):
                if j != i:
                    assert c[other] == 0
            assert all(v == 0 for v in g.boundary(c).values())


def test_cycle_basis_rejects_non_forests():
    """A caller's forest must be a maximal spanning forest of known edges."""
    g = Multigraph(
        ["a", "b", "c", "d"],
        [
            Edge("e1", "b", "a"),
            Edge("e2", "c", "b"),
            Edge("e3", "a", "c"),
            Edge("e4", "d", "c"),
            Edge("e5", "d", "d"),
        ],
    )
    assert len(g.cycle_basis(["e1", "e2", "e4"])) == 2
    for forest, message in (
        (["e1", "e2"], "wrong edge count"),
        (["e1", "e4", "e5"], "contains a loop"),
        (["e1", "e2", "e3"], "contains a cycle"),
    ):
        with pytest.raises(DomainError, match=message):
            g.cycle_basis(forest)
    with pytest.raises(UnknownEdgeError):
        g.cycle_basis(["e1", "e2", "zz"])


def test_boundary_convention_and_linearity():
    g = Multigraph(["a", "b"], [Edge("e", "b", "a")])
    assert g.boundary({"e": 1}) == {"b": 1, "a": -1}
    g = theta_graph()
    rng = random.Random(7)
    x = {e: rng.randint(-5, 5) for e in g.edge_ids}
    y = {e: rng.randint(-5, 5) for e in g.edge_ids}
    bx, by = g.boundary(x), g.boundary(y)
    both = g.boundary({e: x[e] + y[e] for e in g.edge_ids})
    assert both == {v: bx[v] + by[v] for v in g.vertices}
    with pytest.raises(DomainError):
        g.boundary({"e1": 1})


def test_fragment_loop_becomes_cycle():
    g = loop_graph().fragment({"e1": 3})
    assert len(g.vertices) == 3
    assert len(g.edges) == 3
    assert len(g.spanning_forests()) == 3


def test_fragment_counts_and_validation():
    g = theta_graph()
    frag = g.fragment({"e1": 2, "e2": 1, "e3": 4})
    assert len(frag.edges) == 7
    assert len(frag.vertices) == 2 + 1 + 3
    assert frag.betti1() == g.betti1()
    same = g.fragment({"e1": 1, "e2": 1, "e3": 1})
    assert same == g
    with pytest.raises(DomainError):
        g.fragment({"e1": 2, "e2": 1})
    with pytest.raises(DomainError):
        g.fragment({"e1": 0, "e2": 1, "e3": 1})
    # the result's edge count is charged before anything is built
    with pytest.raises(BudgetExceededError) as info:
        g.fragment({"e1": 10**7, "e2": 1, "e3": 1})
    assert str(info.value) == f"fragment edges: 10000002 needed, budget is {DEFAULT_BUDGET}"


def test_charge_reports_a_long_need_as_a_lower_bound():
    """An int of over 1000 bits is reported as 2^(bits - 1), a lower bound, so
    a need past CPython's 4300-digit printing limit still gives a message."""
    assert charge(10, "x", 10) == 10
    with pytest.raises(BudgetExceededError) as info:
        charge(2**1000 - 1, "x", 10)
    assert str(info.value) == f"x: {2**1000 - 1} needed, budget is 10"
    with pytest.raises(BudgetExceededError) as info:
        charge(3**20000, "x", 10)
    assert str(info.value) == "x: at least 2^31699 needed, budget is 10"
    with pytest.raises(BudgetExceededError) as info:
        charge(10**5000 + 1, "x", 10**5000)
    assert str(info.value) == "x: at least 2^16609 needed, budget is at least 2^16609"


def test_fragment_keeps_orientation_path():
    g = Multigraph(["a", "b"], [Edge("e", "b", "a")])
    frag = g.fragment({"e": 3})
    # composite path runs from the old tail to the old head
    total = frag.boundary({eid: 1 for eid in frag.edge_ids})
    assert total["b"] == 1 and total["a"] == -1
    assert all(v == 0 for k, v in total.items() if k not in ("a", "b"))


def test_functional_wrappers_delegate():
    import hyperkirch as hk

    g = theta_graph()
    assert hk.betti1(g) == g.betti1()
    assert hk.classify_edge(g, "e1") == "ordinary"
    assert hk.delete(g, "e1") == g.delete("e1")
    assert hk.contract(g, "e2") == g.contract("e2")
    assert hk.spanning_forests(g) == g.spanning_forests()
    assert hk.cycle_basis(g) == g.cycle_basis()
    assert hk.fragment(g, {"e1": 1, "e2": 1, "e3": 1}) == g
    assert hk.boundary(g, {"e1": 1, "e2": 0, "e3": 0}) == {"u": 1, "v": -1}


def test_enumeration_budget_resolution(monkeypatch):
    monkeypatch.delenv("HYPERKIRCH_BUDGET", raising=False)
    assert enumeration_budget() == DEFAULT_BUDGET
    assert enumeration_budget(10) == 10
    monkeypatch.setenv("HYPERKIRCH_BUDGET", "1234")
    assert enumeration_budget() == 1234
    assert enumeration_budget(77) == 77
    monkeypatch.setenv("HYPERKIRCH_BUDGET", "zero")
    with pytest.raises(DomainError):
        enumeration_budget()
    monkeypatch.setenv("HYPERKIRCH_BUDGET", "0")
    with pytest.raises(DomainError):
        enumeration_budget()


def test_graph_equality_and_hash():
    a = theta_graph()
    b = theta_graph()
    assert a == b and hash(a) == hash(b)
    assert a != a.delete("e1")


def test_named_builders():
    assert cycle_graph(1).betti1() == 1
    assert cycle_graph(2).betti1() == 1
    assert path_graph(4).betti1() == 0
    assert brute_component_count(path_graph(4)) == 1


def test_grid_graph_ids_beyond_ten_rows():
    """From 10 rows or columns on, vertex names carry a separator and edge
    ids are padded to the edge count's width, so they stay distinct and
    sort in creation order; smaller grids keep their ids."""
    g = grid_graph(12, 12)
    assert len(g.vertices) == 144 and len(g.edges) == 264
    assert list(g.edge_ids) == sorted(g.edge_ids)
    small = grid_graph(3, 4)
    assert small.vertices[:5] == ("v00", "v01", "v02", "v03", "v10")
    assert small.edge_ids[:2] == ("e01", "e02")
