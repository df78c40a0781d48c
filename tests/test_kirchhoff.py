"""Forest-complement polynomial engines checked against each other and brute force."""

import gc
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    brute_psi_terms,
    brute_forest_count,
    brute_psi_value,
    complete_graph,
    cycle_graph,
    disjoint_union,
    grid_graph,
    iso_catalog,
    loop_graph,
    path_graph,
    random_connected_multigraph,
    random_multigraph,
    theta_graph,
)
from hyperkirch import (
    BudgetExceededError,
    DomainError,
    Edge,
    Multigraph,
    matrix_tree_dual,
    psi_delcon,
    psi_det,
    psi_enum,
    total_volume,
)
from hyperkirch import kirchhoff
from hyperkirch.kirchhoff import _delcon, _ordered_core, _prune


def test_theta_polynomial_frozen():
    p = psi_enum(theta_graph())
    assert p.terms == {
        frozenset({"e1", "e2"}): 1,
        frozenset({"e1", "e3"}): 1,
        frozenset({"e2", "e3"}): 1,
    }
    assert p.equal(psi_delcon(theta_graph()))


def test_cycle_polynomial_is_sum_of_variables():
    for n in range(1, 7):
        p = psi_delcon(cycle_graph(n))
        assert p.terms == {frozenset({f"e{i}"}): 1 for i in range(1, n + 1)}


def test_edgeless_and_tree_polynomials_are_one():
    empty = Multigraph(["v1", "v2"], [])
    assert psi_enum(empty).terms == {frozenset(): 1}
    assert psi_delcon(empty).terms == {frozenset(): 1}
    tree = path_graph(5)
    assert psi_delcon(tree).terms == {frozenset(): 1}


def test_engines_match_brute_force_on_catalog():
    for g in iso_catalog(5):
        expected = brute_psi_terms(g)
        assert psi_enum(g).terms == expected
        assert psi_delcon(g).terms == expected


def test_engines_agree_on_random_graphs():
    rng = random.Random(0xABCD)
    for _ in range(60):
        g = random_multigraph(rng, rng.randint(2, 6), rng.randint(0, 8))
        a = psi_enum(g)
        b = psi_delcon(g)
        assert a.equal(b)
        assert b.is_homogeneous()
        assert b.coefficients_are_01()
        assert b.degree() == g.betti1() or not b.terms


def test_psi_det_agrees_at_integer_points():
    rng = random.Random(0x1E57)
    for g in iso_catalog(6):
        p = psi_enum(g)
        for _ in range(8):
            w = {e: rng.randint(-10, 10) for e in g.edge_ids}
            assert psi_det(g, w) == p.evaluate(w)


def test_matrix_tree_dual_agrees_at_positive_rationals():
    rng = random.Random(0x3A7)
    theta = theta_graph()
    assert matrix_tree_dual(
        theta, {"e1": Fraction(2), "e2": Fraction(3), "e3": Fraction(5)}
    ) == 31
    for g in iso_catalog(6, connected_only=True):
        p = psi_enum(g)
        for _ in range(4):
            w = {
                e: Fraction(rng.randint(1, 12), rng.randint(1, 7))
                for e in g.edge_ids
            }
            expected = sum(
                (
                    _product(w[e] for e in mono)
                    for mono in p.terms
                ),
                Fraction(0),
            )
            assert matrix_tree_dual(g, w) == expected


def _product(factors):
    out = Fraction(1)
    for f in factors:
        out *= f
    return out


def test_matrix_tree_dual_requires_connected_positive():
    g = disjoint_union(loop_graph(), loop_graph())
    with pytest.raises(DomainError):
        matrix_tree_dual(g, {e: Fraction(1) for e in g.edge_ids})
    with pytest.raises(DomainError):
        matrix_tree_dual(theta_graph(), {"e1": Fraction(0), "e2": Fraction(1), "e3": Fraction(1)})


def test_orientation_invariance():
    rng = random.Random(0xF11B)
    for _ in range(30):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 7))
        flipped = Multigraph(
            g.vertices,
            [
                Edge(e.id, e.tail, e.head) if rng.random() < 0.5 else e
                for e in g.edges
            ],
        )
        assert psi_enum(g).equal(psi_enum(flipped))
        assert psi_delcon(g).equal(psi_delcon(flipped))
        w = {e: rng.randint(-6, 6) for e in g.edge_ids}
        assert psi_det(g, w) == psi_det(flipped, w)


def test_basis_invariance_of_psi_det():
    g = theta_graph()
    w = {"e1": 3, "e2": 4, "e3": 7}
    from hyperkirch import tau_matrix

    for forest in g.spanning_forests():
        basis = g.cycle_basis(forest)
        assert tau_matrix(g, w, basis).det() == psi_det(g, w)


def test_disjoint_union_multiplicativity():
    rng = random.Random(0xD15)
    for _ in range(15):
        a = random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 4))
        b = random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 4))
        u = disjoint_union(a, b)
        pu = psi_delcon(u)
        w = {e: rng.randint(1, 5) for e in u.edge_ids}
        wa = {e: w[f"a.{e}"] for e in a.edge_ids}
        wb = {e: w[f"b.{e}"] for e in b.edge_ids}
        assert pu.evaluate(w) == psi_delcon(a).evaluate(wa) * psi_delcon(b).evaluate(wb)


def test_deletion_contraction_identities():
    """x_e branch split for ordinary edges, drop for loops, contract for bridges."""
    rng = random.Random(0xDC0)
    for _ in range(60):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 8))
        p = psi_delcon(g)
        for eid in g.edge_ids:
            kind = g.classify_edge(eid)
            w = {e: rng.randint(1, 6) for e in g.edge_ids}
            rest = {e: v for e, v in w.items() if e != eid}
            if kind == "loop":
                assert p.evaluate(w) == w[eid] * psi_delcon(g.delete(eid)).evaluate(rest)
            elif kind == "bridge":
                assert p.evaluate(w) == psi_delcon(g.contract(eid)).evaluate(rest)
            else:
                assert p.evaluate(w) == (
                    w[eid] * psi_delcon(g.delete(eid)).evaluate(rest)
                    + psi_delcon(g.contract(eid)).evaluate(rest)
                )


def test_fragmentation_identity_small():
    rng = random.Random(0xF8A6)
    for g in iso_catalog(4):
        for _ in range(3):
            counts = {e: rng.randint(1, 3) for e in g.edge_ids}
            frag = g.fragment(counts)
            assert len(frag.spanning_forests()) == psi_enum(g).evaluate(counts)


def test_delcon_repeat_calls_are_stable():
    g = random_connected_multigraph(random.Random(5), 5, 8)
    first = psi_delcon(g)
    second = psi_delcon(g)
    assert first.equal(second)
    assert brute_psi_value(g, {e: 2 for e in g.edge_ids}) == first.evaluate(
        {e: 2 for e in g.edge_ids}
    )


def test_engine_classifies_only_the_edge_it_removes(monkeypatch):
    """psi_delcon and total_volume classify the least-ranked edge of each
    minor and no other, and reach all three kinds of edge on these graphs.
    Pendant edges are pruned before they come up, so the bridge reached is
    the one joining two triangles."""
    classify = Multigraph.classify_edge
    kinds = set()
    rank = {}

    def checked(self, eid):
        assert eid == min(self.edge_ids, key=rank.__getitem__)
        kind = classify(self, eid)
        kinds.add(kind)
        return kind

    monkeypatch.setattr(Multigraph, "classify_edge", checked)
    loop_and_bridge = Multigraph(
        ["a", "b", "c"],
        [Edge("e1", "a", "a"), Edge("e2", "b", "a"), Edge("e3", "c", "b"), Edge("e4", "b", "c")],
    )
    triangles = Multigraph(
        ["a", "b", "c", "x", "y", "z"],
        [
            Edge("e1", "b", "a"), Edge("e2", "c", "b"), Edge("e3", "a", "c"),
            Edge("e4", "x", "c"),
            Edge("e5", "y", "x"), Edge("e6", "z", "y"), Edge("e7", "x", "z"),
        ],
    )
    for g in (cycle_graph(20), complete_graph(5), loop_and_bridge, triangles):
        rank.clear()
        rank.update((eid, i) for i, eid in enumerate(_ordered_core(g).edge_ids))
        assert psi_delcon(g).terms == brute_psi_terms(g)
        assert total_volume(g) == brute_forest_count(g)
    assert kinds == {"loop", "bridge", "ordinary"}


def test_psi_delcon_budget_charged_before_the_engine(monkeypatch):
    """The monomial count (the forest count) is charged before any minor is
    classified: K9 has 9^7 = 4,782,969 forests, over the default budget, and
    the theta graph's three fit a budget of 3 but not of 2."""

    def never(self, eid):
        raise AssertionError("the engine ran before the budget check")

    with monkeypatch.context() as m:
        m.setattr(Multigraph, "classify_edge", never)
        with pytest.raises(BudgetExceededError, match="psi_delcon monomials: 4782969 needed"):
            psi_delcon(complete_graph(9))
    monkeypatch.setenv("HYPERKIRCH_BUDGET", "2")
    with pytest.raises(BudgetExceededError, match="psi_delcon monomials: 3 needed"):
        psi_delcon(theta_graph())
    monkeypatch.setenv("HYPERKIRCH_BUDGET", "3")
    assert psi_delcon(theta_graph()).terms == brute_psi_terms(theta_graph())


def test_engine_leaves_no_cyclic_garbage():
    g = complete_graph(5)
    gc.collect()
    gc.disable()
    try:
        total_volume(g)
        psi_delcon(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_delcon_masks_past_64_edges_in_shuffled_order():
    """psi_delcon gives an edge the bit of its position in graph.edges. On a
    68-edge graph listed in shuffled order, so that position is not id
    order, with a pendant leaf carrying a loop, two isolated vertices (one
    looped) and two components, it matches psi_enum: every coefficient 1,
    and the pruned pendant edge still among the variables."""
    edges = []
    for u, w, count in (("a", "b", 15), ("b", "c", 15), ("a", "c", 15), ("x", "y", 10)):
        edges += [(u, w)] * count
    edges += [("t", "a"), ("t", "t"), ("i2", "i2")] + [(v, v) for v in "abcxyabcxy"]
    order = list(range(len(edges)))
    random.Random(0x64).shuffle(order)
    g = Multigraph(
        ["a", "b", "c", "t", "i1", "i2", "x", "y"],
        [Edge(f"e{i:02d}", *edges[i]) for i in order],
    )
    assert len(g.edge_ids) == 68 and list(g.edge_ids) != sorted(g.edge_ids)
    p = psi_delcon(g)
    # e55 is the pendant edge, pruned before the engine runs; e56 its leaf's loop
    assert p.variables == frozenset(g.edge_ids)
    assert all("e55" not in mono and "e56" in mono for mono in p.terms)
    assert set(p.terms.values()) == {1} and len(p.terms) == 675 * 10
    assert p.terms == psi_enum(g).terms


def test_delcon_on_a_1200_edge_path():
    """A 1,200-edge path is one pendant tree, pruned in one pass without
    recursion before the engine's loop starts."""
    assert psi_delcon(path_graph(1200)).terms == {frozenset(): 1}


def test_delcon_on_a_1200_loop_chain():
    """The engine's stack is its own, so a minor chain longer than the
    interpreter's recursion limit still finishes: one vertex with 1,200
    loops is 1,200 nested loop deletions, which pruning cannot shorten.
    psi_delcon charges its monomial count on the graph without its loops,
    not through a 1,200 x 1,200 Gram determinant, so it finishes too.
    Under psi_delcon's mask rule the one monomial is the 1,200-bit mask
    with every bit set."""
    g = Multigraph(["v"], [Edge(f"e{i}", "v", "v") for i in range(1, 1201)])
    assert total_volume(g) == 1
    bit = {eid: 1 << i for i, eid in enumerate(g.edge_ids)}
    masks = _delcon(g, (0,), lambda e, ms: tuple([m | bit[e] for m in ms]))
    assert masks == ((1 << 1200) - 1,)
    start = time.perf_counter()
    assert psi_delcon(g).terms == {frozenset(g.edge_ids): 1}
    assert time.perf_counter() - start < 1.0


def _relabelled(graph, ids, rng=None):
    """graph with its i-th edge renamed ids[i], the edges listed in an
    order shuffled by rng when one is given."""
    edges = [Edge(i, e.head, e.tail) for i, e in zip(ids, graph.edges)]
    if rng is not None:
        rng.shuffle(edges)
    return Multigraph(graph.vertices, edges)


def _count_steps(monkeypatch):
    """Count Multigraph.delete and contract calls into the returned list's
    only entry."""
    steps = [0]
    for name in ("delete", "contract"):
        method = getattr(Multigraph, name)

        def counted(self, eid, method=method):
            steps[0] += 1
            return method(self, eid)

        monkeypatch.setattr(Multigraph, name, counted)
    return steps


def test_delcon_cost_does_not_depend_on_edge_ids(monkeypatch):
    """Five labellings of the 4x4 grid: grid_graph's ids (every horizontal
    edge before every vertical one), row-major ids and three seeded
    shuffles, which also shuffle the order the edges are listed in.
    psi_delcon gives the same polynomial under each, and its engine makes
    about as many delete and contract calls."""
    g = grid_graph(4, 4)
    names = list(g.edge_ids)
    # row-major: each vertex's right edge, then its down edge, row by row,
    # which is the order of the (tail, head) names
    position = {(e.tail, e.head): k for k, e in enumerate(g.edges)}
    row_major = [None] * len(names)
    for n, pair in enumerate(sorted(position)):
        row_major[position[pair]] = f"r{n:02d}"
    labellings = [(names, None), (row_major, None)]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        shuffled = names[:]
        rng.shuffle(shuffled)
        labellings.append((shuffled, rng))
    steps = _count_steps(monkeypatch)
    expected = None
    counts = []
    for ids, rng in labellings:
        # a monomial as the bitmask of its edges' positions in g, which is
        # the same under every labelling and cheaper to build than a set
        bit = {eid: 1 << i for i, eid in enumerate(ids)}
        steps[0] = 0
        terms = psi_delcon(_relabelled(g, ids, rng)).terms
        counts.append(steps[0])
        terms = {sum(map(bit.__getitem__, mono)): c for mono, c in terms.items()}
        if expected is None:
            expected = terms
            assert len(terms) == 100352 and set(terms.values()) == {1}
        assert terms == expected
    assert counts == [421] * 5, counts


def test_pruning_turns_a_cycle_into_a_chain(monkeypatch):
    """Every deletion child of a cycle is a path, which pruning removes
    whole, so C_n costs a delete and a contract per edge down to the last
    loop, which is deleted: 2n - 1 steps."""
    steps = _count_steps(monkeypatch)
    for n in (3, 40):
        steps[0] = 0
        assert total_volume(cycle_graph(n)) == n
        assert steps[0] == 2 * n - 1


def _with_pendant_trees(rng, core):
    """core plus random trees hung off its vertices, some leaves carrying
    loops, and an isolated vertex or two, with or without a loop."""
    verts = list(core.vertices)
    edges = list(core.edges)
    for t in range(rng.randint(1, 6)):
        new = f"t{t}"
        edges.append(Edge(f"p{t}", new, rng.choice(verts)))
        verts.append(new)
        if rng.random() < 0.4:
            edges.append(Edge(f"l{t}", new, new))
    for i in range(rng.randint(0, 2)):
        verts.append(f"i{i}")
        if rng.random() < 0.5:
            edges.append(Edge(f"il{i}", f"i{i}", f"i{i}"))
    order = list(range(len(edges)))
    rng.shuffle(order)
    return Multigraph(verts, [edges[i] for i in order])


def test_pruning_agrees_with_brute_force():
    """Pendant trees with loops at some leaves, several components and
    isolated vertices: pruning strips only bridges, leaves no vertex of
    non-loop degree 1 and no edgeless vertex, and psi_delcon and
    total_volume still match brute force."""
    rng = random.Random(0x9E11)
    for trial in range(150):
        if trial % 2:
            core = disjoint_union(
                random_multigraph(rng, rng.randint(1, 3), rng.randint(0, 4)),
                random_multigraph(rng, rng.randint(1, 3), rng.randint(0, 4)),
            )
        else:
            core = random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 6))
        g = _with_pendant_trees(rng, core)
        pruned = _prune(g)
        kept = set(pruned.edge_ids)
        assert all(g.classify_edge(eid) == "bridge" for eid in g.edge_ids if eid not in kept)
        degree = dict.fromkeys(pruned.vertices, 0)
        looped = set()
        for e in pruned.edges:
            if e.head == e.tail:
                looped.add(e.head)
            else:
                degree[e.head] += 1
                degree[e.tail] += 1
        assert all(d >= 2 or (d == 0 and v in looped) for v, d in degree.items())
        assert all(e.head in degree and e.tail in degree for e in pruned.edges)
        assert psi_delcon(g).terms == brute_psi_terms(g)
        assert total_volume(g) == brute_forest_count(g)


def test_engine_prunes_to_a_fixed_point(monkeypatch):
    """Every _prune pass the engine makes, the root's and each deletion
    child's, leaves nothing for a second pass to strip, and the count still
    matches brute force. K5, K6 and the 3x4 grid take 149, 763 and 124
    delete and contract steps; the seeded graphs carry pendant trees, loops
    at leaves and isolated vertices, and their contractions leave leaves at
    merged vertices."""
    steps = _count_steps(monkeypatch)
    outputs = []

    def watched(graph, prune=_prune):
        out = prune(graph)
        outputs.append(out)
        return out

    monkeypatch.setattr(kirchhoff, "_prune", watched)
    rng = random.Random(0x57E9)
    graphs = [complete_graph(5), complete_graph(6), grid_graph(3, 4)]
    for _ in range(150):
        core = random_connected_multigraph(rng, 4, rng.randint(3, 8))
        graphs.append(_with_pendant_trees(rng, core))
    for i, g in enumerate(graphs):
        steps[0] = 0
        outputs.clear()
        assert total_volume(g) == brute_forest_count(g)
        assert outputs and all(_prune(out) is out for out in outputs)
        if i < 3:
            assert steps[0] == (149, 763, 124)[i]


def test_matrix_tree_dual_on_the_weighted_8x8_grid():
    """Row scaling keeps the Laplacian's entries small, so the 8x8 grid
    (64 vertices, 112 edges) agrees with the cycle Gram determinant."""
    g = grid_graph(8, 8)
    w = {e: i % 5 + 1 for i, e in enumerate(sorted(g.edge_ids))}
    value = matrix_tree_dual(g, w)
    assert value == psi_det(g, w) and value.denominator == 1
    half = {e: Fraction(x, 2) for e, x in w.items()}
    assert matrix_tree_dual(g, half) == Fraction(value, 2 ** g.betti1())
