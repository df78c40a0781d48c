"""Four independent routes to the weighted spanning forest polynomial.

The polynomial of a multigraph is the sum, over maximal spanning forests,
of the product of the variables of the edges NOT in the forest. It is
multilinear with 0/1 coefficients and homogeneous of degree betti1.

Engines:
  psi_enum     direct forest enumeration
  psi_delcon   deletion-contraction recursion with memoization
  psi_det      evaluation as the cycle Gram determinant
  matrix_tree_dual   evaluation via the reciprocal-weight Laplacian

psi_delcon and volumes.total_volume share one deletion-contraction engine,
_delcon, with a polynomial and with an integer rule. It removes edges in an
order fixed once per call by a breadth-first layering of the graph
(_ordered_core), so its cost depends on the graph's structure, not on its
edge ids. It strips pendant trees (_prune), which carry no variable, from
the graph and from every deletion child.

psi_delcon's rule carries a polynomial as a tuple of int bitmasks, one per
monomial. Psi has 0/1 coefficients, and in x_e Psi(G - e) + Psi(G / e)
only the first branch's monomials contain x_e (Bogner and Weinzierl,
Feynman graph polynomials, 2010), so a split is a concatenation that
never merges two monomials.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

from .graphs import DomainError, Edge, Multigraph, charge, check_int, check_keys
from .lattice import _det_bareiss, tau_matrix
from .poly import MultilinearPoly

if TYPE_CHECKING:  # annotations only: the CLI's psi runs without fractions
    from fractions import Fraction


def psi_enum(graph: Multigraph) -> MultilinearPoly:
    """Forest-complement polynomial by direct enumeration of maximal forests."""
    all_ids = frozenset(graph.edge_ids)
    terms = {all_ids - forest: 1 for forest in graph.spanning_forests()}
    return MultilinearPoly.from_terms(all_ids, terms)


def _ordered_core(graph: Multigraph) -> Multigraph:
    """The graph _delcon starts from: pruned, with its edges in elimination order.

    Every component is laid out by a breadth-first search from a
    pseudo-peripheral vertex (Cuthill-McKee): start at a vertex of least
    degree, search to a farthest vertex of least degree, and repeat while the
    depth grows. The search visits neighbours by ascending degree. An edge is
    ranked by the lower and then the higher position of its endpoints, so
    the minors' frontier, the vertices that touch both removed and remaining
    edges, stays about one breadth-first layer wide. A degree counts distinct
    neighbours; ids are only the last tie-break, of vertices and of parallel
    edges.
    """
    graph = _prune(graph)
    adj: dict[str, set[str]] = {v: set() for v in graph.vertices}
    for e in graph.edges:
        if e.head != e.tail:
            adj[e.head].add(e.tail)
            adj[e.tail].add(e.head)

    def key(v):
        return (len(adj[v]), v)

    near = {v: sorted(ws, key=key) for v, ws in adj.items()}

    def search(root):
        order, depth = [root], {root: 0}
        for v in order:  # the loop also visits what it appends
            for w in near[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    order.append(w)
        return order, depth

    position: dict[str, int] = {}
    for start in sorted(graph.vertices, key=key):
        if start in position:
            continue
        order, depth = search(start)
        while True:
            far = depth[order[-1]]
            order, depth = search(min((v for v in order if depth[v] == far), key=key))
            if depth[order[-1]] <= far:
                break
        for v in order:
            position[v] = len(position)

    def rank(e):
        a, b = position[e.head], position[e.tail]
        return (a, b, e.id) if a <= b else (b, a, e.id)

    return Multigraph._minor(graph.vertices, tuple(sorted(graph.edges, key=rank)))


def _prune(graph: Multigraph) -> Multigraph:
    """The graph less its pendant trees and its edgeless vertices.

    Strips, repeatedly, each non-loop edge with an endpoint of non-loop
    degree 1, and drops every vertex left with no edge; a leaf that carries
    a loop keeps its vertex. Returns graph itself when there is nothing to
    strip.
    """
    degree = dict.fromkeys(graph.vertices, 0)
    looped = set()
    for _, head, tail in graph.edges:
        if head == tail:
            looped.add(head)
        else:
            degree[head] += 1
            degree[tail] += 1
    leaves = [v for v, d in degree.items() if d == 1]
    if not leaves and all(d or v in looped for v, d in degree.items()):
        return graph
    stripped: set[Edge] = set()
    if leaves:
        incident: dict[str, list[Edge]] = {v: [] for v in graph.vertices}
        for e in graph.edges:
            _, head, tail = e
            if head != tail:
                incident[head].append(e)
                incident[tail].append(e)
        while leaves:
            v = leaves.pop()
            if degree[v] != 1:
                continue  # its edge went with the other end, a two-vertex tree
            for e in incident[v]:
                if e not in stripped:
                    break
            stripped.add(e)
            _, head, tail = e
            u = tail if head == v else head
            degree[v] = 0
            degree[u] -= 1
            if degree[u] == 1:
                leaves.append(u)
    return Multigraph._minor(
        tuple(v for v in graph.vertices if degree[v] or v in looped),
        tuple(e for e in graph.edges if e not in stripped),
    )


def _delcon(graph: Multigraph, one, split):
    """The deletion-contraction recursion, valued by the caller's one rule.

    An edgeless minor is worth one. Otherwise its first edge e is
    classified: an ordinary edge gives split(e, deleted, contracted), a
    bridge is contracted and keeps its minor's value, and a loop is a split
    with nothing contracted, split(e, deleted), since a loop lies in no
    forest. The first edge is the least one in the elimination order
    that _ordered_core fixes once per call from the graph's structure, so
    the cost depends on the graph and not on its edge ids.

    Pendant trees are stripped by _prune, from the graph before the loop
    and from every deletion child of an ordinary edge, where most leaves
    appear. A leaf left at a contraction's merged vertex is removed either
    by the bridge rule or by a later deletion child's pass. Every stripped
    edge is a bridge: it lies in every maximal forest and in no monomial,
    so the minor without it has the same polynomial and the same forest
    count, which is the value the bridge rule would give. Dropping an
    edgeless vertex changes neither. So pruning never decides the answer,
    only the number of steps.

    Repeated minors are shared through memo, keyed on the minor's vertex and
    edge tuples as they stand. The key is canonical for the labelled minor:
    the edges are put in elimination order once, delete, contract and
    _prune keep the surviving vertices and edges in order, and a
    contraction keeps the smaller endpoint id, so each merged vertex is
    named by the smallest id it absorbed, whatever the order of the steps
    that reached it.

    The recursion runs on an explicit stack, so its depth is not bounded by
    the interpreter's: a minor is expanded into its children on its first
    pop, and valued from their memo entries when it is popped again.
    """
    root = _ordered_core(graph)
    memo: dict = {}
    # a frame is (graph, None) until expanded, then (key, plan), whose plan
    # keeps the children's keys but not the child graphs
    stack: list = [(root, None)]
    while stack:
        item, plan = stack.pop()
        if plan is None:
            key = (item.vertices, item.edges)
            if key in memo:
                continue
            if not item.edges:
                memo[key] = one
                continue
            e = item.edges[0].id
            kind = item.classify_edge(e)
            if kind == "ordinary":
                deleted = _prune(item.delete(e))
                contracted = item.contract(e)
                keys = ((deleted.vertices, deleted.edges), (contracted.vertices, contracted.edges))
                stack.append((key, (e, kind, keys)))
                stack.append((contracted, None))
                stack.append((deleted, None))
                continue
            # one child: a loop is deleted, a bridge contracted
            child = item.delete(e) if kind == "loop" else item.contract(e)
            stack.append((key, (e, kind, (child.vertices, child.edges))))
            stack.append((child, None))
        else:
            e, kind, keys = plan
            if kind == "loop":
                memo[item] = split(e, memo[keys])
            elif kind == "bridge":
                memo[item] = memo[keys]
            else:
                memo[item] = split(e, memo[keys[0]], memo[keys[1]])
    return memo[(root.vertices, root.edges)]


def psi_delcon(graph: Multigraph) -> MultilinearPoly:
    """Forest-complement polynomial by deletion and contraction.

    The edgeless minor is the constant 1, a loop e multiplies every monomial
    by x_e, and an ordinary edge e gives x_e * P(delete) + P(contract).
    total_volume is the same engine with an integer rule.

    The engine carries a polynomial as a tuple of masks, one per monomial,
    bit i standing for the i-th edge of graph.edges; the constant 1 is (0,).
    A loop ORs its bit into every mask. A split sets e's bit in the deleted
    branch's masks and appends the contracted branch's, which lack it, so
    every coefficient stays 1. The masks become frozensets once, at the end.

    The budget is charged the monomial count before the recursion starts:
    the maximal forest count, read off as the unit-weight Gram determinant
    of the graph without its loops. A loop lies in no forest, so dropping
    it keeps the count and saves a row and a column per loop.
    """
    loopless = Multigraph._minor(graph.vertices, tuple(e for e in graph.edges if e.head != e.tail))
    charge(psi_det(loopless, dict.fromkeys(loopless.edge_ids, 1)), "psi_delcon monomials")
    ids = graph.edge_ids
    bit = {eid: 1 << i for i, eid in enumerate(ids)}

    def split(e, deleted, contracted=()):  # a loop is a split with nothing contracted
        b = bit[e]
        return (*[m | b for m in deleted], *contracted)

    masks = _delcon(graph, (0,), split)
    # a monomial is the union of the frozensets of its mask's low and high
    # halves, each decoded once: a large Psi has far fewer distinct halves
    # than masks (6,750 against 100,352 on the 4x4 grid)
    low = (1 << len(ids) // 2) - 1
    halves = {m & low for m in masks} | {m & ~low for m in masks}
    sets = {h: frozenset(eid for eid, b in bit.items() if h & b) for h in halves}
    return MultilinearPoly.from_terms(ids, {sets[m & low] | sets[m & ~low]: 1 for m in masks})


def psi_det(graph: Multigraph, weights: Mapping[str, int]) -> int:
    """Value of the forest-complement polynomial as the cycle Gram determinant."""
    return tau_matrix(graph, weights).det()


def matrix_tree_dual(graph: Multigraph, weights: Mapping[str, Fraction]) -> Fraction:
    """Value of the forest-complement polynomial via the weighted matrix-tree theorem.

    For a connected graph and positive weights, each an int or a Fraction,
    the spanning tree sum with reciprocal weights 1/x_e times the product P
    of all x_e equals the forest-complement sum. Loops drop out of the
    Laplacian but their variables still multiply every monomial.

    Computed over the integers. Rational weights are scaled by the lcm d of
    their denominators, since Psi(d x) = d^betti1 Psi(x). Each row of the
    reduced Laplacian is then scaled by the product s_v of the weights of
    the non-loop edges at its vertex v, which makes every entry an integer,
    and Psi = P * det(scaled rows) / prod s_v is one exact division.
    """
    from fractions import Fraction  # off the import of kirchhoff
    if not graph.is_connected():
        raise DomainError("matrix_tree_dual requires a connected graph")
    check_keys(weights, graph.edge_ids, "weight")
    w = {}
    for eid, x in weights.items():
        if not isinstance(x, Fraction):
            x = check_int(x, f"weight for {eid!r}")
        if x <= 0:
            raise DomainError(f"weight for {eid!r} must be positive")
        w[eid] = x
    d = math.lcm(*(x.denominator for x in w.values()))
    w = {eid: x.numerator * (d // x.denominator) for eid, x in w.items()}
    verts = sorted(graph.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    links = [(w[eid], idx[head], idx[tail]) for eid, head, tail in graph.edges if head != tail]
    scale = [1] * len(verts)
    for x, i, j in links:
        scale[i] *= x
        scale[j] *= x
    rows = [[0] * len(verts) for _ in verts]
    for x, i, j in links:
        for a, b in ((i, j), (j, i)):
            r = scale[a] // x
            rows[a][a] += r
            rows[a][b] -= r
    # the first vertex's row and column are the ones the reduction drops
    det = _det_bareiss([row[1:] for row in rows[1:]])
    psi, rest = divmod(math.prod(w.values()) * det, math.prod(scale[1:]))
    assert rest == 0
    # the exponent is betti1 of a connected graph; with no vertex there is
    # no edge either, and then d is 1
    return Fraction(psi, d ** (len(graph.edges) - len(graph.vertices) + 1))
