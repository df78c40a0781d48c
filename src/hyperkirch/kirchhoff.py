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
_delcon, with polynomial and with integer rules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .graphs import DomainError, Multigraph, charge, check_int, check_keys
from .lattice import _det_bareiss, tau_matrix
from .poly import MultilinearPoly

def psi_enum(graph: Multigraph) -> MultilinearPoly:
    """Forest-complement polynomial by direct enumeration of maximal forests."""
    all_ids = frozenset(graph.edge_ids)
    terms = {all_ids - forest: 1 for forest in graph.spanning_forests()}
    return MultilinearPoly.from_terms(all_ids, terms)


def _delcon(graph: Multigraph, memo: dict, empty, loop, split):
    """The deletion-contraction recursion, valued by the caller's three rules.

    An edgeless minor is worth empty. Otherwise the smallest edge id e is
    classified once: a loop is deleted and its value passed to loop(e, v), a
    bridge is contracted, and an ordinary edge gives split(e, deleted,
    contracted).

    Repeated minors are shared through memo, keyed on the minor's vertex and
    edge tuples as they stand, unsorted. The key is canonical for the
    labelled minor: delete and contract keep the surviving vertices and
    edges in their original order, and a contraction keeps the smaller
    endpoint id, so each merged vertex is named by the smallest id it
    absorbed, whatever the order of the steps that reached it.

    The recursion runs on an explicit stack, so its depth is not bounded by
    the interpreter's: a minor is expanded into its children on its first
    pop, and valued from their memo entries when it is popped again.
    """
    stack: list = [(graph, None)]
    while stack:
        item, plan = stack.pop()
        if plan is None:
            key = (item.vertices, item.edges)
            if key in memo:
                continue
            if not item.edges:
                memo[key] = empty
                continue
            e = min(x.id for x in item.edges)
            kind = item.classify_edge(e)
            if kind == "loop":
                children = (item.delete(e),)
            elif kind == "bridge":
                children = (item.contract(e),)
            else:
                children = (item.delete(e), item.contract(e))
            # a frame is (graph, None) until expanded, then (key, plan), which
            # keeps the children's keys but not the child graphs
            stack.append((key, (e, kind, [(c.vertices, c.edges) for c in children])))
            stack.extend((c, None) for c in reversed(children))
        else:
            e, kind, keys = plan
            if kind == "loop":
                memo[item] = loop(e, memo[keys[0]])
            elif kind == "bridge":
                memo[item] = memo[keys[0]]
            else:
                memo[item] = split(e, memo[keys[0]], memo[keys[1]])
    return memo[(graph.vertices, graph.edges)]


def _times_x(e: str, terms: dict) -> dict:
    return {mono | {e}: c for mono, c in terms.items()}


def _split_terms(e: str, deleted: dict, contracted: dict) -> dict:
    # monomials from the deleted branch all contain e, those from the
    # contracted branch never do, so the union is collision free
    return {**_times_x(e, deleted), **contracted}


def psi_delcon(graph: Multigraph) -> MultilinearPoly:
    """Forest-complement polynomial by deletion and contraction.

    The edgeless minor is the constant 1, a loop e multiplies every monomial
    by x_e, and an ordinary edge e gives x_e * P(delete) + P(contract).
    total_volume is the same engine with integer rules.

    The budget is charged the monomial count before the recursion starts:
    the maximal forest count, read off as the unit-weight Gram determinant.
    """
    charge(psi_det(graph, dict.fromkeys(graph.edge_ids, 1)), "psi_delcon monomials")
    terms = _delcon(graph, {}, {frozenset(): 1}, _times_x, _split_terms)
    return MultilinearPoly.from_terms(frozenset(graph.edge_ids), terms)


def psi_det(graph: Multigraph, weights: Mapping[str, int]) -> int:
    """Value of the forest-complement polynomial as the cycle Gram determinant."""
    return tau_matrix(graph, weights).det()


def matrix_tree_dual(graph: Multigraph, weights: Mapping[str, Fraction]) -> Fraction:
    """Value of the forest-complement polynomial via the weighted matrix-tree theorem.

    For a connected graph and positive weights, each an int or a Fraction,
    the spanning tree sum with reciprocal weights 1/x_e times the product P
    of all x_e equals the forest-complement sum. Loops drop out of the
    Laplacian but their variables still multiply every monomial.

    Computed exactly: with A = P * L the reduced block of A has entries that
    are signed sums of products of all-but-one weight, so after clearing one
    common denominator the determinant is a fraction-free integer problem,
    and the answer is det(A_reduced) / P^(n-2).
    """
    if not graph.is_connected():
        raise DomainError("matrix_tree_dual requires a connected graph")
    check_keys(weights, graph.edge_ids, "weight")
    w: dict[str, Fraction] = {}
    for eid, x in weights.items():
        if not isinstance(x, Fraction):
            x = Fraction(check_int(x, f"weight for {eid!r}"))
        if x <= 0:
            raise DomainError(f"weight for {eid!r} must be positive")
        w[eid] = x
    prod = Fraction(1)
    for x in w.values():
        prod *= x
    verts = sorted(graph.vertices)
    n = len(verts)
    if n <= 1:
        return prod
    idx = {v: i for i, v in enumerate(verts)}
    scaled = [[Fraction(0)] * n for _ in range(n)]
    for e in graph.edges:
        if e.head == e.tail:
            continue
        r = prod / w[e.id]
        i, j = idx[e.head], idx[e.tail]
        scaled[i][i] += r
        scaled[j][j] += r
        scaled[i][j] -= r
        scaled[j][i] -= r
    block = [row[1:] for row in scaled[1:]]
    common = math.lcm(*(x.denominator for row in block for x in row)) if block else 1
    ints = [[int(x * common) for x in row] for row in block]
    det_block = Fraction(_det_bareiss(ints), common ** (n - 1))
    return det_block / prod ** (n - 2)
