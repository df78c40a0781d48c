"""Shared graph builders and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: forest
counting goes through subset enumeration with a local union-find, and the
catalog of small multigraphs is generated from scratch. Exhaustive families
cover every isomorphism class on up to 3 vertices; larger sizes are sampled
with seeded RNGs so runs are reproducible.
"""

from __future__ import annotations

import itertools
import os
import random
from functools import lru_cache

import hyperkirch
from hyperkirch import Edge, Multigraph


def cli_env(extra: dict | None = None) -> dict:
    """Environment for a `python -m hyperkirch.cli` child process: the
    directory holding the imported package goes first on PYTHONPATH, so the
    child runs the same code without an install."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperkirch.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


# named small graphs


def loop_graph() -> Multigraph:
    return Multigraph(["v1"], [Edge("e1", "v1", "v1")])


def cycle_graph(n: int) -> Multigraph:
    """n-cycle; n = 1 is a single loop, n = 2 a doubled edge."""
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [
        Edge(f"e{i}", verts[i % n], verts[i - 1]) for i in range(1, n + 1)
    ]
    return Multigraph(verts, edges)


def theta_graph() -> Multigraph:
    return Multigraph(
        ["u", "v"],
        [Edge("e1", "u", "v"), Edge("e2", "u", "v"), Edge("e3", "u", "v")],
    )


def path_graph(n: int) -> Multigraph:
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [Edge(f"e{i}", verts[i], verts[i - 1]) for i in range(1, n)]
    return Multigraph(verts, edges)


def complete_graph(n: int) -> Multigraph:
    """K_n with zero-padded edge ids, so id order is the order of creation."""
    verts = [f"v{i}" for i in range(1, n + 1)]
    pairs = itertools.combinations(verts, 2)
    edges = [Edge(f"e{k:02d}", b, a) for k, (a, b) in enumerate(pairs, 1)]
    return Multigraph(verts, edges)


def grid_graph(rows: int, cols: int) -> Multigraph:
    """rows x cols grid; horizontal edges first, then vertical, ids zero-padded."""
    verts = [f"v{r}{c}" for r in range(rows) for c in range(cols)]
    edges = [(f"v{r}{c + 1}", f"v{r}{c}") for r in range(rows) for c in range(cols - 1)]
    edges += [(f"v{r + 1}{c}", f"v{r}{c}") for r in range(rows - 1) for c in range(cols)]
    return Multigraph(verts, [Edge(f"e{k:02d}", h, t) for k, (h, t) in enumerate(edges, 1)])


def disjoint_union(a: Multigraph, b: Multigraph) -> Multigraph:
    verts = [f"a.{v}" for v in a.vertices] + [f"b.{v}" for v in b.vertices]
    edges = [Edge(f"a.{e.id}", f"a.{e.head}", f"a.{e.tail}") for e in a.edges]
    edges += [Edge(f"b.{e.id}", f"b.{e.head}", f"b.{e.tail}") for e in b.edges]
    return Multigraph(verts, edges)


def random_multigraph(
    rng: random.Random, nv: int, ne: int, loops: bool = True
) -> Multigraph:
    verts = [f"v{i}" for i in range(1, nv + 1)]
    edges = []
    for i in range(1, ne + 1):
        head = rng.choice(verts)
        tail = rng.choice(verts)
        if not loops:
            while tail == head:
                tail = rng.choice(verts)
        edges.append(Edge(f"e{i}", head, tail))
    return Multigraph(verts, edges)


def random_connected_multigraph(rng: random.Random, nv: int, ne: int) -> Multigraph:
    """Spanning-path skeleton plus random extra edges, so ne >= nv - 1."""
    assert ne >= nv - 1
    verts = [f"v{i}" for i in range(1, nv + 1)]
    order = verts[:]
    rng.shuffle(order)
    edges = [Edge(f"e{i}", order[i], order[i - 1]) for i in range(1, nv)]
    for i in range(nv, ne + 1):
        edges.append(Edge(f"e{i}", rng.choice(verts), rng.choice(verts)))
    return Multigraph(verts, edges)


# independent union-find, used only by the oracles below


class _DSU:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def brute_component_count(graph: Multigraph) -> int:
    dsu = _DSU(graph.vertices)
    for e in graph.edges:
        dsu.union(e.head, e.tail)
    return len({dsu.find(v) for v in graph.vertices})


def brute_forests(graph: Multigraph) -> list[frozenset]:
    """All maximal spanning forests by direct combination scan."""
    size = len(graph.vertices) - brute_component_count(graph)
    nonloop = [e for e in graph.edges if e.head != e.tail]
    out = []
    for combo in itertools.combinations(nonloop, size):
        dsu = _DSU(graph.vertices)
        if all(dsu.union(e.head, e.tail) for e in combo):
            out.append(frozenset(e.id for e in combo))
    return out


def brute_forest_count(graph: Multigraph) -> int:
    return len(brute_forests(graph))


def brute_psi_terms(graph: Multigraph) -> dict[frozenset, int]:
    """Forest-complement monomials with coefficient 1, straight from the sets."""
    all_ids = frozenset(graph.edge_ids)
    return {all_ids - forest: 1 for forest in brute_forests(graph)}


def brute_psi_value(graph: Multigraph, weights) -> int:
    total = 0
    for mono in brute_psi_terms(graph):
        prod = 1
        for eid in mono:
            prod *= weights[eid]
        total += prod
    return total


# exhaustive catalog of multigraph isomorphism classes on <= 3 vertices


def _canonical_key(nv: int, pairs: tuple) -> tuple:
    best = None
    for perm in itertools.permutations(range(1, nv + 1)):
        mapped = sorted(
            (min(perm[a - 1], perm[b - 1]), max(perm[a - 1], perm[b - 1]))
            for a, b in pairs
        )
        key = tuple(mapped)
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=None)
def iso_catalog(max_edges: int, connected_only: bool = False) -> tuple:
    """One representative per isomorphism class, 1..3 vertices, <= max_edges edges.

    Undirected classes; each representative is oriented with tail <= head by
    vertex index. Includes disconnected graphs and isolated vertices unless
    connected_only is set.
    """
    reps = []
    for nv in (1, 2, 3):
        slots = [
            (a, b)
            for a in range(1, nv + 1)
            for b in range(a, nv + 1)
        ]
        seen = set()
        for ne in range(0, max_edges + 1):
            for combo in itertools.combinations_with_replacement(slots, ne):
                key = (nv, _canonical_key(nv, combo))
                if key in seen:
                    continue
                seen.add(key)
                verts = [f"v{i}" for i in range(1, nv + 1)]
                edges = [
                    Edge(f"e{i + 1}", f"v{b}", f"v{a}")
                    for i, (a, b) in enumerate(combo)
                ]
                g = Multigraph(verts, edges)
                if connected_only and brute_component_count(g) != 1:
                    continue
                reps.append(g)
    return tuple(reps)
