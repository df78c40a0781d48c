"""Finite oriented multigraphs: minors, forests, cycle spaces, fragmentations.

Vertices and edges carry string ids. Loops and parallel edges are allowed.
The boundary convention throughout the package is d(e) = [head(e)] - [tail(e)].
All graph values are immutable; every operation returns a new graph.
"""

from __future__ import annotations

import math
import os
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence


class DomainError(ValueError):
    """Invalid input to a library operation. The CLI maps this to exit code 1."""


class UnknownEdgeError(DomainError):
    """An edge id that is not present in the graph."""


class LoopContractionError(DomainError):
    """Contraction of a loop is rejected; delete it instead."""


class BudgetExceededError(DomainError):
    """An enumeration would exceed the configured size budget."""


DEFAULT_BUDGET = 2_000_000


def check_int(value, what: str, minimum: int | None = None) -> int:
    """Return value if it is an int (not a bool) of at least minimum, else raise DomainError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer")
    if minimum is not None and value < minimum:
        raise DomainError(f"{what} must be >= {minimum}")
    return value


def check_keys(mapping, ids: Collection, what: str) -> None:
    """Raise DomainError unless mapping is a mapping whose keys are exactly ids."""
    if not isinstance(mapping, Mapping):
        raise DomainError(f"{what} must be a mapping")
    known = set(ids)
    for key in mapping:
        if key not in known:
            raise DomainError(f"{what} given for unknown id {key!r}")
    if len(mapping) != len(known):
        missing = next(i for i in ids if i not in mapping)
        raise DomainError(f"{what} missing for {missing!r}")


def int_map(mapping, ids: Collection, what: str, minimum: int | None = None) -> dict:
    """A dict copy of mapping, whose keys must be exactly ids and whose values
    must pass check_int; values are checked in the mapping's own order."""
    check_keys(mapping, ids, what)
    out = dict(mapping)
    for key, value in out.items():
        # a plain int at or above minimum passes without building the message
        if value.__class__ is not int or (minimum is not None and value < minimum):
            check_int(value, f"{what} for {key!r}", minimum)
    return out


# a refusal prints an int of at most this many bits exactly, and a longer one
# as a lower bound: CPython refuses to print an int of over 4300 digits
_EXACT_BITS = 1000


def _amount(n: int) -> str:
    return str(n) if n.bit_length() <= _EXACT_BITS else f"at least 2^{n.bit_length() - 1}"


def charge(need: int, what: str, budget: int | None = None) -> int:
    """Resolve the cap through enumeration_budget and raise BudgetExceededError
    if need is over it. Returns the cap, so a later charge can pass it on."""
    cap = enumeration_budget(budget)
    if need > cap:
        raise BudgetExceededError(f"{what}: {_amount(need)} needed, budget is {_amount(cap)}")
    return cap


def enumeration_budget(budget: int | None = None) -> int:
    """Resolve the enumeration cap: explicit argument, then HYPERKIRCH_BUDGET, then default."""
    if budget is not None:
        return check_int(budget, "budget", 1)
    raw = os.environ.get("HYPERKIRCH_BUDGET")
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise DomainError(f"HYPERKIRCH_BUDGET is not an integer: {raw!r}") from exc
        return check_int(value, "HYPERKIRCH_BUDGET", 1)
    return DEFAULT_BUDGET


def _record(cls):
    """Make cls a frozen record of the fields its own annotations name, in order.

    A class attribute of a field's name is that field's default. The class
    gains an __init__ that takes the fields by position or by name and then
    runs __post_init__ if the class has one; __eq__ and __hash__ over the
    tuple of field values, a record comparing equal only to a record of its
    own class; and a __repr__ that shows every field. Setting or deleting an
    attribute of an instance raises AttributeError.

    __init__, __eq__ and __hash__ are compiled from source, so missing,
    repeated and unexpected arguments raise the interpreter's own TypeError
    and each call costs what a hand-written method does.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    body = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"

    def values(obj):
        return "(" + "".join(f"{obj}.{n}, " for n in names) + ")"

    namespace = {"_set": object.__setattr__, "_defaults": defaults}
    exec(
        f"def __init__(self{params}):\n{body or '    pass'}\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {values('self')} == {values('other')}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash({values('self')})\n",
        namespace,
    )

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    generated = (namespace["__init__"], namespace["__eq__"], namespace["__hash__"])
    for method in (*generated, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def _find(parent: dict, x):
    """Root of x in a union-find parent map, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class Edge(NamedTuple):
    id: str
    head: str
    tail: str


class Multigraph:
    """Oriented multigraph on string ids.

    Vertex ids and edge ids each live in their own namespace and must be
    unique within it. Insertion order of vertices and edges is preserved and
    participates in equality; all derived quantities are order independent.
    """

    __slots__ = ("vertices", "edges", "_by_id")

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple]):
        vs = tuple(str(v) for v in vertices)
        if len(set(vs)) != len(vs):
            raise DomainError("duplicate vertex ids")
        vset = set(vs)
        es = []
        seen = set()
        for raw in edges:
            e = raw if isinstance(raw, Edge) else Edge(str(raw[0]), str(raw[1]), str(raw[2]))
            if e.id in seen:
                raise DomainError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            if e.head not in vset or e.tail not in vset:
                raise DomainError(f"edge {e.id!r} has an endpoint outside the vertex set")
            es.append(e)
        self.vertices = vs
        self.edges = tuple(es)
        self._by_id = {e.id: e for e in self.edges}

    @classmethod
    def _minor(cls, vertices: tuple, edges: tuple) -> "Multigraph":
        """A graph from tuples already known to be valid, without the checks of __init__.

        Used for deletions and contractions: a minor of a valid graph is valid.
        """
        g = object.__new__(cls)
        g.vertices = vertices
        g.edges = edges
        g._by_id = {e.id: e for e in edges}
        return g

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Multigraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    # basic accessors

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge id {edge_id!r}") from None

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    # connectivity

    def components(self) -> list[frozenset[str]]:
        """Connected components as vertex sets, sorted by smallest member."""
        parent = {v: v for v in self.vertices}
        for e in self.edges:
            a, b = _find(parent, e.head), _find(parent, e.tail)
            if a != b:
                parent[a] = b
        groups: dict[str, set[str]] = {}
        for v in self.vertices:
            groups.setdefault(_find(parent, v), set()).add(v)
        return sorted((frozenset(g) for g in groups.values()), key=min)

    def n_components(self) -> int:
        return len(self.components())

    def is_connected(self) -> bool:
        return self.n_components() <= 1

    def betti1(self) -> int:
        """First Betti number |E| - |V| + #components."""
        return len(self.edges) - len(self.vertices) + self.n_components()

    # minors

    def classify_edge(self, edge_id: str) -> str:
        """One of 'loop', 'bridge', 'ordinary'.

        A non-loop edge is a bridge iff its endpoints are not joined by the
        other edges, which one union-find pass over them decides.
        """
        _, head, tail = self.edge(edge_id)
        if head == tail:
            return "loop"
        parent = {v: v for v in self.vertices}
        for x, a, b in self.edges:
            if x != edge_id:
                a, b = _find(parent, a), _find(parent, b)
                if a != b:
                    parent[a] = b
        if _find(parent, head) != _find(parent, tail):
            return "bridge"
        return "ordinary"

    def delete(self, edge_id: str) -> "Multigraph":
        self.edge(edge_id)
        return Multigraph._minor(self.vertices, tuple([e for e in self.edges if e.id != edge_id]))

    def contract(self, edge_id: str) -> "Multigraph":
        """Contract a non-loop edge, merging its endpoints into the smaller id."""
        e = self.edge(edge_id)
        if e.head == e.tail:
            raise LoopContractionError(f"edge {edge_id!r} is a loop and cannot be contracted")
        keep, drop = (e.head, e.tail) if e.head < e.tail else (e.tail, e.head)
        vs = tuple([v for v in self.vertices if v != drop])
        es = tuple([
            x if x.head != drop and x.tail != drop
            else Edge(x.id, keep if x.head == drop else x.head, keep if x.tail == drop else x.tail)
            for x in self.edges
            if x.id != edge_id
        ])
        return Multigraph._minor(vs, es)

    # forests and cycles

    def spanning_forest(self) -> frozenset[str]:
        """The maximal spanning forest picked greedily in ascending edge id order."""
        parent = {v: v for v in self.vertices}
        chosen = []
        for e in sorted(self.edges, key=lambda e: e.id):
            if e.head == e.tail:
                continue
            a, b = _find(parent, e.head), _find(parent, e.tail)
            if a != b:
                parent[a] = b
                chosen.append(e.id)
        return frozenset(chosen)

    def spanning_forests(self, budget: int | None = None) -> set[frozenset[str]]:
        """All maximal spanning forests, as sets of edge ids.

        A maximal forest has |V| - #components edges, never contains a loop,
        and restricts to a spanning tree of every component.

        The forests are enumerated by backtracking: non-loop edges are tried
        in ascending position, an edge that would close a cycle is skipped,
        and a branch ends once too few edges remain to reach the forest size.
        The budget still counts the candidate subsets C(#non-loop edges,
        forest size), checked before any work, so the cap means the same as
        for a subset scan.
        """
        nonloop = [e for e in self.edges if e.head != e.tail]
        size = len(self.vertices) - self.n_components()
        candidates = math.comb(len(nonloop), size) if size <= len(nonloop) else 0
        charge(candidates, "forest enumeration candidate subsets", budget)
        index = {v: i for i, v in enumerate(self.vertices)}
        ends = [(index[e.head], index[e.tail]) for e in nonloop]
        n = len(ends)
        # no path compression: undoing a link must restore a single slot
        parent = list(range(len(self.vertices)))
        forests: set[frozenset[str]] = set()
        chosen: list[tuple[int, int]] = []  # (edge position, root it was linked from)
        pos = 0
        while True:
            if len(chosen) == size:
                forests.add(frozenset(nonloop[i].id for i, _ in chosen))
            elif n - pos >= size - len(chosen):
                a, b = ends[pos]
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a != b:
                    parent[a] = b
                    chosen.append((pos, a))
                pos += 1
                continue
            if not chosen:
                break
            i, a = chosen.pop()
            parent[a] = a
            pos = i + 1
        return forests

    def _check_forest(self, forest: Iterable[str]) -> frozenset[str]:
        ids = frozenset(forest)
        for eid in ids:
            self.edge(eid)
        if len(ids) != len(self.vertices) - self.n_components():
            raise DomainError("not a maximal spanning forest: wrong edge count")
        if any(self._by_id[eid].head == self._by_id[eid].tail for eid in ids):
            raise DomainError("not a maximal spanning forest: contains a loop")
        return ids

    def _rooted(self, forest: frozenset[str]) -> tuple[list, dict, dict]:
        """Root each tree of a forest at its least vertex, by one BFS per tree.

        Returns the vertices in visiting order (every tree after the trees of
        smaller roots, each vertex after its parent), up[v] = (parent, edge)
        for every non-root vertex v, and each vertex's depth. A forest edge
        that would close a cycle is left out of up.
        """
        adj: dict[str, list[tuple[str, Edge]]] = {v: [] for v in self.vertices}
        for eid in sorted(forest):
            e = self._by_id[eid]
            adj[e.tail].append((e.head, e))
            adj[e.head].append((e.tail, e))
        order: list[str] = []
        up: dict[str, tuple[str, Edge]] = {}
        depth: dict[str, int] = {}
        for root in sorted(self.vertices):
            if root in depth:
                continue
            depth[root] = 0
            tree = [root]
            for cur in tree:  # the loop also visits what it appends
                for nxt, e in adj[cur]:
                    if nxt not in depth:
                        depth[nxt] = depth[cur] + 1
                        up[nxt] = (cur, e)
                        tree.append(nxt)
            order += tree
        return order, up, depth

    def cycle_basis(self, forest: Iterable[str] | None = None) -> list[dict[str, int]]:
        """Fundamental cycles of a maximal spanning forest.

        Returns betti1 integer edge vectors, each with keys exactly the edge
        ids. Cycles are listed by ascending non-forest edge id, and each
        carries coefficient +1 on its own non-forest edge and 0 on every
        other non-forest edge. Forest edges are signed so that the boundary
        of each cycle vanishes. When no forest is given the deterministic
        greedy forest is used.
        """
        ids = self.spanning_forest() if forest is None else self._check_forest(forest)
        _, up, depth = self._rooted(ids)
        if len(up) != len(ids):
            raise DomainError("not a maximal spanning forest: contains a cycle")
        cycles = []
        for ceid in sorted(eid for eid in self._by_id if eid not in ids):
            chord = self._by_id[ceid]
            coeffs = dict.fromkeys(self._by_id, 0)
            coeffs[ceid] = 1
            # close the chord by the tree path from its head to its tail,
            # climbing from both ends to their common ancestor; a forest edge
            # walked from its tail to its head enters with +1, else -1
            a, b = chord.head, chord.tail
            while a != b:
                if depth[a] >= depth[b]:
                    parent, e = up[a]
                    coeffs[e.id] = 1 if e.tail == a else -1
                    a = parent
                else:
                    parent, e = up[b]
                    coeffs[e.id] = 1 if e.head == b else -1
                    b = parent
            cycles.append(coeffs)
        return cycles

    def boundary(self, chain: Mapping[str, int]) -> dict[str, int]:
        """Boundary of an integer edge chain: d(e) = [head] - [tail], extended linearly.

        The chain must assign an integer coefficient to every edge id.
        """
        out = {v: 0 for v in self.vertices}
        for eid, a in int_map(chain, self._by_id, "edge-chain coefficient").items():
            e = self._by_id[eid]
            out[e.head] += a
            out[e.tail] -= a
        return out

    # fragmentation

    def fragment(self, counts: Mapping[str, int]) -> "Multigraph":
        """Subdivide each edge e into counts[e] edges in series.

        counts must assign a positive integer to every edge id. An edge with
        count 1 is kept unchanged; an edge with count n is replaced by a path
        of n edges through n - 1 fresh interior vertices, oriented from the
        old tail to the old head. New ids are derived as '<edge>.<i>'. The
        result's edge count, the sum of the counts, is charged to the
        enumeration budget before anything is built.
        """
        counts = int_map(counts, self._by_id, "fragmentation count", 1)
        charge(sum(counts.values()), "fragment edges")
        vs = list(self.vertices)
        es: list[Edge] = []
        for e in self.edges:
            n = counts[e.id]
            if n == 1:
                es.append(e)
                continue
            inner = [f"{e.id}.{i}" for i in range(1, n)]
            vs.extend(inner)
            stops = [e.tail] + inner + [e.head]
            for i in range(n):
                es.append(Edge(f"{e.id}.{i + 1}", stops[i + 1], stops[i]))
        return Multigraph(vs, es)


# functional forms of the core operations, for callers that prefer them

def delete(graph: Multigraph, eid: str) -> Multigraph:
    return graph.delete(eid)


def contract(graph: Multigraph, eid: str) -> Multigraph:
    return graph.contract(eid)


def classify_edge(graph: Multigraph, eid: str) -> str:
    return graph.classify_edge(eid)


def betti1(graph: Multigraph) -> int:
    return graph.betti1()


def spanning_forests(graph: Multigraph) -> set:
    return graph.spanning_forests()


def cycle_basis(graph: Multigraph) -> list:
    return graph.cycle_basis()


def boundary(graph: Multigraph, chain) -> dict:
    return graph.boundary(chain)


def fragment(graph: Multigraph, counts) -> Multigraph:
    return graph.fragment(counts)
