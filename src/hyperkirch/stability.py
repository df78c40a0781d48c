"""Stability combinatorics of edge-wise orbit data against a vertex character.

An orbit assignment gives every edge one of three shapes: Generic (its
character set is all integers), Segment(n) (characters in [N n, N (n+1)]),
or Point(n) (the single character N n). An assignment is semistable for a
vertex weight eta summing to zero when some integer edge vector c with
boundary d(c) = -eta has every c_e inside the edge's character set; this is
a circulation feasibility problem and is decided exactly by a max-flow
reduction (the incidence matrix is totally unimodular, so bounds can be
finite-boxed without losing solutions).

The weight eta is generic when no semistable assignment's Point edges
disconnect the graph; on a connected graph, when N divides eta(S) for no
bond side S (see is_generic). The semistable Segment assignments, taken
modulo translating their index vectors by N times the cycle lattice, form a
finite complex whose nodes are the translation classes and whose adjacency
records which boxes meet jointly; that complex is connected.

The complex's faces are decided by Hoffman's circulation inequality on every
bond side (Hoffman 1960; Schrijver, Combinatorial Optimization, Thm 11.2)
rather than by max-flows, which stay the route for single semistability
queries and the tests' oracle for the cut route.
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .graphs import DomainError, Multigraph, charge, check_int, check_keys, int_map


@dataclass(frozen=True)
class StabilityParam:
    """Integer vertex weight eta (summing to zero) and box scale N >= 1."""

    eta: dict
    N: int


@dataclass(frozen=True)
class EdgeOrbit:
    """Shape of one edge's orbit: kind in {'generic', 'segment', 'point'}.

    Segment and point orbits need an integer level; a generic orbit ignores it.
    """

    kind: str
    level: int | None = None

    def __post_init__(self):
        if self.kind in ("segment", "point"):
            check_int(self.level, f"{self.kind} level")
        elif self.kind != "generic":
            raise DomainError(f"unknown orbit kind {self.kind!r}")


def generic_orbit() -> EdgeOrbit:
    return EdgeOrbit("generic")


def segment_orbit(n: int) -> EdgeOrbit:
    return EdgeOrbit("segment", n)


def point_orbit(n: int) -> EdgeOrbit:
    return EdgeOrbit("point", n)


@dataclass(frozen=True)
class CharRange:
    """Closed integer interval, with None encoding an unbounded end."""

    lo: int | None
    hi: int | None


def delta_membership(k: int, m: int, N: int) -> str:
    """Position of the lattice point (k, m) against the N-scaled hull.

    The hull is spanned by the points (N (n^2 + n) / 2 + N, N n) over all
    integers n and is unbounded upward in k. With n = floor(m / N), the
    lower boundary above m has height N (n^2 + n) / 2 + N + (n + 1) (m - N n).
    Returns 'boundary', 'interior', or 'outside'.
    """
    check_int(k, "k")
    check_int(m, "m")
    check_int(N, "N", 1)
    n = m // N
    floor_k = N * (n * n + n) // 2 + N + (n + 1) * (m - N * n)
    if k == floor_k:
        return "boundary"
    return "interior" if k > floor_k else "outside"


def orbit_char_set(spec: Mapping[str, EdgeOrbit], N: int) -> dict[str, CharRange]:
    """Character interval of each edge orbit at box scale N."""
    check_int(N, "N", 1)
    out = {}
    for eid, orbit in spec.items():
        if not isinstance(orbit, EdgeOrbit):
            raise DomainError(f"orbit for {eid!r} is not an EdgeOrbit: {orbit!r}")
        if orbit.kind == "generic":
            out[eid] = CharRange(None, None)
        else:
            lo = N * orbit.level
            out[eid] = CharRange(lo, lo + N if orbit.kind == "segment" else lo)
    return out


def _check_param(graph: Multigraph, param: StabilityParam) -> None:
    check_int(param.N, "N", 1)
    if sum(int_map(param.eta, graph.vertices, "eta").values()) != 0:
        raise DomainError("eta must sum to zero")


# exact max-flow (Dinic), integer capacities


def _max_flow(n: int, arcs: list[tuple[int, int, int]], s: int, t: int) -> int:
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]

    for u, v, c in arcs:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)

    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            cur = queue.popleft()
            for a in adj[cur]:
                if cap[a] > 0 and level[to[a]] < 0:
                    level[to[a]] = level[cur] + 1
                    queue.append(to[a])
        if level[t] < 0:
            return flow
        # blocking flow: advance along level-increasing arcs, retreat from
        # dead ends, augment by the bottleneck on reaching t
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                flow += pushed
                path.clear()
                u = s
                continue
            arcs_u = adj[u]
            while it[u] < len(arcs_u):
                a = arcs_u[it[u]]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    break
                it[u] += 1
            if it[u] < len(arcs_u):
                path.append(a)
                u = to[a]
            elif path:
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                break


def _box_flow_feasible(
    graph: Multigraph, eta: Mapping[str, int], bounds: Mapping[str, tuple]
) -> bool:
    """Is there an integer edge vector c with d(c) = -eta and c_e in the box?

    Bounds are closed intervals with None for an unbounded end. A feasible
    vector, if one exists, can be taken with every coordinate bounded by the
    total eta mass plus the mass of all finite bounds: decompose any solution
    into source-to-sink paths plus circulations, and drop every circulation
    that avoids all finite boxes. Unbounded ends are therefore replaced by
    that finite cap and the rest is a standard feasible-flow instance.
    """
    finite_mass = sum(abs(x) for x in eta.values())
    for lo, hi in bounds.values():
        if lo is not None and hi is not None and lo > hi:
            return False
        finite_mass += abs(lo or 0) + abs(hi or 0)
    cap_box = finite_mass + 1
    verts = sorted(graph.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    source, sink = n, n + 1
    arcs = []
    excess = {v: -eta[v] for v in verts}
    for e in graph.edges:
        lo, hi = bounds[e.id]
        if e.head == e.tail:
            continue
        lo = -cap_box if lo is None else lo
        hi = cap_box if hi is None else hi
        # flow variable f = c - lo ranges in [0, hi - lo] along tail -> head
        arcs.append((idx[e.tail], idx[e.head], hi - lo))
        excess[e.head] -= lo
        excess[e.tail] += lo
    need = 0
    for v in verts:
        b = excess[v]
        if b > 0:
            # v must absorb a net inflow of b: route the surplus to the sink
            arcs.append((idx[v], sink, b))
            need += b
        elif b < 0:
            arcs.append((source, idx[v], -b))
    return _max_flow(n + 2, arcs, source, sink) == need


def is_semistable(
    graph: Multigraph, param: StabilityParam, spec: Mapping[str, EdgeOrbit]
) -> bool:
    """Does some integer character vector in the orbit's box bound -eta?"""
    _check_param(graph, param)
    check_keys(spec, graph.edge_ids, "orbit spec")
    ranges = orbit_char_set(spec, param.N)
    bounds = {eid: (r.lo, r.hi) for eid, r in ranges.items()}
    return _box_flow_feasible(graph, param.eta, bounds)


def _particular_solution(graph: Multigraph, eta: Mapping[str, int]) -> dict | None:
    """An integer edge vector c with d(c) = -eta, or None when none exists.

    Routes the demands through the greedy spanning forest; a solution exists
    exactly when eta sums to zero on every connected component.
    """
    forest = graph.spanning_forest()
    tree_adj: dict[str, list] = {v: [] for v in graph.vertices}
    for eid in sorted(forest):
        e = graph.edge(eid)
        tree_adj[e.head].append((e.tail, e))
        tree_adj[e.tail].append((e.head, e))
    c = {eid: 0 for eid in graph.edge_ids}
    remaining = {v: -eta[v] for v in graph.vertices}
    seen: set[str] = set()
    for comp in graph.components():
        root = min(comp)
        order = [root]
        seen.add(root)
        parent_edge: dict[str, tuple] = {}
        i = 0
        while i < len(order):
            cur = order[i]
            i += 1
            for nxt, e in tree_adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    parent_edge[nxt] = (cur, e)
                    order.append(nxt)
        for v in reversed(order):
            if v == root:
                continue
            parent, e = parent_edge[v]
            need = remaining[v]
            if e.head == v:
                c[e.id] += need
            else:
                c[e.id] -= need
            remaining[v] = 0
            remaining[parent] += need
        if remaining[root] != 0:
            return None
    return c


def _bonds(
    graph: Multigraph, eids: list[str], what: str, budget: int | None = None
) -> list[tuple[frozenset, tuple]]:
    """Every bond of the graph as (S, signs), S one side of it.

    For each connected component C, S runs over the vertex sets that hold C's
    least vertex with both S and C - S connected; signs[i] is +1 when edge
    eids[i] enters S (head in S), -1 when it leaves S, 0 otherwise (loops 0).
    The 2^(|C|-1) candidate sides per component are charged before the scan.
    """
    comps = graph.components()
    charge(sum(2 ** (len(c) - 1) for c in comps), what, budget)
    edges = [graph.edge(eid) for eid in eids]
    out = []
    for comp in comps:
        verts = sorted(comp)
        pos = {v: i for i, v in enumerate(verts)}
        nbrs = [0] * len(verts)
        for e in edges:
            if e.head in pos:
                nbrs[pos[e.head]] |= 1 << pos[e.tail]
                nbrs[pos[e.tail]] |= 1 << pos[e.head]

        def connected(mask: int) -> bool:
            seen = frontier = mask & -mask
            while frontier:
                grow = 0
                while frontier:
                    low = frontier & -frontier
                    grow |= nbrs[low.bit_length() - 1]
                    frontier ^= low
                frontier = grow & mask & ~seen
                seen |= frontier
            return seen == mask

        full = (1 << len(verts)) - 1
        for half in range(1 << (len(verts) - 1)):
            mask = half << 1 | 1
            if mask != full and connected(mask) and connected(full ^ mask):
                side = frozenset(v for v in verts if mask >> pos[v] & 1)
                out.append(
                    (side, tuple((e.head in side) - (e.tail in side) for e in edges))
                )
    return out


def is_generic(graph: Multigraph, param: StabilityParam, budget: int | None = None) -> bool:
    """No semistable assignment's Point edges disconnect the graph.

    That is, no edge set W whose removal disconnects the graph admits an
    integer c with d(c) = -eta and N | c_e on W. If eta has a nonzero sum on
    some component, no c exists and eta is generic; otherwise a disconnected
    graph fails at W = {}. On a connected graph, eta is generic iff N divides
    eta(S) for no bond side S (delta(S) with both sides connected), since:
    1. (monotonicity in W) a c that serves W serves every subset of W;
    2. (bonds suffice) for a component C of the graph minus W and a component
       D of the graph minus C, S = V - D is connected and delta(S) lies in W;
    3. (projection onto delta(S)) every c has signed sum -eta(S) over delta(S)
       (entering S minus leaving), and cycles crossing delta(S) at any two of
       its edges reach every signed-sum-zero change there, so N | c on
       delta(S) is attainable iff N | eta(S).
    The budget is charged the 2^(V-1) candidate sides before any is built.
    """
    _check_param(graph, param)
    bonds = _bonds(graph, sorted(graph.edge_ids), "genericity bond candidates", budget)
    comps = graph.components()
    if any(sum(param.eta[v] for v in comp) for comp in comps):
        return True
    if len(comps) > 1:
        return False
    return all(sum(param.eta[v] for v in side) % param.N for side, _ in bonds)


@dataclass(frozen=True)
class StrataComplex:
    """Quotient complex of semistable Segment assignments.

    edge_order fixes the coordinate order of the index vectors. nodes lists
    one representative index vector per translation class. adjacency lists
    one entry per class of jointly feasible ordered-distinct pairs, as
    (left node, right node, left vector, right vector); parallel entries and
    self pairs are genuine features of the quotient. faces[i] lists the
    feasible closed faces of node i's box, each face a vector over edges
    with -1 (low endpoint), 0 (full segment), +1 (high endpoint), together
    with its dimension inside the box.
    """

    edge_order: tuple
    nodes: tuple
    adjacency: tuple
    faces: tuple
    connected: bool


def strata_complex(
    graph: Multigraph, param: StabilityParam, budget: int | None = None
) -> StrataComplex:
    """Enumerate semistable Segment assignments modulo N times the cycle lattice.

    Every semistable index vector's box contains an integer witness
    c = c0 + basis * t, and translating t by N^2 shifts witnesses by N^2
    times a cycle, which moves index vectors by N times that cycle, i.e. by
    a lattice translation. Scanning t over {0 .. N^2 - 1}^rank therefore
    meets every translation class; member vectors are the boxes around each
    witness. Each fundamental cycle is the identity on its own non-forest
    edge (chord), so a class is keyed by its canonical member, the one whose
    chord coordinates all lie in [0, N). The displayed representative is the
    member of least squared norm, then least lexicographically.

    The joint box of rep and rep + delta, delta in {-1, 0, 1}^E, is face delta
    of rep's box, so one feasibility check per face gives both the faces and
    the adjacency. Each check is Hoffman's cut inequality on every bond side,
    whose slack is a part fixed by rep plus a part fixed by delta; the face
    parts are tabulated once per graph. The budget is charged the
    (N^2)^rank witnesses and the 2^(V-1) bond candidates before the scan,
    every node as it is found, and the len(nodes) * 3^E face checks before
    the first one.
    """
    _check_param(graph, param)
    N = param.N
    eids = sorted(graph.edge_ids)
    m = len(eids)
    cap = charge((N * N) ** graph.betti1(), "strata witness classes", budget)
    c0map = _particular_solution(graph, param.eta)
    if c0map is None:
        return StrataComplex(tuple(eids), (), (), (), True)
    bonds = _bonds(graph, eids, "strata bond candidates", cap)
    c0 = [c0map[e] for e in eids]
    cycles = graph.cycle_basis()
    r = len(cycles)
    basis = [[c[eid] for eid in eids] for c in cycles]
    forest = graph.spanning_forest()
    chord_pos = [eids.index(eid) for eid in sorted(set(eids) - forest)]
    assert len(chord_pos) == r

    raw: set[tuple] = set()
    for t in itertools.product(range(N * N), repeat=r):
        c = list(c0)
        for ti, vec in zip(t, basis):
            for i in range(m):
                c[i] += ti * vec[i]
        options = []
        for x in c:
            n0 = x // N
            options.append((n0, n0 - 1) if x % N == 0 else (n0,))
        for combo in itertools.product(*options):
            raw.add(combo)
            charge(len(raw), "strata nodes", cap)

    def canon(vec: tuple) -> tuple:
        """Subtract N * floor(vec[chord] / N) times each chord's cycle."""
        out = list(vec)
        for pos, b in zip(chord_pos, basis):
            lam = vec[pos] // N
            for i in range(m):
                out[i] -= N * lam * b[i]
        return tuple(out)

    classes: dict[tuple, list[tuple]] = {}
    for vec in raw:
        classes.setdefault(canon(vec), []).append(vec)

    def norm2(vec: tuple) -> int:
        return sum(x * x for x in vec)

    def descend(vec: tuple) -> tuple:
        cur = list(vec)
        improved = True
        while improved:
            improved = False
            for b in basis:
                for s in (1, -1):
                    cand = [x + s * N * g for x, g in zip(cur, b)]
                    if norm2(tuple(cand)) < norm2(tuple(cur)):
                        cur = cand
                        improved = True
        return tuple(cur)

    reps = sorted(
        min({descend(v) for v in group} | set(group), key=lambda v: (norm2(v), v))
        for group in classes.values()
    )
    index = {canon(rep): i for i, rep in enumerate(reps)}

    charge(len(reps) * 3**m, "strata face checks", cap)
    # Face delta of rep's box has hi_e = N (x_e + [d_e >= 0]) and
    # lo_e = N (x_e + [d_e > 0]) (-1: low endpoint, 0: segment, +1: high
    # endpoint). By Hoffman's theorem it holds a solution iff, for every bond
    # side S and its complement, -eta(S) <= sum_in hi - sum_out lo, that is
    # -a(rep) <= f(delta) with a = N sum_e sign_e x_e + eta(S) and
    # f = N (sum_in [d_e >= 0] - sum_out [d_e > 0]). Each side's f is tabulated
    # once over the faces as bitmasks of the faces with f >= t, so a rep's
    # feasible faces are one AND per side.
    faces = list(itertools.product((-1, 0, 1), repeat=m))
    sides = []
    for side, signs in bonds:
        eta_side = sum(param.eta[v] for v in side)
        for sg, eta_s in ((signs, eta_side), (tuple(-s for s in signs), -eta_side)):
            f = [
                N * sum((s > 0 and d >= 0) - (s < 0 and d > 0) for s, d in zip(sg, face))
                for face in faces
            ]
            levels = sorted(set(f))
            digits = f[::-1]
            masks = [int("".join("1" if v >= t else "0" for v in digits), 2) for t in levels]
            # masks[j]: the faces with f >= levels[j]; past the top level, none
            sides.append((sg, eta_s, levels, masks + [0]))
    # each feasible non-central face is an adjacency; the pair is stored
    # translated so its first vector is a representative, whichever of the
    # two ways round is smaller
    all_faces = []
    pairs: set[tuple] = set()
    for i, rep in enumerate(reps):
        feasible = (1 << len(faces)) - 1
        for sg, eta_s, levels, masks in sides:
            a = N * sum(s * x for s, x in zip(sg, rep)) + eta_s
            feasible &= masks[bisect.bisect_left(levels, -a)]
        feasible_faces = []
        for face, bit in zip(faces, bin(feasible)[:1:-1]):  # bit k is faces[k]
            if bit == "0":
                continue
            feasible_faces.append((face, face.count(0)))
            if any(face):
                b = tuple(x + d for x, d in zip(rep, face))
                j = index[canon(b)]
                back = tuple(x - d for x, d in zip(reps[j], face))
                pairs.add(min((rep, b, i, j), (reps[j], back, j, i)))
        assert ((0,) * m, m) in feasible_faces
        all_faces.append(tuple(feasible_faces))

    adjacency = tuple((i, j, a, b) for a, b, i, j in sorted(pairs))
    quotient = Multigraph(
        [str(i) for i in range(len(reps))],
        ((str(k), str(i), str(j)) for k, (i, j, _, _) in enumerate(adjacency)),
    )

    return StrataComplex(
        edge_order=tuple(eids),
        nodes=tuple(reps),
        adjacency=adjacency,
        faces=tuple(all_faces),
        connected=quotient.is_connected(),
    )
