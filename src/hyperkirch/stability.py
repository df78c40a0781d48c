"""Stability combinatorics of edge-wise orbit data against a vertex character.

An orbit assignment gives every edge one of three shapes: Generic (its
character set is all integers), Segment(n) (characters in [N n, N (n+1)]),
or Point(n) (the single character N n). An assignment is semistable for a
vertex weight eta summing to zero when some integer edge vector c with
boundary d(c) = -eta has every c_e inside the edge's character set; this is
a circulation feasibility problem. It is decided exactly: free edges are
contracted, fixed edges and loops dropped, and vertices with at most two
edges spliced out, which leaves a core where every vertex has three edges or
more; the core goes to a max-flow (the incidence matrix is totally
unimodular, so bounds can be finite-boxed without losing solutions).

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

import itertools
from collections import deque
from typing import Mapping

from .graphs import DomainError, Multigraph, _find, _record, charge, check_int, check_keys, int_map


@_record
class StabilityParam:
    """Integer vertex weight eta (summing to zero) and box scale N >= 1."""

    eta: dict
    N: int


@_record
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


@_record
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
    return {eid: CharRange(lo, hi) for eid, (lo, hi) in _orbit_bounds(spec, N).items()}


def _orbit_bounds(spec: Mapping[str, EdgeOrbit], N: int) -> dict[str, tuple]:
    """orbit_char_set's intervals as (lo, hi) pairs, without a record per edge."""
    check_int(N, "N", 1)
    out = {}
    for eid, orbit in spec.items():
        if not isinstance(orbit, EdgeOrbit):
            raise DomainError(f"orbit for {eid!r} is not an EdgeOrbit: {orbit!r}")
        kind = orbit.kind
        if kind == "generic":
            out[eid] = (None, None)
        else:
            lo = N * orbit.level
            out[eid] = (lo, lo + N if kind == "segment" else lo)
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

    Bounds are closed intervals with None for an unbounded end. c_e flows
    from tail to head, and need(v) = -eta(v) is the net inflow v must
    receive. An empty box has no point, so it makes the instance infeasible
    at once. Otherwise the instance is shrunk by rules that keep its integer
    solutions in correspondence: each solution of the smaller instance
    extends to one of the larger, and each solution of the larger restricts
    to one of the smaller, so feasibility is unchanged.

    1. A free edge, both ends None, joining u and v: c_e is any integer, so
       the equations of u and v may be replaced by their sum, since a
       solution of the rest then fixes c_e by v's equation alone. Contract
       the edge with graphs._find and add the needs; a parallel edge
       becomes a loop. Free edges are contracted in the first pass over the
       edges, as the rules below never make one (see 6).
    2. A loop adds nothing to any boundary and its box is not empty: drop it.
    3. A fixed edge, lo = hi, carries exactly lo: add lo to need(tail),
       subtract it from need(head), and drop the edge.
    4. A vertex with no edge left: its equation reads 0 = need(v).
    5. A vertex v with one edge e, to u: v's equation forces e's inflow into
       v to be d = need(v). Check d against the box, drop v and e, and add d
       to need(u), since e's inflow into u was -d.
    6. A vertex v with two edge ends, e1 to u1 and e2 to u2, whose inflows
       into v are x in [L1, H1] and z in [L2, H2] (a box is negated when its
       edge leaves v, and None stands for no bound). v's equation is
       x + z = d = need(v), so z = d - x, and the pair is one variable x in
       [max(L1, d - H2), min(H1, d - L2)]. Replace both edges by one edge
       u1 -> u2 with that box, carrying x, and add d to need(u2), whose
       inflow -z from e2 was x - d. The slope is -1, so an integer x gives
       an integer z and back. An empty new box is infeasible; if u1 = u2 the
       new edge is a loop (2). An end of the new box is None only when an
       end of each old box is, so it is free only when both old edges were,
       which (1) excludes; it may be fixed (3).

    Each rule removes an edge or a vertex, and the vertices with at most two
    edges are taken from a worklist, so the reduction takes linear time and
    no recursion. Chains of degree-2 vertices, along which every augmenting
    path would run, vanish; in the core that is left every vertex has at
    least three edges.

    A feasible instance has a solution with every coordinate bounded by
    M = sum |eta| + the mass of all finite bounds. Take a solution of least
    sum |c_e| and split it conformally into unit paths between vertices of
    opposite need and unit cycles. There are at most sum |eta| paths.
    Dropping a cycle moves each of its coordinates one step toward 0, so
    each cycle passes an edge sitting at a finite end b of its box with
    |c_e| = |b|, and at most |b| cycles pass it. Restricted to the core,
    that solution keeps the bound, since each core edge carries plus or
    minus one original coordinate. So the core's unbounded ends are replaced
    by M + 1, and the rest is a standard feasible-flow instance.
    """
    cap_box = 1 + sum(map(abs, eta.values()))
    cap_box += sum(map(abs, filter(None, itertools.chain.from_iterable(bounds.values()))))
    verts = graph.vertices
    n = len(verts)
    pos = dict(zip(verts, range(n)))
    need = [-eta[v] for v in verts]
    parent = list(range(n))
    merged = False
    edges: list = []
    inc: list[list[int]] = [[] for _ in range(n)]
    for eid, head, tail in graph.edges:
        lo, hi = bounds[eid]
        a, b = pos[tail], pos[head]
        if lo is None:
            if hi is None:  # rule 1
                a, b = _find(parent, a), _find(parent, b)
                if a != b:
                    parent[a] = b
                    merged = True
                continue
        elif hi is not None and lo >= hi:
            if lo > hi:
                return False
            need[a] += lo  # rule 3
            need[b] -= lo
            continue
        if a != b:  # rule 2 drops a loop
            j = len(edges)
            inc[a].append(j)
            inc[b].append(j)
            edges.append((a, b, lo, hi))
    if merged:
        for v in range(n):
            root = _find(parent, v)
            if root != v:
                need[root] += need[v]
                need[v] = 0
        inc = [[] for _ in range(n)]
        for j, (a, b, lo, hi) in enumerate(edges):
            a, b = _find(parent, a), _find(parent, b)
            if a == b:
                edges[j] = None
            else:
                edges[j] = (a, b, lo, hi)
                inc[a].append(j)
                inc[b].append(j)

    # degrees never grow, so a vertex on the stack has at most two edges
    # unless it is gone already (degree -1); a dropped edge is None
    deg = list(map(len, inc))
    stack = [v for v in range(n) if deg[v] <= 2]
    while stack:
        v = stack.pop()
        k = deg[v]
        if k < 0:
            continue
        deg[v] = -1
        d = need[v]
        need[v] = 0
        if k == 0:  # rule 4
            if d:
                return False
            continue
        # each live edge's other end and its box as an inflow into v
        sides = []
        for j in inc[v]:
            edge = edges[j]
            if edge is not None:
                edges[j] = None
                tail, head, lo, hi = edge
                if head == v:
                    sides.append((j, tail, lo, hi))
                else:
                    sides.append((j, head, None if hi is None else -hi, None if lo is None else -lo))
        if k == 1:  # rule 5
            ((_, u, lo, hi),) = sides
            if (lo is not None and d < lo) or (hi is not None and d > hi):
                return False
            need[u] += d
            deg[u] -= 1
            if deg[u] <= 2:
                stack.append(u)
            continue
        # rule 6: z = d - x, so x lies in d minus e2's box
        (j1, u1, lo1, hi1), (_, u2, lo2, hi2) = sides
        if hi2 is not None:
            lo2, hi2 = d - hi2, None if lo2 is None else d - lo2
        elif lo2 is not None:
            lo2, hi2 = None, d - lo2
        # x, the inflow from u1, lies in [lo1, hi1] and [lo2, hi2]
        lo = lo2 if lo1 is None else lo1 if lo2 is None or lo1 > lo2 else lo2
        hi = hi2 if hi1 is None else hi1 if hi2 is None or hi1 < hi2 else hi2
        if lo is not None and hi is not None and lo > hi:
            return False
        need[u2] += d
        if u1 == u2 or lo == hi:  # a loop (rule 2) or a fixed edge (rule 3)
            if u1 != u2:
                need[u1] += lo
                need[u2] -= lo
            for u in (u1, u2):
                deg[u] -= 1
                if deg[u] <= 2:
                    stack.append(u)
        else:
            edges[j1] = (u1, u2, lo, hi)
            inc[u2].append(j1)

    # the core keeps its vertex numbers; every other vertex has need 0 and no arc
    arcs = []
    for edge in edges:
        if edge is not None:
            tail, head, lo, hi = edge
            lo = -cap_box if lo is None else lo
            hi = cap_box if hi is None else hi
            # flow variable f = c - lo ranges in [0, hi - lo] along tail -> head
            arcs.append((tail, head, hi - lo))
            need[head] -= lo
            need[tail] += lo
    source, sink = n, n + 1
    total = 0
    for v, b in enumerate(need):
        if b > 0:
            # v must absorb a net inflow of b: route the surplus to the sink
            arcs.append((v, sink, b))
            total += b
        elif b < 0:
            arcs.append((source, v, -b))
    return _max_flow(n + 2, arcs, source, sink) == total


def is_semistable(
    graph: Multigraph, param: StabilityParam, spec: Mapping[str, EdgeOrbit]
) -> bool:
    """Does some integer character vector in the orbit's box bound -eta?"""
    _check_param(graph, param)
    check_keys(spec, graph.edge_ids, "orbit spec")
    return _box_flow_feasible(graph, param.eta, _orbit_bounds(spec, param.N))


def _particular_solution(graph: Multigraph, eta: Mapping[str, int]) -> dict | None:
    """An integer edge vector c with d(c) = -eta, or None when none exists.

    Routes the demands through the greedy spanning forest, leaves first; a
    solution exists exactly when eta sums to zero on every connected
    component, that is when no demand is left at a tree's root.
    """
    order, up, _ = graph._rooted(graph.spanning_forest())
    c = dict.fromkeys(graph.edge_ids, 0)
    remaining = {v: -eta[v] for v in graph.vertices}
    for v in reversed(order):
        if v not in up:
            if remaining[v]:
                return None
            continue
        parent, e = up[v]
        c[e.id] = remaining[v] if e.head == v else -remaining[v]
        remaining[parent] += remaining[v]
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
    return _genericity(graph, budget)(param.eta, param.N)


def _genericity(graph: Multigraph, budget: int | None = None):
    """is_generic's verdict as a function of an already checked (eta, N).

    The bond sides and the components are listed once, for every call.
    """
    bonds = _bonds(graph, sorted(graph.edge_ids), "genericity bond candidates", budget)
    sides = [side for side, _ in bonds]
    comps = graph.components()

    def verdict(eta: Mapping[str, int], N: int) -> bool:
        if any(sum(eta[v] for v in comp) for comp in comps):
            return True
        if len(comps) > 1:
            return False
        return all(sum(eta[v] for v in side) % N for side in sides)

    return verdict


@_record
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
    witness. Two index vectors u, v lie in one class iff u - v = N w for an
    integer cycle w, that is an integer vector with d(w) = 0. The integer
    cycles ker d in Z^E are the integral flow lattice (Bacher, de la Harpe
    and Nagnibeda, Bull. SMF 125, 1997), spanned over Z by the fundamental
    cycles: each is +1 on its own chord and 0 on the others, and a loop is a
    cycle with boundary 0. So u, v lie in one class iff u = v mod N and
    d(u) = d(v), and a class is keyed by its residues mod N and its
    boundary. The displayed representative is the member of least squared
    norm, then least lexicographically.

    The joint box of rep and rep + delta, delta in {-1, 0, 1}^E, is face delta
    of rep's box, so the feasible faces give both the faces and the
    adjacency. Face delta has lo_e = N (x_e + [delta_e > 0]) and
    hi_e = N (x_e + [delta_e >= 0]). By Hoffman's theorem it holds a solution
    iff, for every bond side S and its complement, -eta(S) <= sum_in hi -
    sum_out lo; dividing by N and rounding, iff the -1s on edges into S and
    the +1s on edges out of S number at most
        room(S) = (N sum_e s_e x_e + eta(S)) // N + #(edges into S).
    A 0 uses no room, so it gives every side its largest room at once: a
    prefix of delta extends to a feasible face iff it does with zeros after
    it, that is iff no room is below 0. Each node's faces are grown from such
    prefixes only, one coordinate at a time in edge_order, by -1, 0, +1 in
    turn, which is itertools.product order. Every kept prefix is the start of
    a feasible face, so the work is at most E steps per face found, not 3^E
    per node.

    Each adjacency entry is looked up once. Face delta of node i leads to
    node j iff face -delta of node j leads back to node i: if rep_i + delta =
    rep_j + N w with w an integer cycle, then rep_j - delta = rep_i - N w,
    and subtracting N^2 w from a witness of the first joint box gives a
    witness of the second, with the same boundary since d(w) = 0. So each
    entry is met from its two ends by a delta and its negation, and exactly
    one of them has -1 as its first nonzero entry; only those faces are
    looked up. From node i such a face keeps (rep_i, rep_i + delta, i, j) if
    i <= j, and otherwise the entry as the smaller node j displays it,
    (rep_j, rep_j - delta, j, i). A self pair needs delta = N w, so it
    occurs only at N = 1, and there the leading -1 keeps the smaller of
    rep_i + delta and rep_i - delta.

    The budget is charged the (N^2)^rank witnesses and the 2^(V-1) bond
    candidates before the scan, then every node once and every face as it
    is found. A layer of prefixes never shrinks, since every prefix keeps
    its 0 child, so charging the faces found so far plus the current layer
    refuses exactly when the faces in all exceed the cap.
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
            if combo not in raw:
                raw.add(combo)
                charge(len(raw), "strata nodes", cap)

    pos = {v: i for i, v in enumerate(graph.vertices)}
    ends = [(pos[e.head], pos[e.tail]) for e in map(graph.edge, eids)]

    def key(vec: tuple) -> tuple:
        """The class of vec: its residues mod N and its boundary."""
        bd = [0] * len(pos)
        for x, (head, tail) in zip(vec, ends):
            bd[head] += x
            bd[tail] -= x
        return tuple(x % N for x in vec), tuple(bd)

    classes: dict[tuple, list[tuple]] = {}
    for vec in raw:
        classes.setdefault(key(vec), []).append(vec)

    def descend(vec: tuple) -> tuple:
        cur = list(vec)
        improved = True
        while improved:
            improved = False
            for b in basis:
                for s in (1, -1):
                    # |cur + s N b|^2 - |cur|^2 = N (2 s <cur, b> + N |b|^2)
                    if 2 * s * sum(x * g for x, g in zip(cur, b)) + N * sum(g * g for g in b) < 0:
                        cur = [x + s * N * g for x, g in zip(cur, b)]
                        improved = True
        return tuple(cur)

    # a descent is its start or strictly shorter, so the group adds no candidate
    reps = sorted(
        min(map(descend, group), key=lambda v: (sum(x * x for x in v), v))
        for group in classes.values()
    )
    index = {key(rep): i for i, rep in enumerate(reps)}

    # The rooms of a prefix are packed in one int, `width` bits per side, each
    # field holding guard + room: a step subtracts 1 from the fields of the
    # sides it uses, and a room that falls below 0 clears its guard bit. Such
    # a prefix is dropped at once, so no field ever borrows from the next. A
    # side loses at most one unit per coordinate, so a room is stored capped
    # at m, which fits below the guard.
    # each oriented side with the part of its room that no node changes:
    # room(S) = eta(S) // N + #(edges into S) + sum_e s_e x_e
    sides = []
    for side, signs in bonds:
        eta_side = sum(param.eta[v] for v in side)
        for sg, eta_s in ((signs, eta_side), (tuple(-s for s in signs), -eta_side)):
            sides.append((sg, eta_s // N + sg.count(1)))
    width = m.bit_length() + 1
    guard = 1 << (width - 1)
    unit = [1 << width * k for k in range(len(sides))]
    top = guard * sum(unit)
    # per coordinate, the sides a -1 uses (the edge enters S) and a +1 uses
    # (it leaves S)
    minus = [sum(u for u, (sg, _) in zip(unit, sides) if sg[col] > 0) for col in range(m)]
    plus = [sum(u for u, (sg, _) in zip(unit, sides) if sg[col] < 0) for col in range(m)]

    all_faces = []
    pairs = []
    found = 0
    for i, rep in enumerate(reps):
        rooms = [base + sum(s * x for s, x in zip(sg, rep)) for sg, base in sides]
        assert min(rooms, default=0) >= 0  # the central face is feasible
        packed = sum((guard + min(room, m)) * u for u, room in zip(unit, rooms))
        layer = [((), packed)]
        for low, high in zip(minus, plus):
            layer = [
                (face + (d,), left)
                for face, room in layer
                for d, left in ((-1, room - low), (0, room), (1, room - high))
                if left & top == top
            ]
            charge(found + len(layer), "strata faces", cap)
        found += len(layer)
        faces = []
        for face, _ in layer:
            faces.append((face, face.count(0)))
            # face -delta of node j leads back here: look up only the faces
            # that lead with -1, and keep the entry from the smaller node
            if max(face, key=abs, default=0) < 0:
                b = tuple(x + d for x, d in zip(rep, face))
                j = index[key(b)]
                if i <= j:
                    pairs.append((rep, b, i, j))
                else:
                    pairs.append((reps[j], tuple(x - d for x, d in zip(reps[j], face)), j, i))
        all_faces.append(tuple(faces))

    pairs.sort()
    parent = {i: i for i in range(len(reps))}
    for _, _, i, j in pairs:
        parent[_find(parent, i)] = _find(parent, j)

    return StrataComplex(
        edge_order=tuple(eids),
        nodes=tuple(reps),
        adjacency=tuple((i, j, a, b) for a, b, i, j in pairs),
        faces=tuple(all_faces),
        connected=len({_find(parent, i) for i in parent}) == 1,
    )
