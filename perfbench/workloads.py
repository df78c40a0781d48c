"""The four benchmark workloads: instance streams, calls and independent checks.

Every workload builds, from the run's seed, a fixed list of tasks (one public
call each) that makes up one pass. The runner issues the tasks one at a time,
each only after the previous one finished (a closed loop with one client),
and hands the outcomes of a whole pass back to the workload's verify(), which
runs outside the timed region and checks each result by a second route:

- forests: two polynomial engines against each other, the forest count against
  closed forms, Psi(w) by the cycle Gram and the Laplacian, fibre volumes by
  formula;
- lattice: group order against both determinants, the divisibility chain, the
  Gram matrix against the torus Gram;
- strata: cycle instances by a closed-form interval test, the rest against
  digests in golden.json, recorded at a reference commit;
- cli: stdout and exit code against digests recorded at the reference commit.

The instance families and sizes are chosen so that, at the reference commit, every
call either completes far inside its deadline or is one of the named
known-defect instances (weighted K6 and 4x4 grid in lattice, the 3000-edge
cycle in strata), whose count per pass does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import io as _io
import json
import math
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import hyperkirch as hk
from hyperkirch import DomainError, Edge, EdgeOrbit, Multigraph, StabilityParam

HERE = Path(__file__).resolve().parent


class DeadlineMiss(BaseException):
    """Raised from SIGALRM when an in-process call outlives its deadline.

    A BaseException, so library code that catches ValueError cannot swallow it.
    """


class Task(NamedTuple):
    key: str  # instance and call, stable across passes of one run
    call: str  # public call name, used for per-call reporting
    thunk: Callable[[], object]
    deadline: float | None  # in-process deadline in seconds; None for subprocess calls
    size: int  # rough instance size; warm-up uses the smallest of each call


class Outcome(NamedTuple):
    seconds: float
    value: object
    error: str | None  # None, deadline, recursion, domain, wrong, or exception:<type>


# per-call deadlines, in seconds
FORESTS_DEADLINE = 10.0
# over five times the slowest completing call seen at the reference commit in this
# family (53 ms for K5 under other ids; under 5 ms for the instances used here)
LATTICE_DEADLINE = 0.3
STRATA_DEADLINE = 15.0
CLI_TIMEOUT = 30.0

_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise DeadlineMiss()


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def run_task(task: Task) -> Outcome:
    """Run one call under its deadline and classify how it ended."""
    global _armed
    value = None
    error = None
    if task.deadline is not None:
        signal.setitimer(signal.ITIMER_REAL, task.deadline)
        _armed = True
    t0 = time.perf_counter()
    try:
        value = task.thunk()
    except DeadlineMiss:
        error = "deadline"
    except subprocess.TimeoutExpired:
        error = "deadline"
    except RecursionError:
        error = "recursion"
    except DomainError:
        error = "domain"
    except AssertionError:
        # the library's own result certificates (smith_normal_form under __debug__)
        error = "wrong"
    except Exception as exc:  # noqa: BLE001 - any other escape is a failed call, by type
        error = "exception:" + type(exc).__name__
    finally:
        _armed = False
        t1 = time.perf_counter()
        if task.deadline is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome(t1 - t0, value, error)


def canon(value) -> str:
    """Digest of a call result that does not depend on dict ordering."""
    if isinstance(value, hk.MultilinearPoly):
        text = repr(sorted((sorted(m), c) for m, c in value.terms.items()))
    elif isinstance(value, hk.StrataComplex):
        text = strata_text(value)
    else:
        text = repr(value)
    return hashlib.sha256(text.encode()).hexdigest()


def strata_text(sc) -> str:
    return json.dumps(
        {
            "edge_order": list(sc.edge_order),
            "nodes": [list(v) for v in sc.nodes],
            "adjacency": [[a, b, list(x), list(y)] for a, b, x, y in sc.adjacency],
            "faces": [[[list(f), d] for f, d in fs] for fs in sc.faces],
            "connected": sc.connected,
        },
        sort_keys=True,
    )


def load_golden() -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


# graph construction, independent of the library's own builders


def build_graph(nv: int, pairs, rng: random.Random | None = None, relabel: bool = False) -> Multigraph:
    """Multigraph on vertices 0..nv-1 with one edge per (head, tail) pair.

    Without rng the ids are canonical (v00.., e00.. in pair order) and the
    orientation is as given. With rng each edge is flipped with probability
    one half and vertices and edges are inserted in shuffled order; relabel
    also draws fresh random ids.
    """
    width = max(2, len(str(max(nv, len(pairs)))))
    if rng is not None and relabel:
        vnames = [f"v{x}" for x in rng.sample(range(10 ** width, 10 ** (width + 1)), nv)]
        enames = [f"e{x}" for x in rng.sample(range(10 ** width, 10 ** (width + 1)), len(pairs))]
    else:
        vnames = [f"v{i:0{width}d}" for i in range(nv)]
        enames = [f"e{i:0{width}d}" for i in range(len(pairs))]
    edges = []
    for eid, (a, b) in zip(enames, pairs):
        if rng is not None and rng.random() < 0.5:
            a, b = b, a
        edges.append(Edge(eid, vnames[a], vnames[b]))
    order = list(range(nv))
    if rng is not None:
        rng.shuffle(order)
        rng.shuffle(edges)
    return Multigraph([vnames[i] for i in order], edges)


def cycle_pairs(n: int) -> list:
    return [((i + 1) % n, i) for i in range(n)]


def complete_pairs(n: int) -> list:
    return [(j, i) for i in range(n) for j in range(i + 1, n)]


def grid_pairs(a: int, b: int) -> list:
    out = []
    for r in range(a):
        for c in range(b):
            v = r * b + c
            if c + 1 < b:
                out.append((v + 1, v))
            if r + 1 < a:
                out.append((v + b, v))
    return out


def theta_pairs(k: int) -> list:
    return [(1, 0)] * k


def random_connected_pairs(rng: random.Random, nv: int, ne: int) -> list:
    """A random spanning tree, one loop, one parallel edge, then random edges."""
    pairs = [(i, rng.randrange(i)) for i in range(1, nv)]
    pairs.append((rng.randrange(nv),) * 2)
    pairs.append(rng.choice(pairs[: nv - 1]))
    while len(pairs) < ne:
        pairs.append((rng.randrange(nv), rng.randrange(nv)))
    return pairs


def union_pairs(n1: int, p1: list, n2: int, p2: list) -> tuple[int, list]:
    return n1 + n2, p1 + [(a + n1, b + n1) for a, b in p2]


def _components(vertices, pairs) -> list[list]:
    """Vertex lists of the connected components, by a local union-find."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    comps: dict = {}
    for v in vertices:
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def _n_components(graph: Multigraph) -> int:
    return len(_components(graph.vertices, [(e.head, e.tail) for e in graph.edges]))


def _betti1(graph: Multigraph) -> int:
    return len(graph.edges) - len(graph.vertices) + _n_components(graph)


def spanning_tree_count(nv: int, pairs) -> int:
    """Number of maximal spanning forests, as the product over components of
    a reduced-Laplacian determinant, by exact elimination over Fractions."""
    total = 1
    for members in _components(range(nv), pairs):
        idx = {v: i for i, v in enumerate(members)}
        n = len(members) - 1
        lap = [[Fraction(0)] * n for _ in range(n)]
        for a, b in pairs:
            if a == b or a not in idx:
                continue
            i, j = idx[a] - 1, idx[b] - 1
            for x, y in ((i, j), (j, i)):
                if x >= 0:
                    lap[x][x] += 1
                    if y >= 0:
                        lap[x][y] -= 1
        det = Fraction(1)
        for k in range(n):
            p = next(r for r in range(k, n) if lap[r][k] != 0)
            if p != k:
                lap[k], lap[p] = lap[p], lap[k]
                det = -det
            det *= lap[k][k]
            for r in range(k + 1, n):
                f = lap[r][k] / lap[k][k]
                if f:
                    for c in range(k, n):
                        lap[r][c] -= f * lap[k][c]
        total *= int(det)
    return total


def _poly_value(terms: dict, x: dict) -> int:
    total = 0
    for mono, coeff in terms.items():
        prod = coeff
        for v in mono:
            prod *= x[v]
        total += prod
    return total


def rule_weights(graph: Multigraph) -> dict:
    """Weight (i mod 5) + 1 on the i-th edge in sorted id order."""
    return {eid: i % 5 + 1 for i, eid in enumerate(sorted(graph.edge_ids))}


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.tasks: list[Task] = []

    def warmup_tasks(self) -> list[Task]:
        """The call on the smallest instance, for each public call of the pass."""
        smallest: dict[str, Task] = {}
        for task in self.tasks:
            if task.call not in smallest or task.size < smallest[task.call].size:
                smallest[task.call] = task
        return list(smallest.values())

    def verify(self, outcomes: list[Outcome]) -> dict[int, str]:
        """Failure reason per task index, for calls that returned a wrong answer."""
        raise NotImplementedError


# forests: minor recursion, forest enumeration and the volume formulas


class Forests(Workload):
    """Distinct graphs of the families the minor recursion is slow on.

    Family sizes and ids are fixed so that every seed asks for the same
    amount of recursion (its cost depends on the order of the edge ids); the
    seed draws orientations, insertion order, weights, valuations, q and the
    random multigraphs, ids included. Each random multigraph slot only accepts
    graphs whose spanning-tree count lies in a fixed band, so that the random
    slots cost about the same under every seed.
    """

    name = "forests"
    # (vertices, edges, lowest and highest accepted spanning-tree count); the
    # bands keep every random graph's calls above the K5 calls, around which
    # the median call falls
    RANDOM_SLOTS = ((10, 16, 300, 420),) * 4

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = random.Random(f"forests-{seed}")
        graphs = [  # (name, vertex count, pairs, seeded ids)
            (f"C{n}", n, cycle_pairs(n), False) for n in (20, 30, 40)
        ] + [
            ("K6", 6, complete_pairs(6), False),
            ("G3x3", 9, grid_pairs(3, 3), False),
            ("G3x4a", 12, grid_pairs(3, 4), False),
            ("G3x4b", 12, grid_pairs(3, 4), False),
            ("T5", 2, theta_pairs(5), False),
            ("T8", 2, theta_pairs(8), False),
            ("C10+K4", *union_pairs(10, cycle_pairs(10), 4, complete_pairs(4)), False),
            ("T4+G2x3", *union_pairs(2, theta_pairs(4), 6, grid_pairs(2, 3)), False),
        ]
        for i, (nv, ne, lo, hi) in enumerate(self.RANDOM_SLOTS):
            while True:
                pairs = random_connected_pairs(rng, nv, ne)
                if lo <= spanning_tree_count(nv, pairs) <= hi:
                    break
            graphs.append((f"R{i}", nv, pairs, True))
        # five K5 and two 3x4 grids put the median and the 90th-percentile
        # call inside clusters of equally slow calls rather than on an edge;
        # the K5 are spread through the pass so that the median samples it all
        for i, copy in enumerate("abcde"):
            graphs.insert(3 * i, (f"K5{copy}", 5, complete_pairs(5), False))
        self.instances = []
        for name, nv, pairs, seeded_ids in graphs:
            g = build_graph(nv, pairs, rng, seeded_ids)
            # matrix-tree count on the pair list: n for C_n, n^(n-2) for K_n, k for thetas
            expected = spanning_tree_count(nv, pairs)
            w = {e: rng.randint(1, 5) for e in g.edge_ids}
            nu = {e: rng.randint(1, 3) for e in g.edge_ids}
            q = rng.choice((2, 3, 5, 7))
            connected = _n_components(g) == 1
            self.instances.append((name, g, expected, w, nu, q, connected))
            calls = [
                ("psi_delcon", lambda g=g: hk.psi_delcon(g)),
                ("psi_enum", lambda g=g: hk.psi_enum(g)),
                ("total_volume", lambda g=g: hk.total_volume(g)),
                ("fibre_volume", lambda g=g, nu=nu, q=q: hk.fibre_volume(g, nu, q)),
                ("central_fibre_point_count", lambda g=g, q=q: hk.central_fibre_point_count(g, q)),
                ("psi_det", lambda g=g, w=w: hk.psi_det(g, w)),
            ]
            if connected:
                calls.append(("matrix_tree_dual", lambda g=g, w=w: hk.matrix_tree_dual(g, w)))
            for call, thunk in calls:
                self.tasks.append(Task(f"{name}/{call}", call, thunk, FORESTS_DEADLINE, len(g.edges)))

    def verify(self, outcomes):
        bad: dict[int, str] = {}
        by_key = {t.key: i for i, t in enumerate(self.tasks)}
        for name, g, expected, w, nu, q, connected in self.instances:
            idx = {t.call: by_key[t.key] for t in self.tasks if t.key.rsplit("/", 1)[0] == name}
            val = {c: outcomes[i].value for c, i in idx.items() if outcomes[i].error is None}

            def fail(call, why):
                if call in val:
                    bad[idx[call]] = why

            terms = None
            if "psi_delcon" in val and "psi_enum" in val:
                if val["psi_delcon"].terms != val["psi_enum"].terms:
                    fail("psi_delcon", "engines disagree")
                    fail("psi_enum", "engines disagree")
                else:
                    terms = val["psi_enum"].terms
            elif "psi_enum" in val or "psi_delcon" in val:
                terms = (val.get("psi_enum") or val.get("psi_delcon")).terms
            h1 = _betti1(g)
            if terms is not None and len(terms) != expected:
                fail("psi_enum", "forest count differs from the matrix-tree count")
                fail("psi_delcon", "forest count differs from the matrix-tree count")
            if val.get("total_volume", expected) != expected:
                fail("total_volume", "total volume differs from the matrix-tree count")
            if val.get("central_fibre_point_count", expected * q**h1) != expected * q**h1:
                fail("central_fibre_point_count", "point count differs from forests * q^h1")
            if terms is not None:
                psi_w = _poly_value(terms, w)
                if val.get("psi_det", psi_w) != psi_w:
                    fail("psi_det", "cycle Gram determinant differs from Psi(w)")
                if val.get("matrix_tree_dual", psi_w) != psi_w:
                    fail("matrix_tree_dual", "Laplacian route differs from Psi(w)")
                vol = Fraction(q - 1, q) ** h1 * _poly_value(terms, nu)
                if val.get("fibre_volume", vol) != vol:
                    fail("fibre_volume", "fibre volume differs from (1-1/q)^h1 Psi(nu)")
            elif "psi_det" in val and "matrix_tree_dual" in val:
                if val["psi_det"] != val["matrix_tree_dual"]:
                    fail("psi_det", "Gram and Laplacian routes disagree")
                    fail("matrix_tree_dual", "Gram and Laplacian routes disagree")
        return bad


# lattice: Smith normal form and Bareiss on weighted cycle Gram matrices


class Lattice(Workload):
    """Weighted cycle lattices, verified through two determinant routes.

    The seeded stream uses the families on which the seed's Smith form
    finishes within milliseconds for any weights in 1..5 (K4, 2x3 and 3x3
    grids, thetas with 4 to 6 edges, random multigraphs with h1 of 3 to 5),
    at fixed sizes; the seed draws ids, orientations, weights and the random
    multigraphs.
    Larger matrices, on which the seed's Smith form may or may not finish
    depending on the weights, enter with fixed ids and weights, so that every
    seed meets the same known defects: weighted K6 and the weighted 4x4 grid
    never finish at the seed and are cut by the per-call deadline.
    """

    name = "lattice"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = random.Random(f"lattice-{seed}")
        items = []  # (name, graph, weights)
        fixed = [
            ("K6w", build_graph(6, complete_pairs(6)), None),
            ("G4x4w", build_graph(16, grid_pairs(4, 4)), None),
            ("K5w", build_graph(5, complete_pairs(5)), None),
            ("T8w", build_graph(2, theta_pairs(8)), None),
            ("K6one", build_graph(6, complete_pairs(6)), 1),
            ("G4x4one", build_graph(16, grid_pairs(4, 4)), 1),
            ("G3x4one", build_graph(12, grid_pairs(3, 4)), 1),
        ]
        for name, g, ones in fixed:
            items.append((name, g, {e: 1 for e in g.edge_ids} if ones else rule_weights(g)))
        seeded = []
        for i in range(3):
            seeded.append((f"K4.{i}", 4, complete_pairs(4)))
            seeded.append((f"G2x3.{i}", 6, grid_pairs(2, 3)))
            seeded.append((f"G3x3.{i}", 9, grid_pairs(3, 3)))
            seeded.append((f"T{4 + i}", 2, theta_pairs(4 + i)))
        for i in range(6):
            h1, nv = 3 + i // 2, 5 + i % 2
            seeded.append((f"R{i}", nv, random_connected_pairs(rng, nv, nv - 1 + h1)))
        for name, nv, pairs in seeded:
            g = build_graph(nv, pairs, rng, True)
            items.append((name, g, {e: rng.randint(1, 5) for e in g.edge_ids}))
        self.instances = items
        for name, g, w in items:
            for call, thunk in (
                ("tau_matrix", lambda g=g, w=w: hk.tau_matrix(g, w)),
                ("component_group", lambda g=g, w=w: hk.component_group(g, w)),
                ("tropical_jacobian", lambda g=g, w=w: hk.tropical_jacobian(g, w)),
                ("psi_det", lambda g=g, w=w: hk.psi_det(g, w)),
                ("matrix_tree_dual", lambda g=g, w=w: hk.matrix_tree_dual(g, w)),
            ):
                self.tasks.append(Task(f"{name}/{call}", call, thunk, LATTICE_DEADLINE, len(g.edges)))

    def verify(self, outcomes):
        bad: dict[int, str] = {}
        by_key = {t.key: i for i, t in enumerate(self.tasks)}
        for name, g, w in self.instances:
            idx = {c: by_key[f"{name}/{c}"] for c in (
                "tau_matrix", "component_group", "tropical_jacobian", "psi_det", "matrix_tree_dual")}
            val = {c: outcomes[i].value for c, i in idx.items() if outcomes[i].error is None}

            def fail(call, why):
                if call in val:
                    bad[idx[call]] = why

            h1 = _betti1(g)
            dets = {c: val[c] for c in ("psi_det", "matrix_tree_dual") if c in val}
            if "tropical_jacobian" in val:
                torus = val["tropical_jacobian"]
                dets["tropical_jacobian"] = torus.covolume
                if torus.rank != h1:
                    fail("tropical_jacobian", "torus rank differs from betti1")
                if "tau_matrix" in val and val["tau_matrix"].entries != torus.gram.entries:
                    fail("tau_matrix", "Gram matrix differs from the torus Gram")
            if "tau_matrix" in val:
                m = val["tau_matrix"].entries
                if len(m) != h1 or any(m[i][j] != m[j][i] for i in range(h1) for j in range(h1)):
                    fail("tau_matrix", "Gram matrix is not symmetric of size betti1")
            if "component_group" in val:
                factors = val["component_group"].invariant_factors
                order = val["component_group"].order
                if len(factors) != h1 or any(d < 1 for d in factors) or any(
                    y % x for x, y in zip(factors, factors[1:])
                ):
                    fail("component_group", "invariant factors break the divisibility chain")
                dets["component_group"] = order
            if len(set(dets.values())) > 1:
                for c in dets:
                    fail(c, "group order and determinants disagree: " + repr(dets))
        return bad


# strata: max-flow semistability, genericity scan, strata complex


STRATA_COMPLEX_CASES = [
    # (name, vertex count, pairs, eta by index into the sorted vertex ids, N)
    ("T3", 2, theta_pairs(3), {0: -1, 1: 1}, 2),
    ("T3", 2, theta_pairs(3), {0: -1, 1: 1}, 3),
    ("T4", 2, theta_pairs(4), {0: -1, 1: 1}, 2),
    ("T4", 2, theta_pairs(4), {0: -1, 1: 1}, 3),
    ("T5", 2, theta_pairs(5), {0: -1, 1: 1}, 2),
    ("C3", 3, cycle_pairs(3), {0: -1, 1: 1}, 2),
    ("C3", 3, cycle_pairs(3), {0: -1, 1: 1}, 3),
    ("C4", 4, cycle_pairs(4), {0: -1, 1: 1}, 2),
    ("C4", 4, cycle_pairs(4), {0: -1, 1: 1}, 3),
]

GENERIC_CASES = [(f"T{k}", 2, theta_pairs(k), {0: -1, 1: 1}, 2) for k in range(8, 15)] + [
    ("T6", 2, theta_pairs(6), {}, 2),
    ("C4", 4, cycle_pairs(4), {}, 2),
    ("K4", 4, complete_pairs(4), {}, 3),
]

GRID_POOL_SEED = 2020
GRID_POOL_SIZE = 400
# 86 calls a pass: call_p90_ms, the pooled nearest rank 0.9 * 86 * passes, then
# falls 40% into the cluster of the ninth-slowest call (theta12 is_generic),
# not at the low edge of it, where a few fast samples move it
GRID_PER_PASS = 58
STRATA_CYCLES = 8
LONG_CYCLE = 3000


def _eta(graph: Multigraph, values: dict) -> dict:
    names = sorted(graph.vertices)
    return {v: values.get(i, 0) for i, v in enumerate(names)}


def _random_orbit(rng: random.Random, p_generic: float, p_segment: float) -> EdgeOrbit:
    r = rng.random()
    if r < p_generic:
        return EdgeOrbit("generic")
    if r < p_generic + p_segment:
        return EdgeOrbit("segment", rng.choice((-1, 0)))
    return EdgeOrbit("point", rng.choice((-1, 0, 1)))


def grid_semistable_pool():
    """The fixed pool of orbit assignments on the 5x5 grid (about half semistable)."""
    rng = random.Random(GRID_POOL_SEED)
    g = build_graph(25, grid_pairs(5, 5))
    names = sorted(g.vertices)
    pool = []
    for _ in range(GRID_POOL_SIZE):
        n = rng.choice((2, 3))
        eta = {v: 0 for v in names}
        a, b, c, d = rng.sample(names, 4)
        k = rng.randint(1, n)
        eta[a] += k
        eta[b] -= k
        k = rng.randint(1, n)
        eta[c] += k
        eta[d] -= k
        spec = {e: _random_orbit(rng, 0.5, 0.43) for e in sorted(g.edge_ids)}
        pool.append((StabilityParam(eta, n), spec))
    return g, pool


def pool_digest(pool) -> str:
    text = repr([(sorted(p.eta.items()), p.N, sorted(s.items())) for p, s in pool])
    return hashlib.sha256(text.encode()).hexdigest()


def cycle_semistable(n: int, rng: random.Random | None):
    """An orbit assignment on an n-cycle, with the cycle's walk for the interval test.

    Without rng: canonical ids and orientation, every edge Segment(0), eta = +2
    and -2 on opposite vertices, N = 2, which is semistable.
    """
    g = build_graph(n, cycle_pairs(n), rng, relabel=True)
    adj: dict[str, list] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.head].append(e)
        adj[e.tail].append(e)
    walk, edges_in_order, prev = [min(g.vertices)], [], None
    while len(edges_in_order) < n:
        e = next(x for x in adj[walk[-1]] if x.id != prev)
        walk.append(e.head if e.tail == walk[-1] else e.tail)
        edges_in_order.append(e)
        prev = e.id
    walk.pop()
    eta = {v: 0 for v in g.vertices}
    if rng is None:
        eta[walk[0]], eta[walk[n // 2]] = 2, -2
        return g, StabilityParam(eta, 2), {e: EdgeOrbit("segment", 0) for e in g.edge_ids}, walk, edges_in_order
    # orbits drawn around the solution c = c0 + t z for a random t, then, in
    # about half the instances, one edge moved off it (usually infeasible)
    N = rng.choice((2, 3))
    a, b = rng.sample(walk, 2)
    k = rng.randint(1, 2 * N)
    eta[a] += k
    eta[b] -= k
    t, s, spec, c = rng.randint(-N, N), 0, {}, {}
    for v, e in zip(walk, edges_in_order):
        s += eta[v]
        c[e.id] = t + s if e.tail == v else -(t + s)
        r = rng.random()
        if r < 0.2:
            spec[e.id] = EdgeOrbit("generic")
        elif r < 0.9 or c[e.id] % N:
            spec[e.id] = EdgeOrbit("segment", c[e.id] // N - (c[e.id] % N == 0 and rng.random() < 0.5))
        else:
            spec[e.id] = EdgeOrbit("point", c[e.id] // N)
    if rng.random() < 0.5:
        e = rng.choice(edges_in_order)
        spec[e.id] = EdgeOrbit("point", c[e.id] // N + 2)
    return g, StabilityParam(eta, N), spec, walk, edges_in_order


def cycle_interval_verdict(param, spec, walk, edges_in_order) -> bool:
    """Semistability on a cycle by intersecting integer intervals.

    Every integer solution of d(c) = -eta on a cycle is c = c0 + t z, where z
    is the cycle vector; along the walk v0, v1, ... the flow on the i-th edge
    is t + S_i with S_i the prefix sum of eta. Semistable exactly when some
    integer t puts every coordinate inside its orbit's interval.
    """
    N = param.N
    lo_t, hi_t = -math.inf, math.inf
    s = 0
    for i, e in enumerate(edges_in_order):
        s += param.eta[walk[i]]
        z = 1 if e.tail == walk[i] else -1
        o = spec[e.id]
        if o.kind == "generic":
            continue
        lo = N * o.level
        hi = lo if o.kind == "point" else N * (o.level + 1)
        # z (t + s) in [lo, hi]
        if z == 1:
            lo_t, hi_t = max(lo_t, lo - s), min(hi_t, hi - s)
        else:
            lo_t, hi_t = max(lo_t, -hi - s), min(hi_t, -lo - s)
    return lo_t <= hi_t


class Strata(Workload):
    """Max-flow semistability tests, genericity scans and strata complexes.

    strata_complex and is_generic cases are fixed (their answers are checked
    against digests recorded at the reference commit); theta5 runs at N = 2 only, because
    at N = 3 a single call takes about 13 s at the seed. The seed draws which
    grid assignments of the fixed pool run and the random cycle instances.
    """

    name = "strata"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = random.Random(f"strata-{seed}")
        golden = load_golden()["strata"]
        self.expected: dict[str, object] = {}  # task key -> digest or verdict
        self.cycles: dict[str, tuple] = {}
        for name, nv, pairs, eta, N in STRATA_COMPLEX_CASES:
            g = build_graph(nv, pairs)
            key = f"{name}N{N}/strata_complex"
            param = StabilityParam(_eta(g, eta), N)
            self.expected[key] = golden["strata_complex"][key]
            self.tasks.append(
                Task(key, "strata_complex", lambda g=g, p=param: hk.strata_complex(g, p), STRATA_DEADLINE, len(pairs))
            )
        for name, nv, pairs, eta, N in GENERIC_CASES:
            g = build_graph(nv, pairs)
            key = f"{name}{'eta' if eta else 'zero'}N{N}/is_generic"
            param = StabilityParam(_eta(g, eta), N)
            self.expected[key] = golden["is_generic"][key]
            self.tasks.append(
                Task(key, "is_generic", lambda g=g, p=param: hk.is_generic(g, p), STRATA_DEADLINE, len(pairs))
            )
        grid, pool = grid_semistable_pool()
        if pool_digest(pool) != golden["grid_pool_digest"]:
            raise RuntimeError("the 5x5 grid pool differs from the one the verdicts were recorded for")
        # as many semistable as unstable assignments in every pass
        verdicts = golden["grid_verdicts"]
        chosen = []
        for bit in "01":
            chosen += rng.sample([j for j in range(GRID_POOL_SIZE) if verdicts[j] == bit], GRID_PER_PASS // 2)
        for j in sorted(chosen):
            param, spec = pool[j]
            key = f"grid{j}/is_semistable"
            self.expected[key] = golden["grid_verdicts"][j] == "1"
            self.tasks.append(
                Task(key, "is_semistable", lambda p=param, s=spec: hk.is_semistable(grid, p, s), STRATA_DEADLINE, 40)
            )
        step = 700 // STRATA_CYCLES
        sizes = [200 + step * i + rng.randrange(step) for i in range(STRATA_CYCLES)] + [LONG_CYCLE]
        for i, n in enumerate(sizes):
            inst = cycle_semistable(n, rng if n != LONG_CYCLE else None)
            g, param, spec = inst[:3]
            key = f"C{n}.{i}/is_semistable"
            self.cycles[key] = inst
            self.tasks.append(
                Task(key, "is_semistable", lambda g=g, p=param, s=spec: hk.is_semistable(g, p, s), STRATA_DEADLINE, n)
            )

    def verify(self, outcomes):
        bad: dict[int, str] = {}
        for i, (task, out) in enumerate(zip(self.tasks, outcomes)):
            if out.error is not None:
                continue
            if task.key in self.cycles:
                _, param, spec, walk, order = self.cycles[task.key]
                if out.value != cycle_interval_verdict(param, spec, walk, order):
                    bad[i] = "verdict differs from the cycle interval test"
            elif task.call == "strata_complex":
                if not out.value.connected:
                    bad[i] = "strata complex is not connected"
                elif canon(out.value) != self.expected[task.key]:
                    bad[i] = "strata complex differs from the recorded digest"
            elif out.value != self.expected[task.key]:
                bad[i] = "verdict differs from the recorded one"
        return bad


# cli: one subprocess per call


def _doc(graph: Multigraph) -> str:
    return json.dumps(
        {"vertices": list(graph.vertices), "edges": [{"id": e.id, "head": e.head, "tail": e.tail} for e in graph.edges]},
        separators=(",", ":"),
    )


def _cli_graphs() -> dict:
    theta3 = Multigraph(["u", "v"], [Edge(f"e{i}", "u", "v") for i in (1, 2, 3)])
    theta4 = Multigraph(["u", "v"], [Edge(f"e{i}", "u", "v") for i in (1, 2, 3, 4)])
    out = {"theta3": theta3, "theta4": theta4}
    for n in (3, 4, 5, 6):
        vs = [f"v{i}" for i in range(1, n + 1)]
        out[f"C{n}"] = Multigraph(vs, [Edge(f"e{i}", vs[i % n], vs[i - 1]) for i in range(1, n + 1)])
    vs = [f"v{i}" for i in range(1, 5)]
    pairs = [(vs[j], vs[i]) for i in range(4) for j in range(i + 1, 4)]
    out["K4"] = Multigraph(vs, [Edge(f"e{i + 1}", h, t) for i, (h, t) in enumerate(pairs)])
    return out


def cli_slots() -> list[tuple[str, list[list[str]]]]:
    """Each slot is one kind of CLI call with its pool of argument vectors."""
    G = _cli_graphs()

    def doc(name):
        return _doc(G[name])

    def wmap(name, fn):
        return json.dumps({e: fn(i) for i, e in enumerate(sorted(G[name].edge_ids))}, separators=(",", ":"))

    def eta(name, values):
        vs = sorted(G[name].vertices)
        return json.dumps({v: values.get(i, 0) for i, v in enumerate(vs)}, separators=(",", ":"))

    def orbits(name, kinds):
        out = {}
        for i, e in enumerate(sorted(G[name].edge_ids)):
            kind, level = kinds[i % len(kinds)]
            out[e] = "generic" if kind == "generic" else {kind: level}
        return json.dumps(out, separators=(",", ":"))

    rule = lambda i: i % 5 + 1  # noqa: E731
    val = lambda i: i % 3 + 1  # noqa: E731
    return [
        ("psi", [["psi", "--graph", doc(g), "--method", "both"] for g in ("theta3", "C4", "C5", "K4")]
         + [["psi", "--graph", doc("C4"), "--method", "both", "--weights", wmap("C4", rule)]]),
        ("tamagawa", [["tamagawa", "--graph", doc(g), "--weights", wmap(g, rule)] for g in ("theta3", "C4", "K4")]),
        ("volume", [["volume", "--graph", doc(g), "--weights", wmap(g, val), "--q", str(q)]
                    for g, q in (("theta3", 2), ("C5", 3), ("K4", 5))]),
        ("total-volume", [["total-volume", "--graph", doc(g)] for g in ("C6", "K4", "theta4")]),
    ] + [
        # four exhaustive oracle calls of equal cost (32768 residue classes)
        # per pass, so that the 90th-percentile call falls inside them
        ("total-volume", [["total-volume", "--graph", doc("K4"), "--oracle", "--p", "2", "--k", "5", "--format", f]
                          for f in ("json", "table")])
    ] * 4 + [
        ("total-volume", [["total-volume", "--graph", doc("K4"), "--oracle", "--p", "3", "--k", "6",
                           "--monte-carlo", "--samples", "2000", "--seed", str(s)] for s in (1, 2, 3)]),
        ("point-count", [["point-count", "--graph", doc(g), "--q", str(q)] for g, q in (("C6", 2), ("K4", 3), ("theta3", 5))]),
        ("stability", [["stability", "--graph", doc("theta3"), "--eta", eta("theta3", {0: -1, 1: 1}), "--n", "2",
                        "--orbits", orbits("theta3", kinds)]
                       for kinds in ([("generic", 0), ("segment", 0), ("point", 1)],
                                     [("segment", 0)], [("point", 0), ("segment", -1)])]
         + [["stability", "--graph", doc("C4"), "--eta", eta("C4", {0: 2, 2: -2}), "--n", "2",
             "--orbits", orbits("C4", [("segment", 0), ("generic", 0)])]]),
        ("generic", [["generic", "--graph", doc(g), "--n", "2", "--search", str(r)] for g, r in (("theta3", 2), ("C4", 1), ("theta4", 1))]),
        ("strata", [["strata", "--graph", doc(g), "--eta", eta(g, {0: -1, 1: 1}), "--n", str(n)]
                    for g, n in (("theta3", 2), ("C3", 2), ("C3", 3))]),
        ("strata", [["strata", "--graph", doc(g), "--eta", eta(g, {0: -1, 1: 1}), "--n", str(n), "--format", "dot"]
                    for g, n in (("theta3", 2), ("C3", 2), ("C3", 3))]),
        ("trop", [["trop", "--graph", doc(g), "--weights", wmap(g, rule), "--q", str(q)] for g, q in (("theta3", 2), ("C4", 3), ("K4", 2))]),
        ("fragment", [["fragment", "--graph", doc(g), "--counts", wmap(g, val)] for g in ("theta3", "C3", "C5")]),
        ("domain-error", [
            ["volume", "--graph", doc("theta3"), "--weights", wmap("theta3", val), "--q", "1"],
            ["tamagawa", "--graph", doc("C4"), "--weights", wmap("C4", lambda i: 0)],
            ["psi", "--graph", '{"vertices": ["a"]}'],
        ]),
        ("usage-error", [["psi"], ["psi", "--graph", doc("theta3"), "--method", "nope"], ["frobnicate"]]),
    ]


def cli_digest(code: int, stdout: bytes) -> str:
    return hashlib.sha256(f"{code}\n".encode() + stdout).hexdigest()


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("HYPERKIRCH_BUDGET", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ru_maxrss (KiB) of every CLI child process, read from its own rusage when it is reaped
cli_child_maxrss_kb: list[int] = []


def cli_subprocess(root: Path, argv: list[str], env: dict):
    """Run one CLI call in a fresh interpreter; return (exit code, stdout).

    The child is reaped with os.wait4 rather than Popen.wait, so that its own
    peak RSS is recorded, not the running maximum over every child of this
    process.
    """
    cmd = [sys.executable, "-m", "hyperkirch.cli", *argv]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    end = time.monotonic() + CLI_TIMEOUT
    chunks = []
    with proc.stdout, selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = end - time.monotonic()
            if left <= 0 or not sel.select(left):
                proc.kill()
                _, status, _ = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise subprocess.TimeoutExpired(cmd, CLI_TIMEOUT)
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cli_child_maxrss_kb.append(usage.ru_maxrss)
    return proc.returncode, b"".join(chunks)


def cli_in_process(argv: list[str]):
    from hyperkirch import cli

    out, err = _io.StringIO(), _io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue().encode()


class Cli(Workload):
    """Every subcommand as its own process: start-up, io parsing and rendering, the oracle.

    The seed picks one argument vector per slot from fixed pools; every pool
    entry's exit code and stdout were recorded at the reference commit. Expected
    domain and usage errors count as successes only when both match.
    """

    name = "cli"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = random.Random(f"cli-{seed}")
        golden = load_golden()["cli"]
        self.expected = {}
        self.argvs = []
        for n, (slot, pool) in enumerate(cli_slots()):
            j = rng.randrange(len(pool))
            argv = pool[j]
            key = f"{slot}.{n}.{j}"
            self.expected[key] = golden[key]
            self.argvs.append((key, slot, argv))
        self.set_mode(in_process=False)

    def set_mode(self, in_process: bool) -> None:
        """Issue the calls as subprocesses or through cli.run in this process."""
        env = cli_env(self.root)
        self.tasks = []
        for key, slot, argv in self.argvs:
            if in_process:
                thunk = lambda argv=argv: cli_in_process(argv)  # noqa: E731
                deadline = CLI_TIMEOUT
            else:
                thunk = lambda argv=argv: cli_subprocess(self.root, argv, env)  # noqa: E731
                deadline = None
            self.tasks.append(Task(key, slot, thunk, deadline, len(" ".join(argv))))

    def warmup_tasks(self):
        # every call is a fresh interpreter; one call warms the file cache
        return [min(self.tasks, key=lambda t: t.size)]

    def verify(self, outcomes):
        bad = {}
        for i, (task, out) in enumerate(zip(self.tasks, outcomes)):
            if out.error is None and cli_digest(*out.value) != self.expected[task.key]:
                bad[i] = "exit code or stdout differs from the recorded digest"
        return bad


WORKLOADS = {w.name: w for w in (Forests, Lattice, Strata, Cli)}
