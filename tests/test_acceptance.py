"""End-to-end acceptance checks.

Ten headline identities and behaviours, each asserted exactly and reported
as one ACCEPTANCE line on stdout (run with -s to see them live). Stated
time budgets are asserted, not aspirational.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    brute_forest_count,
    cycle_graph,
    iso_catalog,
    loop_graph,
    random_connected_multigraph,
    random_multigraph,
    theta_graph,
)
from hyperkirch import (
    LocalFieldParams,
    StabilityParam,
    central_fibre_point_count,
    component_group,
    equal,
    fibre_volume,
    generic_orbit,
    is_generic,
    is_semistable,
    matrix_tree_dual,
    point_orbit,
    psi_delcon,
    psi_det,
    psi_enum,
    segment_orbit,
    strata_complex,
    total_volume,
    total_volume_padic_oracle,
    trop_volume_check,
)
from hyperkirch.io import graph_to_doc


@contextmanager
def gate(num: int, label: str, limit: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {label}")
        raise
    elapsed = time.monotonic() - start
    if limit is not None and elapsed > limit:
        print(f"\nACCEPTANCE {num}: FAIL - {label} ({elapsed:.2f}s over {limit:.0f}s budget)")
        raise AssertionError(f"time budget exceeded: {elapsed:.2f}s > {limit:.0f}s")
    print(f"\nACCEPTANCE {num}: PASS - {label} [{elapsed:.2f}s]")


def small_multigraphs(max_edges: int, rng: random.Random, extra: int):
    """Every class on up to three vertices, plus seeded samples on more."""
    graphs = list(iso_catalog(max_edges))
    for _ in range(extra):
        graphs.append(
            random_multigraph(rng, rng.randint(4, 6), rng.randint(1, max_edges))
        )
    return graphs


def test_01_loop_total_volume():
    with gate(1, "loop total volume is 1, oracle within its bound", limit=1.0):
        g = loop_graph()
        assert total_volume(g) == 1
        estimate, bound = total_volume_padic_oracle(g, LocalFieldParams(q=2, p=2, k=10))
        assert abs(estimate - 1) <= bound


def test_02_cycle_total_volumes():
    with gate(2, "N-cycle total volume is N, oracle agrees for N <= 4", limit=5.0):
        for n in range(1, 11):
            g = cycle_graph(n)
            assert total_volume(g) == n
            if n <= 4:
                est, bound = total_volume_padic_oracle(g, LocalFieldParams(q=3, p=3, k=6))
                assert abs(est - n) <= bound


def test_03_fibre_volume_formula():
    label = "fibre volume equals (1-1/q)^betti1 times component group order"
    with gate(3, label, limit=30.0):
        rng = random.Random(0xACC3)
        for g in small_multigraphs(6, rng, extra=12):
            h1 = g.betti1()
            for _ in range(20):
                nu = {e: rng.randint(1, 5) for e in g.edge_ids}
                order = component_group(g, nu).order
                for q in (2, 3, 5, 7):
                    assert fibre_volume(g, nu, q) == Fraction(q - 1, q) ** h1 * order


def test_04_engine_agreement():
    label = "four polynomial engines agree on connected graphs"
    with gate(4, label, limit=60.0):
        rng = random.Random(0xACC4)
        graphs = list(iso_catalog(7, connected_only=True))
        for _ in range(20):
            nv = rng.randint(4, 6)
            graphs.append(random_connected_multigraph(rng, nv, rng.randint(nv - 1, 7)))
        for g in graphs:
            poly = psi_delcon(g)
            assert equal(poly, psi_enum(g))
            for _ in range(50):
                w = {e: rng.randint(1, 10) for e in g.edge_ids}
                value = poly.evaluate(w)
                assert psi_det(g, w) == value
                assert matrix_tree_dual(g, w) == value


def test_05_deletion_contraction():
    label = "loop, bridge and ordinary edge recursions hold"
    with gate(5, label):
        rng = random.Random(0xACC5)
        for _ in range(200):
            g = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 8))
            psi = psi_delcon(g)
            eid = rng.choice(sorted(g.edge_ids))
            kind = g.classify_edge(eid)
            if kind == "loop":
                rest = psi_delcon(g.delete(eid))
                expected = {s | {eid}: c for s, c in rest.terms.items()}
            elif kind == "bridge":
                expected = dict(psi_delcon(g.contract(eid)).terms)
            else:
                deleted = psi_delcon(g.delete(eid))
                contracted = psi_delcon(g.contract(eid))
                expected = {s | {eid}: c for s, c in deleted.terms.items()}
                for s, c in contracted.terms.items():
                    expected[s] = expected.get(s, 0) + c
            assert {frozenset(s): c for s, c in psi.terms.items()} == {
                frozenset(s): c for s, c in expected.items()
            }


def test_06_fragmentation():
    label = "forest count of each fragmentation equals the polynomial value"
    with gate(6, label):
        rng = random.Random(0xACC6)
        for g in small_multigraphs(5, rng, extra=8):
            poly = psi_delcon(g)
            vectors = [{e: 1 for e in g.edge_ids}]
            for _ in range(3):
                vectors.append({e: rng.randint(1, 4) for e in g.edge_ids})
            for n in vectors:
                assert brute_forest_count(g.fragment(n)) == poly.evaluate(n)


def test_07_point_counts():
    label = "central fibre point count is forest count times q^betti1"
    with gate(7, label):
        rng = random.Random(0xACC7)
        theta = theta_graph()
        for q in (2, 3, 5, 7, 11):
            assert central_fibre_point_count(theta, q) == 3 * q * q
        for _ in range(20):
            g = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 6))
            q = rng.choice((2, 3, 5, 7))
            expected = brute_forest_count(g) * q ** g.betti1()
            assert central_fibre_point_count(g, q) == expected


def test_08_tropical_volume():
    label = "fibre volume matches the quotient torus covolume scaling"
    with gate(8, label):
        rng = random.Random(0xACC8)
        for g in small_multigraphs(6, rng, extra=10):
            for _ in range(3):
                nu = {e: rng.randint(1, 5) for e in g.edge_ids}
                for q in (2, 5):
                    assert trop_volume_check(g, nu, q)


def _brute_boundary(graph, c):
    out = {v: 0 for v in graph.vertices}
    for e in graph.edges:
        out[e.head] += c[e.id]
        out[e.tail] -= c[e.id]
    return out


def _brute_box_feasible(graph, eta, ranges):
    eids = sorted(graph.edge_ids)
    axes = [range(ranges[e][0], ranges[e][1] + 1) for e in eids]
    for point in itertools.product(*axes):
        c = dict(zip(eids, point))
        d = _brute_boundary(graph, c)
        if all(d[v] == -eta[v] for v in graph.vertices):
            return True
    return False


def test_09_stability_suite():
    label = "semistability brute force, genericity table, loop strata cycles"
    with gate(9, label, limit=60.0):
        rng = random.Random(0xACC9)
        for _ in range(120):
            g = random_multigraph(rng, rng.randint(2, 4), rng.randint(1, 5))
            N = rng.randint(1, 3)
            vals = [rng.randint(-2, 2) for _ in range(len(g.vertices) - 1)]
            eta = dict(zip(sorted(g.vertices), vals + [-sum(vals)]))
            if any(abs(x) > 3 for x in eta.values()):
                continue
            spec = {}
            n_generic = 0
            for e in sorted(g.edge_ids):
                roll = rng.random()
                if roll < 0.3 and n_generic < 2 and len(g.edges) <= 4:
                    spec[e] = generic_orbit()
                    n_generic += 1
                elif roll < 0.65:
                    spec[e] = segment_orbit(rng.randint(-2, 2))
                else:
                    spec[e] = point_orbit(rng.randint(-2, 2))
            mass = sum(abs(x) for x in eta.values())
            for orbit in spec.values():
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
            assert is_semistable(g, StabilityParam(eta, N), spec) == _brute_box_feasible(
                g, eta, ranges
            )

        theta = theta_graph()
        assert is_generic(theta, StabilityParam({"u": -1, "v": 1}, 2))
        assert not is_generic(theta, StabilityParam({"u": -2, "v": 2}, 2))
        assert not is_generic(theta, StabilityParam({"u": -1, "v": 1}, 1))

        loop = loop_graph()
        for N in range(1, 7):
            sc = strata_complex(loop, StabilityParam({"v1": 0}, N))
            assert len(sc.nodes) == N
            assert len(sc.adjacency) == N
            assert sc.connected
        assert strata_complex(theta, StabilityParam({"u": -1, "v": 1}, 2)).connected
        for _ in range(10):
            g = random_multigraph(rng, rng.randint(1, 3), rng.randint(1, 3))
            vals = [rng.randint(-1, 1) for _ in range(len(g.vertices) - 1)]
            eta = dict(zip(sorted(g.vertices), vals + [-sum(vals)]))
            assert strata_complex(g, StabilityParam(eta, rng.randint(1, 2))).connected


LOOP_DOC = json.dumps(
    {"vertices": ["v"], "edges": [{"id": "e", "head": "v", "tail": "v"}]}
)
THETA_DOC = json.dumps(graph_to_doc(theta_graph()))
CYCLE3_DOC = json.dumps(graph_to_doc(cycle_graph(3)))
ORBITS_DOC = '{"e1":"generic","e2":"generic","e3":"generic"}'
WEIGHTS_DOC = '{"e1":2,"e2":3,"e3":5}'

GOLDEN_COMMANDS = [
    ["psi", "--graph", THETA_DOC, "--method", "both"],
    ["psi", "--graph", THETA_DOC, "--weights", WEIGHTS_DOC],
    ["tamagawa", "--graph", THETA_DOC, "--weights", WEIGHTS_DOC],
    ["volume", "--graph", LOOP_DOC, "--weights", '{"e": 1}', "--q", "7"],
    ["volume", "--graph", LOOP_DOC, "--weights", '{"e": 1}', "--q", "7",
     "--format", "table"],
    ["total-volume", "--graph", CYCLE3_DOC],
    ["point-count", "--graph", THETA_DOC, "--q", "3"],
    ["stability", "--graph", THETA_DOC, "--eta", '{"u":-1,"v":1}', "--n", "2",
     "--orbits", ORBITS_DOC],
    ["generic", "--graph", THETA_DOC, "--eta", '{"u":-1,"v":1}', "--n", "2"],
    ["generic", "--graph", THETA_DOC, "--search", "1", "--n", "2"],
    ["strata", "--graph", THETA_DOC, "--eta", '{"u":-1,"v":1}', "--n", "2"],
    ["strata", "--graph", LOOP_DOC, "--eta", '{"v":0}', "--n", "3", "--format", "dot"],
    ["trop", "--graph", THETA_DOC, "--weights", '{"e1":1,"e2":1,"e3":1}', "--q", "2"],
    ["fragment", "--graph", LOOP_DOC, "--counts", '{"e": 3}'],
]


def _cli_stdout(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hyperkirch.cli", *argv],
        capture_output=True,
        env=dict(os.environ),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_10_cli_determinism():
    label = "golden CLI outputs are byte-identical across runs"
    with gate(10, label):
        for argv in GOLDEN_COMMANDS:
            assert _cli_stdout(argv) == _cli_stdout(argv), argv
        oracle = [
            "total-volume", "--graph", CYCLE3_DOC, "--oracle", "--p", "2", "--k", "8",
        ]
        runs = [_cli_stdout(oracle) for _ in range(4)]
        assert len(set(runs)) == 1
