"""The benchmark's golden vectors, checked in process.

perfbench/golden.json holds the sha256 of the exit code and stdout of every
CLI argument vector in perfbench/workloads.py's pools, the digest of every
fixed strata_complex answer, and the semistability verdict of every
assignment in the strata workload's 5x5 grid pool, recorded at a reference
commit. Output must stay byte-identical to them.
"""

import importlib.util
import random
from pathlib import Path

from hyperkirch import StabilityParam, is_semistable, strata_complex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_golden_vectors(monkeypatch):
    monkeypatch.delenv("HYPERKIRCH_BUDGET", raising=False)
    w = _workloads()
    golden = w.load_golden()["cli"]
    checked = set()
    for n, (slot, pool) in enumerate(w.cli_slots()):
        for j, argv in enumerate(pool):
            key = f"{slot}.{n}.{j}"
            assert w.cli_digest(*w.cli_in_process(argv)) == golden[key], key
            checked.add(key)
    assert checked == set(golden)


def test_strata_golden_digests(monkeypatch):
    monkeypatch.delenv("HYPERKIRCH_BUDGET", raising=False)
    w = _workloads()
    golden = w.load_golden()["strata"]["strata_complex"]
    checked = set()
    for name, nv, pairs, eta, N in w.STRATA_COMPLEX_CASES:
        g = w.build_graph(nv, pairs)
        key = f"{name}N{N}/strata_complex"
        assert w.canon(strata_complex(g, StabilityParam(w._eta(g, eta), N))) == golden[key], key
        checked.add(key)
    assert checked == set(golden)


def test_strata_semistable_verdicts():
    """The strata workload's semistability calls: all 400 assignments of the
    5x5 grid pool give their recorded verdicts, and seeded cycles of 200 to
    900 edges, with the canonical 3000-edge one, agree with the workload's
    interval test."""
    w = _workloads()
    golden = w.load_golden()["strata"]
    grid, pool = w.grid_semistable_pool()
    assert w.pool_digest(pool) == golden["grid_pool_digest"]
    verdicts = "".join("1" if is_semistable(grid, param, spec) else "0" for param, spec in pool)
    assert verdicts == golden["grid_verdicts"]
    rng = random.Random("golden-cycles")
    seen = set()
    for n in [200 + 50 * i for i in range(15)] + [w.LONG_CYCLE]:
        g, param, spec, walk, order = w.cycle_semistable(n, rng if n != w.LONG_CYCLE else None)
        verdict = is_semistable(g, param, spec)
        assert verdict == w.cycle_interval_verdict(param, spec, walk, order), n
        seen.add(verdict)
    assert seen == {True, False}
