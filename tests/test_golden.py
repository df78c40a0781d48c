"""The benchmark's golden vectors, checked in process.

perfbench/golden.json holds the sha256 of the exit code and stdout of every
CLI argument vector in perfbench/workloads.py's pools, and the digest of
every fixed strata_complex answer, recorded at a reference commit. Output
must stay byte-identical to them.
"""

import importlib.util
from pathlib import Path

from hyperkirch import StabilityParam, strata_complex

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
