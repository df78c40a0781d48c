"""Record the answers that the strata and cli workloads check against.

    python3 perfbench/record_golden.py

Run from the root of a checkout of the commit whose answers are the
reference. Writes perfbench/golden.json: the sha256 of the exit code and
stdout of every CLI argument vector in the pools, the digest of every fixed
strata_complex answer, the fixed is_generic verdicts, and the verdict of
every orbit assignment in the 5x5 grid pool.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hyperkirch as hk  # noqa: E402
import workloads as w  # noqa: E402
from run import git_sha  # noqa: E402


def main() -> int:
    golden = {"recorded_from": git_sha(ROOT), "cli": {}, "strata": {"strata_complex": {}, "is_generic": {}}}
    env = w.cli_env(ROOT)
    for n, (slot, pool) in enumerate(w.cli_slots()):
        for j, argv in enumerate(pool):
            golden["cli"][f"{slot}.{n}.{j}"] = w.cli_digest(*w.cli_subprocess(ROOT, argv, env))
    for name, nv, pairs, eta, N in w.STRATA_COMPLEX_CASES:
        g = w.build_graph(nv, pairs)
        sc = hk.strata_complex(g, hk.StabilityParam(w._eta(g, eta), N))
        golden["strata"]["strata_complex"][f"{name}N{N}/strata_complex"] = w.canon(sc)
    for name, nv, pairs, eta, N in w.GENERIC_CASES:
        g = w.build_graph(nv, pairs)
        verdict = hk.is_generic(g, hk.StabilityParam(w._eta(g, eta), N))
        golden["strata"]["is_generic"][f"{name}{'eta' if eta else 'zero'}N{N}/is_generic"] = verdict
    grid, pool = w.grid_semistable_pool()
    verdicts = "".join("1" if hk.is_semistable(grid, p, s) else "0" for p, s in pool)
    golden["strata"]["grid_pool_digest"] = w.pool_digest(pool)
    golden["strata"]["grid_verdicts"] = verdicts
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"semistable share of the grid pool: {verdicts.count('1') / len(verdicts):.2f}", file=sys.stderr)
    print(f"is_generic verdicts: {golden['strata']['is_generic']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
