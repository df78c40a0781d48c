"""hyperkirch benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload forests --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the library from src/.
The workload's fixed instance set (a pass) is run again and again, one call
at a time, until the timed passes add up to --seconds. Every result is
checked after its pass, outside the timed region. The last line of stdout
is {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones, from passes that run with every library layer wrapped in spans,
alternating with untraced passes. A readable report, the run environment and
failures by type go to stderr; the same record, and the spans of a traced
run, go to .bench_out/.

Times are reported at a fixed reference speed. On a shared host the speed of
the CPU drifts by a fifth within a minute, the same for the library and for
any Python loop, so a fixed pure-Python reference loop is timed at the start
and end of every pass and about every REF_INTERVAL_S between calls, and each
call's time is multiplied by REF_NOMINAL_S over the median time of the
REF_NEAREST loop samples nearest to it. Time spent waiting for a deadline is
a wall-clock cap and is not scaled. The same metrics from raw times go to the
stderr record as well, under raw_metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOAD_NAMES = ("forests", "lattice", "strata", "cli")
SETUP_PROBES = 9
STARTUP_PROBES = 5
REF_ITERATIONS = 200_000
REF_NOMINAL_S = 0.02
REF_INTERVAL_S = 0.2
REF_NEAREST = 4
SUBCOMMANDS = ("psi", "tamagawa", "volume", "total-volume", "point-count", "stability", "generic",
               "strata", "trop", "fragment")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_sample() -> float:
    """Seconds taken by a fixed integer loop that touches no library code."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def speed_scale(samples) -> float:
    return REF_NOMINAL_S / statistics.median(samples)


def prepare(args):
    """Build the workload and warm it up: everything setup_s covers."""
    import workloads

    workloads.install_alarm()
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    for task in wl.warmup_tasks():
        workloads.run_task(task)
    return wl


def measure_setup(args) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to the end of its warm-up, scaled and raw."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        scale = speed_scale([reference_sample() for _ in range(3)])
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - t0)
            times.append(raw[-1] * scale)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not finish")
    return statistics.median(times), statistics.median(raw)


def measure_startup() -> float:
    """Median milliseconds for a fresh interpreter that imports hyperkirch.cli and exits."""
    import workloads

    env = workloads.cli_env(ROOT)
    times = []
    for _ in range(STARTUP_PROBES):
        scale = speed_scale([reference_sample() for _ in range(3)])
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hyperkirch.cli"], cwd=ROOT, env=env, check=True)
        times.append((time.perf_counter() - t0) * 1e3 * scale)
    return statistics.median(times)


class Pass:
    """Timings and failures of one pass; answer values are dropped once checked."""

    def __init__(self, wall, scales, seconds, errors, bad, calls):
        self.wall = wall  # raw seconds, reference samples excluded
        self.scales = scales  # per call: reference speed over the speed around the call
        self.seconds = seconds  # raw seconds per call
        self.errors = errors
        self.bad = bad  # task index -> failure type
        self.calls = calls

    def scaled(self, i: int) -> float:
        """Call i's time at the reference speed; a deadline wait stays as measured."""
        return self.seconds[i] if self.errors[i] == "deadline" else self.seconds[i] * self.scales[i]

    @property
    def scale(self) -> float:
        return statistics.median(self.scales)

    @property
    def scaled_wall(self) -> float:
        harness = self.wall - sum(self.seconds)
        return sum(self.scaled(i) for i in range(len(self.seconds))) + harness * self.scale


def run_pass(wl, reference: dict, tracer=None) -> Pass:
    """One timed pass, then its checks: second routes, and answers unchanged since the first pass."""
    import workloads

    gc.collect()
    samples = [(time.perf_counter(), reference_sample())]  # (start, seconds)
    ref_time = 0.0
    outcomes, starts = [], []
    t0 = time.perf_counter()
    for i, task in enumerate(wl.tasks):
        if tracer is not None:
            tracer.begin_request(i)
        starts.append(time.perf_counter())
        outcomes.append(workloads.run_task(task))
        if time.perf_counter() - samples[-1][0] >= REF_INTERVAL_S:
            samples.append((time.perf_counter(), reference_sample()))
            ref_time += samples[-1][1]
    wall = time.perf_counter() - t0 - ref_time
    samples.append((time.perf_counter(), reference_sample()))
    scales = []
    for start, o in zip(starts, outcomes):
        mid = start + o.seconds / 2
        near = sorted(samples, key=lambda s: abs(s[0] - mid))[:REF_NEAREST]
        scales.append(speed_scale([d for _, d in near]))
    if tracer is not None:
        tracer.paused = True
    try:
        wrong = wl.verify(outcomes)
    finally:
        if tracer is not None:
            tracer.paused = False
    bad = {i: o.error for i, o in enumerate(outcomes) if o.error is not None}
    for i, why in wrong.items():
        bad[i] = "wrong: " + why
    for i, o in enumerate(outcomes):
        if i not in bad:
            digest = workloads.canon(o.value)
            if reference.setdefault(i, digest) != digest:
                bad[i] = "wrong: answer differs from the first answer in this run"
    return Pass(wall, scales, [o.seconds for o in outcomes], [o.error for o in outcomes], bad,
                [t.call for t in wl.tasks])


def quantile(sorted_values, q):
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(passes, setup_s, workload, raw=False) -> dict[str, float]:
    """The end-to-end metrics; with raw=True from unscaled times, for the stderr record."""
    import workloads

    latencies = []
    attempted = failed = 0
    for p in passes:
        for i in range(len(p.seconds)):
            attempted += 1
            if i in p.bad:
                failed += 1
                latencies.append(float("inf"))
            else:
                latencies.append(p.seconds[i] if raw else p.scaled(i))
    latencies.sort()
    walls = [p.wall if raw else p.scaled_wall for p in passes]
    if workload == "cli":
        # the workload's own processes are the CLI children, not this harness
        rss = max(workloads.cli_child_maxrss_kb)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": (attempted - failed) / sum(walls),
        "call_p50_ms": quantile(latencies, 0.5) * 1e3,
        "call_p90_ms": quantile(latencies, 0.9) * 1e3,
        "verified_frac": (attempted - failed) / attempted,
        "peak_rss_mb": rss / 1024,
    }


def run_untraced(wl, seconds):
    passes, reference = [], {}
    while not passes or sum(p.wall for p in passes) < seconds:
        passes.append(run_pass(wl, reference))
    return passes


def run_traced(wl, seconds):
    """Alternate untraced and traced passes; return per-layer metrics and the passes."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    plain, traced, spawned, reference = [], [], [], {}
    while not traced or sum(p.wall for p in plain + traced + spawned) < seconds:
        if wl.name == "cli":
            wl.set_mode(in_process=False)
            spawned.append(run_pass(wl, {}))
            wl.set_mode(in_process=True)
        plain.append(run_pass(wl, reference))
        layers.install(tracer)
        try:
            t = run_pass(wl, reference, tracer)
        finally:
            tracer.uninstall()
        traced.append(t)
    scale = statistics.median(t.scale for t in traced)
    metrics = layers.layer_metrics(tracer, len(traced), sum(t.wall for t in traced), scale)
    untraced_s = statistics.median(p.scaled_wall for p in plain)
    traced_s = statistics.median(t.scaled_wall for t in traced)
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.traced_wall_s"] = traced_s
    metrics["trace.overhead"] = traced_s / untraced_s
    per_sub: dict[str, list] = {}
    for p in spawned:
        for i, call in enumerate(p.calls):
            per_sub.setdefault(call, []).append(p.scaled(i) * 1e3)
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = statistics.median(per_sub[sub]) if sub in per_sub else 0.0
    metrics["cli.startup_ms"] = measure_startup() if wl.name == "cli" else 0.0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{wl.name}.spans.tsv.gz")
    return metrics, plain + traced + spawned, len(tracer)


def run_all(args) -> int:
    """Run every workload in its own fresh process; print {workload: result}."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not __debug__:
        print("refusing to run under python -O: smith_normal_form's certificate asserts are part of "
              "the verified computation", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "hyperkirch" / "__init__.py").is_file():
        print(f"no hyperkirch source under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    os.environ.pop("HYPERKIRCH_BUDGET", None)
    # one client, one call at a time: keep this process, its reference loop
    # and its child processes on one CPU, so that the loop measures the speed
    # of the CPU the calls run on
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: running unpinned: {exc}", file=sys.stderr)

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        prepare(args)
        print("ready", flush=True)
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    import workloads

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "debug": __debug__,
        "deadline_s": {
            "forests": workloads.FORESTS_DEADLINE, "lattice": workloads.LATTICE_DEADLINE,
            "strata": workloads.STRATA_DEADLINE, "cli": workloads.CLI_TIMEOUT,
        }[args.workload],
        "clients": 1,
    }
    wl = prepare(args)
    # the instance set lives for the whole run; keep the collector from rescanning it
    gc.freeze()
    quiet = []
    if args.trace:
        import layers

        values, passes, env["spans"] = run_traced(wl, args.seconds)
        names = spec["per_layer"]
        quiet = [m for m in layers.EXERCISED[args.workload] if not values.get(m)]
    else:
        passes = run_untraced(wl, args.seconds)
        setup_s, raw_setup_s = measure_setup(args)
        values = end_to_end(passes, setup_s, args.workload)
        env["raw_metrics"] = end_to_end(passes, raw_setup_s, args.workload, raw=True)
        names = spec["end_to_end"]
    failures: dict[str, int] = {}
    for p in passes:
        for why in p.bad.values():
            kind = "wrong" if why.startswith("wrong") else why
            failures[kind] = failures.get(kind, 0) + 1
    examples = sorted({(wl.tasks[i].key, why) for p in passes for i, why in p.bad.items()})
    env["passes"] = len(passes)
    env["calls_per_pass"] = len(wl.tasks)
    env["failures"] = failures
    env["failed_calls"] = [f"{k}: {w}" for k, w in examples[:50]]
    env["speed_scale_median"] = statistics.median(p.scale for p in passes)
    env["raw_wall_s_median"] = statistics.median(p.wall for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    result = {
        "correct": failures.get("wrong", 0) == 0,
        "attempted": sum(len(p.seconds) for p in passes),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps(env, sort_keys=True), file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:45s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    if quiet:
        print(f"per-layer metrics that {args.workload} exists to exercise read zero: {quiet}; "
              "the tracing wrappers no longer reach these layers", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
