"""discbraid benchmark: one workload per run, end to end or layer by layer.

Run from the root of a discbraid checkout:

    python3 discbench/run.py --workload signature3 --seed 1 --seconds 35 --trace 0

The workload's fixed task list (``workloads.py``) runs in rounds for
``--seconds``; round r draws its inputs from the seed and r.  A round starts
only if a round of median length would still end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of import, flow and spec
  construction, and one warm-up call;
* ``wall_s``: median time of one round, i.e. of the fixed task list;
* ``configs_per_s``: Monte Carlo samples per second, median over rounds.
  A sample is an n-point configuration of an estimate (accepted or
  rejected) or a cloud point of a sampled length;
* ``point_evals_per_s``: point evaluations of the flow per second, median
  over rounds: isotopy applications times cloud size for sampled lengths,
  configurations times strands for estimates;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` is a separate run that repeats each round with spans wrapped
around the program's layers (``tracer.py``) and reports the per-layer
metrics, the deterministic counts of round 0 and the tracing overhead
(traced minus untraced time of the same round).  Spans are written to
``discbench/out/``.

Every output is checked (see ``workloads.py``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines before it give each metric with its unit, the error
rate, a digest of each task's output in round 0 and a record of the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
MAX_ROUNDS = 4096  # round seeds stay distinct below this


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("signature3", "linking", "lengths"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def probe(workload: str) -> int:
    """Child-process set-up: import, build the workload, one warm-up call."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload]().warmup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def setup_seconds(workload: str) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def run_round(wl, seed: int, r: int, tr=None):
    """Run the task list once; returns (outcome, seconds, points evaluated)."""
    import workloads

    out = workloads.Outcome()
    start = time.perf_counter()
    for label, task in wl.tasks(workloads.round_seed(seed, r)):
        if tr is not None:
            tr.task = f"r{r}:{label}"
        try:
            out.outputs[label] = task()
        except Exception as exc:  # a task that raises counts as failed; the run goes on
            print(f"task {label} round {r} failed: {exc!r}", file=sys.stderr)
            out.outputs[label] = {"error": repr(exc)}
            out.failed.add(label)
    seconds = time.perf_counter() - start
    if not out.failed:
        wl.check_round(out)
    return out, seconds, wl.points_per_round


def host_record(args, rounds: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    lines = sum(
        len(p.read_text().splitlines())
        for d in ("src", "scripts") for p in sorted((ROOT / d).rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_scripts_lines": lines,
    }


def layer_metrics(traced_spans, counts0, isotopy_evals0, space_samples):
    from tracer import LATENCY, TARGETS, latency, layer_times

    per_round = [layer_times(spans) for spans in traced_spans]
    metrics, tail_pct = {}, {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = per_round[0][name]["calls"]
        metrics[f"{name}.busy_s"] = statistics.median(lt[name]["busy_s"] for lt in per_round)
        if name in LATENCY:
            metrics[f"{name}.self_s"] = statistics.median(lt[name]["self_s"] for lt in per_round)
            p50, tail, q = latency([d for lt in per_round for d in lt[name]["durations"]])
            metrics[f"{name}.p50_us"] = p50
            metrics[f"{name}.tail_us"] = tail
            tail_pct[name] = q
    metrics.update(counts0)
    metrics["lengths.isotopy_evals"] = isotopy_evals0
    metrics["lengths.point_evals"] = isotopy_evals0 * space_samples
    return metrics, tail_pct


def measure(args, wl):
    """Run rounds until the deadline; returns (metrics, attempted, failed, extra)."""
    import workloads

    outcomes, seconds, points = [], [], []
    traced_seconds, traced_spans = [], []
    counts0 = isotopy0 = None
    tr = None
    if args.trace:
        from tracer import Tracer

        tr = Tracer()
    # a round starts only if a typical round still ends before the deadline,
    # so a run of long rounds (lengths) does not overrun --seconds by a round
    deadline = time.perf_counter() + args.seconds
    iteration_s = []
    r = 0
    while r == 0 or (
        time.perf_counter() + statistics.median(iteration_s) <= deadline and r < MAX_ROUNDS
    ):
        started = time.perf_counter()
        out, s, pts = run_round(wl, args.seed, r)
        outcomes.append(out)
        seconds.append(s)
        points.append(pts)
        if tr is not None:
            tr.install()
            try:
                traced, ts, _ = run_round(wl, args.seed, r, tr)
            finally:
                tr.uninstall()
            if digest(traced.outputs) != digest(out.outputs):
                print(f"round {r}: traced outputs differ from untraced ones", file=sys.stderr)
                traced.failed.update(traced.outputs)
            outcomes.append(traced)
            traced_seconds.append(ts)
            traced_spans.append(tr.spans)
            if r == 0:
                counts0 = tr.counts()
                isotopy0 = getattr(wl, "isotopy_evals", 0)
        iteration_s.append(time.perf_counter() - started)
        r += 1

    attempted = sum(len(o.outputs) for o in outcomes)
    if not wl.check_run(outcomes):
        print("run-level check failed", file=sys.stderr)
        for o in outcomes:
            o.failed.update(o.outputs)
    failed = sum(len(o.failed) for o in outcomes)
    z = [v for o in outcomes for v in o.z_scores]
    extra = {
        "rounds": r,
        "round_s": seconds,
        "statistical_checks": len(z),
        "max_z": max(z, default=0.0),
        "beyond_3_sigma": sum(v > workloads.CRITERION_Z for v in z),
        "digests": {label: digest(v) for label, v in outcomes[0].outputs.items()},
        "round0_digest": digest(outcomes[0].outputs),
    }
    if tr is None:
        metrics = {
            "wall_s": statistics.median(seconds),
            "configs_per_s": statistics.median(wl.configs_per_round / s for s in seconds),
            "point_evals_per_s": statistics.median(p / s for p, s in zip(points, seconds)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        overhead = statistics.median(t - s for t, s in zip(traced_seconds, seconds))
        metrics, tail_pct = layer_metrics(
            traced_spans, counts0, isotopy0, getattr(wl, "space_samples", 0)
        )
        extra["tail_pct"] = tail_pct
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / statistics.median(seconds)
        extra["trace_overhead_s"] = overhead
        extra["absent"] = tr.absent
        extra["traced_spans"] = traced_spans
    return metrics, attempted, failed, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    declared_path = ROOT / "BENCHMARK.json"
    if not (SRC / "discbraid" / "__init__.py").is_file() or not declared_path.is_file():
        print(f"error: no discbraid checkout at {ROOT} (need src/discbraid and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args.workload)

    setup = [] if args.trace else setup_seconds(args.workload)
    import discbraid
    import workloads

    if Path(discbraid.__file__).resolve().parent != (SRC / "discbraid").resolve():
        print(f"error: imported discbraid from {discbraid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    wl.warmup()
    metrics, attempted, failed, extra = measure(args, wl)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)

    declared = json.loads(declared_path.read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 3

    record = host_record(args, extra["rounds"])
    record.update(setup_samples_s=setup, trace_overhead_s=extra.get("trace_overhead_s"))
    for name in sorted(units):
        print(f"metric {name} = {metrics[name]!r} {units[name]}")
    print(f"error_rate = {failed / attempted!r} ({failed} failed of {attempted} tasks)")
    print(f"checks: {extra['statistical_checks']} statistical, max z {extra['max_z']:.3f}, "
          f"{extra['beyond_3_sigma']} beyond {workloads.CRITERION_Z} sigma (gate {workloads.Z_GATE} sigma)")
    print("round seconds: " + " ".join(f"{s:.3f}" for s in extra["round_s"]))
    for label, d in extra["digests"].items():
        print(f"digest {label} {d}")
    print(f"digest round0 {extra['round0_digest']}")
    if args.trace:
        print(f"absent: {extra['absent']}")
        print("tail percentiles: " + json.dumps(extra["tail_pct"]))
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json"
        trace_path.write_text(json.dumps({
            "record": record,
            "metrics": metrics,
            "span_fields": ["layer", "start_ns", "end_ns", "parent", "task"],
            "rounds": extra["traced_spans"],
        }))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
