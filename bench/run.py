"""Benchmark of hh-bounds: closed-loop workloads, end-to-end and per-layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload cli-expr --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client runs ops back to back (a closed loop) in this process; CLI
commands go through ``hh_bounds.cli.main(argv)`` with output captured, so
interpreter start-up and imports are paid once, in ``setup_s``. Every op's
result is checked against closed-form integrals (``family.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same ops
untraced and then traced, checks that both give byte-identical output, and
prints per-layer metrics; spans go to ``.bench_out/``. The last line of
standard output is always one JSON object: correct, attempted, failed,
metrics. ``failed`` there counts ops that went wrong; a large-magnitude
input the convexity gate turns away is a refusal, counted in the report's
``refused`` and ``fail_ratio`` and against goodput, not in ``failed``. See
README.md beside this file for how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

#: BLAS worker threads spin on the second core of a 2-core host after the
#: oracle's matrix-vector products; one thread keeps a single-client run on
#: one core. A value set by the caller is kept and recorded.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread settings)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 7
#: Seeds at or above this value are held out: keep them for confirming a
#: claim, never for tuning a change.
HELD_OUT_FROM = 1_000_000
#: At most this many failed or refused ops are printed in full per run.
MAX_FAILURE_LINES = 5
#: Every op stays far below the 180 s per-run budget; a slower one aborts.
OP_LIMIT_S = 60.0


def load_package():
    """Import hh_bounds from this checkout's src/, never from site-packages."""
    if not (SRC / "hh_bounds" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'hh_bounds'}; "
                         "run from the root of an hh-bounds checkout")
    sys.path.insert(0, str(SRC))
    import hh_bounds
    import hh_bounds.catalog
    import hh_bounds.cli

    if Path(hh_bounds.__file__).resolve().parent != SRC / "hh_bounds":
        raise SystemExit(f"bench: imported hh_bounds from {hh_bounds.__file__}, not {SRC}")
    return hh_bounds


def environment(seed: int, threads_before: str | None) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {k: os.environ.get(k, "unset") for k in BLAS_VARS}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas,
        "HH_BOUNDS_THREADS": "unset" if threads_before is None
                             else f"unset for the run (was {threads_before!r})",
        "seed": seed,
        "held_out_seed": seed >= HELD_OUT_FROM,
    }


@dataclass
class Record:
    """One executed op: its result or error, when it started and its seconds."""

    op: object
    result: object
    error: BaseException | None
    start: float
    seconds: float


def run_op(op):
    """Run one op; returns (result, error, start, seconds). Errors are op failures."""
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # a failed op is counted, the run goes on
        result, error = None, exc
    dt = time.perf_counter() - t0
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
    if dt > OP_LIMIT_S:
        raise SystemExit(f"bench: one op took {dt:.1f} s (> {OP_LIMIT_S} s): {op.describe}")
    return result, error, t0, dt


def run_ops(rounds, probe, seconds: float | None = None, count: int | None = None,
            tracer=None) -> list[Record]:
    """Closed loop over whole rounds, at least one: for ``seconds``, or ``count`` ops.

    The speed probe runs between ops and after the last, outside any timing
    or trace.
    """
    records: list[Record] = []
    start = time.perf_counter()
    while not records or (time.perf_counter() - start < seconds if count is None
                          else len(records) < count):
        for op in next(rounds):
            probe()
            if tracer is None:
                records.append(Record(op, *run_op(op)))
            else:
                with tracer.op(len(records), op.kind):
                    records.append(Record(op, *run_op(op)))
    probe()
    return records


def scaled_seconds(records: list[Record], probe) -> list[float]:
    """Each op's seconds at the reference speed (see speed.py)."""
    spans = [(r.start, r.start + r.seconds) for r in records]
    return [r.seconds * k for r, k in zip(records, probe.factors(spans))]


def median_ranked(latencies: list[float], failed: list[bool], q: float) -> float | None:
    """Percentile q of latencies where every failure ranks above every success.

    q=0.5 is the ordinary median (mean of the middle two); other q use the
    nearest rank. None when the rank falls on a failure.
    """
    ranked = sorted((f, t) for t, f in zip(latencies, failed))
    k = len(ranked)
    if q == 0.5:
        mid = [ranked[(k - 1) // 2], ranked[k // 2]]
        if any(f for f, _ in mid):
            return None
        return (mid[0][1] + mid[1][1]) / 2.0
    f, t = ranked[min(k - 1, max(0, math.ceil(q * k) - 1))]
    return None if f else t


def judge(records: list[Record], workloads):
    verdicts = [workloads.verdict_of(r.op, r.result, r.error) for r in records]
    shown = 0
    for r, v in zip(records, verdicts):
        if v.status != "ok" and shown < MAX_FAILURE_LINES:
            print(f"failed op [{v.status}] kind={r.op.kind} seed={r.op.seed} "
                  f"({r.seconds * 1e3:.1f} ms): {v.message}\n    input: {r.op.describe}",
                  file=sys.stderr)
            shown += 1
    return verdicts


def end_to_end(records: list[Record], verdicts, setup: list[float],
               probe) -> tuple[dict, dict]:
    """(contract metrics, extra metrics) of one untraced run.

    Times are at the reference speed; the raw_ metrics are the wall-clock ones.
    Goodput counts op time only, not the probes between ops.
    """
    failed = [v.status != "ok" for v in verdicts]  # refusals included
    ok = len(records) - sum(failed)
    scaled = scaled_seconds(records, probe)
    lat = [t * 1e3 for t in scaled]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ok / sum(scaled), "1/s"),
        "op_p50_ms": (median_ranked(lat, failed, 0.5), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = [r.seconds * 1e3 for r in records]
    extra = {"fail_ratio": (sum(failed) / len(records), "1")}
    if len(records) >= 100:
        extra["op_p90_ms"] = (median_ranked(lat, failed, 0.9), "ms")
    for kind in ("bounds", "chain"):
        sel = [(t, f) for r, t, f in zip(records, lat, failed) if r.op.kind == kind]
        if sel:
            extra[f"{kind}_p50_ms"] = (median_ranked(*zip(*sel), 0.5), "ms")
    extra["raw_ops_per_s"] = (ok / sum(raw) * 1e3, "1/s")
    extra["raw_op_p50_ms"] = (median_ranked(raw, failed, 0.5), "ms")
    extra["speed_factor"] = (statistics.median(s / r for s, r in zip(lat, raw)), "1")
    return metrics, extra


def measure_setup(workload: str, seed: int, probe) -> tuple[list[float], list[float]]:
    """Seconds of SETUP_REPEATS fresh processes that set up and warm up.

    Returns (times at the reference speed, wall times). Each process is
    scaled by the mean of the probe readings just before and just after it.
    """
    scaled, wall = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"bench: setup process failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-500:]}")
        scaled.append(wall[-1] * 2.0 * speed.REFERENCE_S / (before + probe()))
    return scaled, wall


def warm_up(rounds, workloads) -> None:
    op = next(rounds)[0]
    result, error, _, _ = run_op(op)
    v = workloads.verdict_of(op, result, error)
    if v.status == "wrong":
        raise SystemExit(f"bench: warm-up op gave a wrong result: {v.message}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def run_workload(args, threads_before: str | None) -> int:
    pkg = load_package()

    if args.setup_only:
        warm_up(workloads.rounds(args.workload, pkg, args.seed), workloads)
        return 0

    probe = speed.Probe()
    setup, setup_wall = ([], []) if args.trace else measure_setup(args.workload, args.seed, probe)
    warm_up(workloads.rounds(args.workload, pkg, args.seed), workloads)
    records = run_ops(workloads.rounds(args.workload, pkg, args.seed), probe, args.seconds)
    verdicts = judge(records, workloads)
    failed = sum(v.status in ("failed", "wrong") for v in verdicts)
    correct = not any(v.status == "wrong" for v in verdicts)
    kinds = {}
    for r in records:
        kinds[r.op.kind] = kinds.get(r.op.kind, 0) + 1

    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed, threads_before), "ops": len(records),
              "op_kinds": kinds, "refused": sum(v.status == "refused" for v in verdicts)}
    if args.workload == "verify":
        skipped = checked = 0
        for r, v in zip(records, verdicts):
            if v.status == "ok":
                s, c = workloads.oracle_skip_counts(r.result)
                skipped, checked = skipped + s, checked + c
        report["verify.oracle_skip_ratio"] = skipped / max(1, skipped + checked)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_ops(workloads.rounds(args.workload, pkg, args.seed, tracer.wrap_eval),
                             probe, count=len(records), tracer=tracer)
        finally:
            tracer.uninstall()
        mismatches = [a.op.describe for a, b in zip(records, traced)
                      if workloads.output_bytes(a.result) != workloads.output_bytes(b.result)
                      or type(a.error) is not type(b.error)]
        if mismatches:
            correct = False
            print(f"traced output differs from untraced on {len(mismatches)} ops, "
                  f"first: {mismatches[0]}", file=sys.stderr)
        op_kinds = {i: r.op.kind if v.status == "ok" else "failed"
                    for i, (r, v) in enumerate(zip(traced, verdicts))}
        layers = tracing.layer_metrics(tracer.spans, op_kinds)
        layers["verify.oracle_skip_ratio"] = report.get("verify.oracle_skip_ratio", 0.0)
        layers["bench.trace_overhead"] = (sum(scaled_seconds(traced, probe))
                                          / sum(scaled_seconds(records, probe)) - 1.0)
        layers["bench.ops"] = len(traced)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
        units = layer_units()
        metrics = {k: (layers[k], units[k]) for k in units}
        report["layers"] = layers
    else:
        metrics, extra = end_to_end(records, verdicts, setup, probe)
        report["setup_runs_s"] = setup
        report["setup_runs_wall_s"] = setup_wall
        report["extra"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
        for k, (v, u) in {**metrics, **extra}.items():
            print(f"{args.workload:<15} {k:<14} {v if v is None else format(v, '.6g'):>12} {u}")

    print("report " + json.dumps(report))
    print(result_line(correct, len(records), failed, metrics))
    return 0


def layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(args, threads_before: str | None) -> int:
    """Run every workload in its own process and print one table."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed ({proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
        values = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        values.update({k: (m["value"], m["unit"]) for k, m in report.get("extra", {}).items()})
        rows.append((name, result, values))
    print(json.dumps({"env": environment(args.seed, threads_before)}))
    for name, result, values in rows:
        print(f"\n{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for k, (v, u) in values.items():
            print(f"  {k:<30} {v if v is None else format(v, '.6g'):>14} {u}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    threads_before = os.environ.pop("HH_BOUNDS_THREADS", None)
    if args.workload == "all":
        load_package()
        return run_all(args, threads_before)
    return run_workload(args, threads_before)


if __name__ == "__main__":
    sys.exit(main())
