"""Benchmark of bsteleport: the two figure grids, large totals and point queries.

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  `--workload all` runs every workload in a
process of its own, passes on their lines and ends with one JSON object for all
of them.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads here or in any child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("fig2-sweep", "fig3-phase-map", "large-total", "point-queries")
SETUP_PROBES = 7


def import_program() -> None:
    """Import bsteleport from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import bsteleport
    except ImportError as exc:
        raise SystemExit(f"error: cannot import bsteleport from {SRC}: {exc}")
    if Path(bsteleport.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: bsteleport was imported from {bsteleport.__file__}, not {SRC}")


def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Wall times of fresh interpreters that import bsteleport and build the workload's inputs."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class Measurement:
    """Runs a workload's rounds for the given seconds of op time, checking each round."""

    def __init__(self, workload, seconds: float, tracer=None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.cells = 0
        self.timed = 0.0
        self.op_times: list[float] = []  # untraced ops only
        self.repeated_totals = 0
        self.wrong: list[str] = []

    def run(self) -> None:
        seen = set()
        for index, items in enumerate(self.workload.rounds()):
            # a traced run needs an untraced and a traced round to report its overhead
            enough = self.attempted >= self.workload.min_ops and (self.tracer is None or index >= 2)
            if self.timed >= self.seconds and enough:
                break
            traced = self.tracer is not None and index % 2 == 1
            done, results = [], []
            with self.tracer.installed() if traced else contextlib.nullcontext():
                for item in items:
                    span = self.tracer.op() if traced else contextlib.nullcontext()
                    start = time.perf_counter()
                    try:
                        with span:
                            result = self.workload.run(item)
                    except Exception as exc:  # a failed op is counted, not fatal
                        result = exc
                    elapsed = time.perf_counter() - start
                    self.attempted += 1
                    self.timed += elapsed
                    total = self.workload.total_of(item)
                    self.repeated_totals += total in seen
                    seen.add(total)
                    if isinstance(result, Exception):
                        if self.failed == 0:
                            print(f"op failed: {item!r}", file=sys.stderr)
                            traceback.print_exception(result, file=sys.stderr)
                        self.failed += 1
                        continue
                    self.cells += self.workload.cells
                    if not traced:
                        self.op_times.append(elapsed)
                    done.append(item)
                    results.append(result)
            try:
                self.workload.check_round(done, results)
            except checks.CheckFailed as exc:
                if not self.wrong:
                    print(f"check failed: {exc}", file=sys.stderr)
                self.wrong.append(str(exc))


def run_one(args) -> int:
    import_program()
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="grid-", dir=OUT)
    # set-up is probed before and after the ops, so it samples the machine at two times
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setup = setup_probes(args.workload, args.seed, (probes + 1) // 2)
        workload = workloads.make(args.workload, args.seed, workdir)
        workload.warmup()
        tracer = spans.Tracer() if args.trace else None
        origin = time.perf_counter()
        measurement = Measurement(workload, args.seconds, tracer)
        measurement.run()
        setup += setup_probes(args.workload, args.seed, probes // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    m = measurement
    print(f"workload {args.workload} seed {args.seed}: {m.attempted} ops attempted, {m.failed} failed, "
          f"{m.cells} cells in {m.timed:.3f} s of op time; "
          f"{m.repeated_totals / max(m.attempted, 1):.1%} of ops at a total seen earlier in the run")
    if getattr(workload, "replayed", 0):
        print(f"{workload.replayed / m.attempted:.1%} of ops replayed a query checked earlier in the run")
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path), origin)
        metrics = {name: {"value": value, "unit": spans.METRICS[name][0]}
                   for name, value in tracer.layer_metrics().items()}
        traced_ops = tracer.op_times()
        spans_per_op = len(tracer.spans) / len(traced_ops) - 1
        metrics["trace.overhead_pct"] = {
            "value": spans.overhead_pct(traced_ops, m.op_times), "unit": "%"}
        metrics["trace.span_cost_pct"] = {
            "value": 100.0 * spans_per_op * spans.span_cost_s() / statistics.median(m.op_times), "unit": "%"}
        print(f"wrote {len(tracer.spans)} spans to {path}")
    else:
        metrics = {
            "cells_per_s": {"value": m.cells / m.timed, "unit": "cell/s"},
            "op_s_p50": {"value": statistics.median(m.op_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    correct = not m.wrong
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up stay per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"error: workload {name} exited {proc.returncode} without a result")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="op time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from spans instead of end-to-end metrics")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
