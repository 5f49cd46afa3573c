"""Benchmark entry point for effmeas: one workload, one seed, one process.

    python3 perfbench/run.py --workload prokhorov --seed 1 --seconds 30 --trace 0

Sets effmeas up several times (import plus seeded inputs), then runs whole
rounds of the workload's job list until ``--seconds`` have passed, checking
every answer after each round.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs untraced rounds for half the time, wraps
the layer functions, runs traced rounds for the rest and prints the
per-layer metrics.  The last line of standard output is one JSON object.
It runs from a source checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy.

Times are reported in reference seconds.  The speed of a shared CPU can
change by a factor of two for tens of seconds at a time, so a fixed
calibration loop (exact greedy transport, independent of effmeas) runs at
most ``RECALIBRATE_S`` before each timed piece of work, and the piece's
measured seconds are scaled by ``CAL_REF_S`` over the loop's time.  On a
quiet machine where the loop takes ``CAL_REF_S`` the two units coincide.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5  # before the rounds, and as many again after them
# What effmeas imports from the standard library, loaded before set-up is
# timed so that every set-up repetition measures the same work.
STDLIB = ("csv", "collections", "dataclasses", "enum", "io", "itertools", "math", "re", "threading", "typing")

CAL_REF_S = 0.010  # the calibration loop's time on a quiet 2 GHz Xeon vCPU
RECALIBRATE_S = 0.1


class Calibration:
    """A fixed pure-Python exact-arithmetic loop that takes about 10 ms."""

    def __init__(self):
        rng = random.Random(0xCA1)
        self.a, self.b = (
            sorted((Fraction(rng.randint(-2048, 2047), 1024), Fraction(rng.randint(1, 16), 256)) for _ in range(48))
            for _ in range(2)
        )
        self.levels = [Fraction(k, 64) for k in range(1, 9)]
        self.last_end = float("-inf")
        self.factor = 1.0

    def measure(self) -> float:
        t0 = time.perf_counter()
        for eps in self.levels:
            oracles.deficit(self.a, self.b, eps)
            oracles.deficit(self.b, self.a, eps)
        self.last_end = time.perf_counter()
        return self.last_end - t0

    def scale(self) -> float:
        """Reference seconds per measured second, recalibrated when stale."""
        if time.perf_counter() - self.last_end >= RECALIBRATE_S:
            self.factor = CAL_REF_S / self.measure()
        return self.factor


class Run:
    """Rounds of one job list, with their timings, failures and check errors."""

    def __init__(self, jobs, cal: Calibration):
        self.jobs = jobs
        self.cal = cal
        self.t_start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []

    def rounds(self, until: float, tracer=None):
        """Whole rounds until ``until`` seconds into the run, at least one.

        Yields each round's job times in reference seconds, the median
        scale it used and the range of its spans.
        """
        clock = time.perf_counter
        while True:
            answers, times, scales = {}, [], []
            lo = len(tracer) if tracer is not None else 0
            if tracer is not None:
                tracer.covers.clear()
                tracer.on = True
            for job in self.jobs:
                scales.append(self.cal.scale())
                t0 = clock()
                try:
                    answers[job.label] = job.run()
                except Exception as exc:  # a job that raises counts as failed
                    self.failures.append(f"{job.label}: {exc!r}")
                times.append((clock() - t0) * scales[-1])
            if tracer is not None:
                tracer.on = False
            self.attempted += len(self.jobs)
            for job in self.jobs:
                if job.label in answers:
                    msg = job.check(answers[job.label], answers)
                    if msg:
                        self.errors.append(f"{job.label}: {msg}")
            yield times, statistics.median(scales), (lo, len(tracer) if tracer is not None else 0)
            if clock() - self.t_start >= until:
                return


def per_job_median(rounds: list[list[float]]) -> list[float]:
    return [statistics.median(times) for times in zip(*rounds)]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "effmeas" / "__init__.py").is_file():
        print(f"error: no effmeas source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in STDLIB:
        importlib.import_module(name)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir) -> int:
    from workloads import WORKLOADS

    cal = Calibration()
    setup_times = []

    def set_up():
        _purge_effmeas()
        gc.collect()
        scale = CAL_REF_S / cal.measure()
        t0 = time.perf_counter()
        jobs = WORKLOADS[args.workload](args.seed, workdir)
        setup_times.append((time.perf_counter() - t0) * scale)
        return jobs

    for _ in range(SETUP_REPEATS):
        jobs = set_up()
    import effmeas

    if Path(effmeas.__file__).resolve().parent != SRC / "effmeas":
        print(f"error: effmeas imported from {effmeas.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run = Run(jobs, cal)
    if args.trace:
        metrics = _traced(args, run)
    else:
        job_s = per_job_median([times for times, _, _ in run.rounds(args.seconds)])
        for _ in range(SETUP_REPEATS):
            set_up()
        metrics = {
            "wall_s": {"value": sum(job_s), "unit": "s"},
            "job_p50_s": {"value": statistics.median(job_s), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    for line in run.failures + run.errors:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


def _purge_effmeas() -> None:
    for name in [k for k in sys.modules if k == "effmeas" or k.startswith("effmeas.")]:
        del sys.modules[name]


def _traced(args, run: Run) -> dict:
    """Untraced rounds for half the time, traced rounds for the rest."""
    from spans import Tracer, layer_metrics

    untraced = per_job_median([times for times, _, _ in run.rounds(args.seconds / 2)])
    tracer = Tracer()
    tracer.install()
    traced, per_round = [], []
    for times, scale, (lo, hi) in run.rounds(args.seconds, tracer):
        traced.append(times)
        layer = layer_metrics(tracer, lo, hi, tracer.covers)
        per_round.append({k: v * scale if k.endswith("_s") else v for k, v in layer.items()})

    metrics = {
        name: {"value": statistics.median(r[name] for r in per_round), "unit": _unit(name)}
        for name in per_round[0]
    }
    untraced_s, traced_s = sum(untraced), sum(per_job_median(traced))
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}

    stem = f"{args.workload}-seed{args.seed}"
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "calibration_s": statistics.median(run.cal.measure() for _ in range(9)),
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
    }
    tracer.dump(OUT / f"spans-{stem}.json", meta)
    with open(OUT / f"trace-{stem}.json", "w") as fh:
        json.dump({**meta, "metrics": metrics, "rounds": per_round}, fh, indent=1)
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_exp"):
        return "1"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
