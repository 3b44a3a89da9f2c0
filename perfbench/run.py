"""Benchmark entry point: one workload, closed loop, for a fixed measuring time.

    python3 perfbench/run.py --workload bv-check --seed 0 --seconds 10 --trace 0

One client in one process and one thread runs ops back to back until
``--seconds`` have passed (always at least one op).  Every op rebuilds its
structures from the inputs the seed generates and runs mixhom's verifiers;
its output is checked against the recorded reference and against the run's
first op.  The program is taken from ``src/`` next to this directory.

``--trace 0`` prints the end-to-end metrics: the median op time
(``solve_s``) and the median set-up time (``setup_s``), both corrected for
host contention (see ``speed.py``), and the process's peak resident memory.  ``--trace 1`` runs one untraced op, then traced ops (see
``tracer.py``), checks that they give the same output, and prints the
per-layer metrics.  Each metric is printed on its own line with its unit; the
last line is one JSON object.  The exit code is 1 when any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads
from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# set-up of cli-batch is a fresh interpreter per invocation; take the median of this many
CLI_STARTUPS = 7


def module_lines() -> dict[str, tuple[float, str]]:
    pkg = os.path.join(SRC, "mixhom")
    out = {}
    total = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                n = sum(1 for _ in fh)
            total += n
            if fname != "__init__.py":
                out[f"{fname[:-3]}.lines"] = (n, "lines")
    out["src.lines"] = (total, "lines")
    return out


class Loop:
    """What a closed loop of ops measured and found."""

    def __init__(self, first=None):
        self.stamps: list[tuple] = []  # (start, set-up end or None, end) per op
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first = first  # the output every later op must reproduce

    def run(self, op, check, seed: int, seconds: float):
        """Run ops until ``seconds`` have passed, at least one."""
        t_start = time.perf_counter()
        while True:
            self.attempted += 1
            try:
                start, setup_end, end, result = op()
                problems = check(result, seed)
            except Exception:
                self.failed += 1
                self.errors.append(traceback.format_exc(limit=4))
            else:
                if self.first is None:
                    self.first = result
                elif result != self.first:
                    problems.append("output differs from the run's first op")
                if problems:
                    self.failed += 1
                    self.errors.extend(problems)
                self.stamps.append((start, setup_end, end))
            if time.perf_counter() - t_start >= seconds:
                return self

    def wall(self) -> list[float]:
        return [end - start for start, _, end in self.stamps]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "mixhom", "cli.py")):
        print(f"mixhom sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    c = workloads.scale_for_seed(args.seed)
    work_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    op, check = workloads.prepare(args.workload, c, work_dir)
    import mixhom.cli  # noqa: F401  (imported here so that no op pays for the import)

    print(f"workload {args.workload}, seed {args.seed}, c = {c}, trace {args.trace}")
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        with SpeedSampler() as speed:
            startups = []
            if args.workload == "cli-batch":
                startups = [workloads.cli_startup(SRC) for _ in range(CLI_STARTUPS)]
            loop = Loop().run(op, check, args.seed, args.seconds)
        attempted, failed, errors = loop.attempted, loop.failed, loop.errors
        solves = [speed.corrected(start, end) for start, _, end in loop.stamps]
        setups = [speed.corrected(start, end) for start, end in startups] or [
            speed.corrected(start, setup_end) for start, setup_end, _ in loop.stamps
        ]
        if solves:
            metrics["solve_s"] = (statistics.median(solves), "s")
            metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print("op wall s: " + " ".join(f"{s:.3f}" for s in loop.wall()))
        print("op corrected s: " + " ".join(f"{s:.3f}" for s in solves))
        print("set-up corrected s: " + " ".join(f"{s:.3f}" for s in setups))
        print(f"speed samples: {len(speed.samples)}, mean slowdown {speed.slowdown():.3f}")
    else:
        from tracer import Tracer

        tracer = Tracer()
        with SpeedSampler() as speed:
            base = Loop().run(op, check, args.seed, 0)
            tracer.install()
            try:
                traced = Loop(base.first).run(
                    lambda: tracer.run_op(op), check, args.seed, args.seconds - sum(base.wall())
                )
            finally:
                tracer.uninstall()
        attempted = base.attempted + traced.attempted
        failed = base.failed + traced.failed
        errors = base.errors + traced.errors
        metrics.update(tracer.metrics(len(traced.stamps) or 1))
        untraced = [speed.corrected(start, end) for start, _, end in base.stamps]
        traced_s = [speed.corrected(start, end) for start, _, end in traced.stamps]
        ratio = statistics.median(traced_s) / untraced[0] if traced_s and untraced else 0.0
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
        artifacts = base.first["artifacts"] if args.workload == "cli-batch" and base.first else {}
        metrics["cli.artifact_bytes"] = (sum(len(b) for b in artifacts.values()), "bytes")
        metrics.update(module_lines())
        spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(spans_path)
        print("untraced op wall s: " + " ".join(f"{s:.3f}" for s in base.wall()))
        print("traced op wall s: " + " ".join(f"{s:.3f}" for s in traced.wall()))
        print(f"{len(tracer.spans)} spans written to {spans_path}")
    for e in errors:
        print(f"FAILED: {e}", file=sys.stderr)
    print(f"error_rate {failed / attempted} ({failed} of {attempted} ops failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
