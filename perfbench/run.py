"""qudisc benchmark.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Runs one workload in fresh interpreters (see child.py) and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` splits the timed phase over several
interpreters and reports the median of their end-to-end metrics;
``--trace 1`` runs the workload once untraced and once traced and reports
the per-layer metrics.  Details of every run and the spans of traced runs
are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("closed_form", "verify_grid", "qubit_copies")
# interpreters that share the timed phase of a --trace 0 run.  The speed of
# pure-Python work differs by up to 15 % between two interpreters started
# alike (the CPU they run on, memory layout, hash seed), so one interpreter
# is one sample.  A dense round takes 10-20 s, so those workloads get
# fewer, longer shares.
PROCESSES = {"closed_form": 6, "verify_grid": 2, "qubit_copies": 2}
# the CPUs this process may use.  The scheduler tends to start every child
# on its parent's CPU, and on a shared host two CPUs can differ in speed
# by 15 %, so children are pinned to them in turn: a run then samples
# every CPU instead of the one it happened to start on
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
# set-up samples per run: every timed interpreter gives one, and
# interpreters that only set up, half before and half after the timed
# ones, make up the rest, so that the samples span the run
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170


def histogram(values_ms: list[float]) -> list[tuple[float, int]]:
    """Counts per bin of width 10^0.1 (about 26%), keyed by lower edge."""
    bins = Counter(math.floor(10 * math.log10(value)) for value in values_ms)
    return [(round(10 ** (key / 10), 4), bins[key]) for key in sorted(bins)]


class ChildFailed(Exception):
    pass


def spawn(args: argparse.Namespace, mode: str, deadline: float, cpu: int | None,
          seconds: float | None = None, controls: bool = False,
          trace_out: Path | None = None) -> dict:
    """Run child.py on ``cpu`` to completion and return its result;
    ``setup_s`` is the time from starting the interpreter to its first
    timed operation.  ``controls`` adds the checks that a run makes once,
    not per interpreter."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds if seconds is None else seconds),
           "--mode", mode, "--controls", str(int(controls))]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started),
                              preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} run exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} run exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_op"] - started
    result["cpu"] = cpu
    return result


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    processes = PROCESSES[args.workload]
    probes = SETUP_SAMPLES - processes
    cpus = itertools.cycle(CPUS)
    setup = [spawn(args, "setup", deadline, next(cpus)) for _ in range(probes // 2)]
    runs = [spawn(args, "run", deadline, next(cpus), args.seconds / processes, controls=i == 0)
            for i in range(processes)]
    setup += [spawn(args, "setup", deadline, next(cpus)) for _ in range(probes - probes // 2)]
    setup_samples = [r["setup_s"] for r in setup + runs]
    # each operation at its fastest, over every round of every interpreter
    best_ms = [min(times) for times in zip(*(r["op_best_ms"] for r in runs))]
    failed = sum(r["failed"] for r in runs)
    rounds = sum(r["rounds"] for r in runs)
    wall_s = sum(best_ms) / 1e3
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": ((len(best_ms) - failed / rounds) / wall_s, "1/s"),
        "op_p50_ms": (statistics.median(best_ms), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    return metrics, {"correct": all(r["correct"] for r in runs),
                     "attempted": sum(r["attempted"] for r in runs), "failed": failed,
                     "setup_samples_s": setup_samples, "op_histogram_ms": histogram(best_ms),
                     "runs": runs}


def per_layer(args: argparse.Namespace, deadline: float, trace_out: Path) -> tuple[dict, dict]:
    # both on one CPU, so that their difference is the cost of tracing
    base = spawn(args, "run", deadline, CPUS[0], controls=True)
    traced = spawn(args, "trace", deadline, CPUS[0], trace_out=trace_out)
    layers = traced["layers"]
    metrics = {
        "cli.import_ms": (statistics.median([base["cli_import_ms"], traced["cli_import_ms"]]), "ms"),
    }
    for name, (layer, stat) in METRICS.items():
        if layer in layers:  # a layer whose function is gone is listed as missing
            metrics[name] = (layers[layer][stat], "ms" if stat.endswith("_ms") else "count")
    metrics["trace.overhead_s"] = (traced["wall_s"] - base["wall_s"], "s")
    for missing in traced["missing_layers"]:
        print(f"perfbench: layer missing: {missing}", file=sys.stderr)
    return metrics, {"correct": base["correct"] and traced["correct"],
                     "attempted": base["attempted"] + traced["attempted"],
                     "failed": base["failed"] + traced["failed"],
                     "untraced": base, "traced": traced}


def main() -> int:
    parser = argparse.ArgumentParser(description="qudisc benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qudisc" / "__init__.py").is_file():
        print(f"perfbench: no qudisc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            metrics, record = per_layer(args, deadline, OUT_DIR / f"trace-{stem}.json")
        else:
            metrics, record = end_to_end(args, deadline)
    except (ChildFailed, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    line = {
        "correct": record.pop("correct"),
        "attempted": record.pop("attempted"),
        "failed": record.pop("failed"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(line)
    (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
