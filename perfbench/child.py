"""Run one workload in a fresh interpreter and print its figures as JSON.

Modes: ``setup`` stops at the first timed operation (a set-up sample),
``run`` runs the timed phase untraced, ``trace`` runs it with the layer
tracer installed.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads: the benchmark measures the
# program, not OpenBLAS thread scheduling on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--controls", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import qudisc  # noqa: F401
    t1 = time.perf_counter()
    import qudisc.cli  # noqa: F401  (pulls in numpy through verify)
    t2 = time.perf_counter()
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    result = {"import_ms": (t1 - t0) * 1e3, "cli_import_ms": (t2 - t1) * 1e3}
    if args.mode == "setup":
        result["first_op"] = time.monotonic()
        print(json.dumps(result))
        return 0

    tracer = Tracer()
    if args.mode == "trace":
        tracer.install()
        tracer.active = True

    ops = workload.ops
    # each operation's fastest repetition over the run: a slow spell of the
    # host lifts every time taken in it, but the fastest of tens of
    # repetitions only when the spell covers the whole run
    best = [math.inf] * len(ops)
    rounds = 0
    outputs: list = []
    failures: list[str] = []
    repeat_mismatches = 0
    result["first_op"] = time.monotonic()
    start = time.perf_counter()
    while True:
        first_round = rounds == 0
        for i, op in enumerate(ops):
            # each operation starts from empty caches, as in a fresh
            # `qudisc` process: a repeated operation must not be served
            # from a cache that an earlier round filled
            workloads.clear_caches()
            t = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                failures.append(f"{type(exc).__name__}: {exc}")
            best[i] = min(best[i], time.perf_counter() - t)
            if first_round or workload.store_all_rounds:
                outputs.append(out)
            elif out != outputs[i]:
                repeat_mismatches += 1
        rounds += 1
        if first_round:
            # the high-water mark after one round, so that it does not
            # depend on how many rounds fit into the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= args.seconds:
            break
    timed = time.perf_counter() - start
    tracer.active = False

    errors, details = workload.check(outputs, controls=bool(args.controls))
    if repeat_mismatches:
        errors.append(f"{repeat_mismatches} outputs differ from the first round's")
    for message in errors + failures[:5]:
        print(f"{args.workload}: {message}", file=sys.stderr)

    result.update(
        correct=not errors,
        attempted=rounds * len(ops),
        failed=len(failures),
        rounds=rounds,
        timed_s=timed,
        wall_s=sum(best),
        op_best_ms=[x * 1e3 for x in best],
        peak_rss_mb=peak_rss_mb,
        details=details,
    )
    if args.mode == "trace":
        result["layers"] = {
            layer: {stat: value / rounds for stat, value in stats.items()}
            for layer, stats in tracer.summary().items()
        }
        result["missing_layers"] = tracer.missing
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
