"""One benchmark worker: set up a workload, run whole rounds of ops, write a report.

run.py starts workers one at a time; each is a single-threaded, closed-loop
client that sends its next op only when the previous one has returned.
Untraced (--trace 0) workers time every op.  A traced worker alternates an
untraced round with a traced one (same ops, same order) to measure the
tracing overhead, then runs the layer probes and the batched microcalls.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import time
from pathlib import Path


def run_op(op) -> tuple[float, str | None]:
    """(latency in seconds, failure reason or None); checks run untimed."""
    start = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # noqa: BLE001 - any raise is a failed op, not a crash
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.check(outcome)
    except Exception as exc:  # noqa: BLE001 - malformed output the check could not parse
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True, help="worker number within the run")
    parser.add_argument("--window", type=float, required=True, help="seconds of timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when run.py started this process")
    parser.add_argument("--probes", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import numpy

    import probes
    import qdscodes
    import tracing
    import workloads

    rng = random.Random(f"{args.workload}:{args.seed}:{args.index}")
    workload = workloads.build(args.workload, rng, args.workdir)
    warmup_error = run_op(workload.warmup)[1]
    setup_s = time.monotonic() - args.spawned

    latencies: list[tuple[str, float]] = []
    failures: list[tuple[str, str]] = []
    tracer = tracing.Tracer()
    op_time = {"untraced": 0.0, "traced": 0.0}

    def timed_round(traced: bool) -> None:
        for op in workload.ops:
            if traced:
                tracer.op_id = len(latencies)
                elapsed, error = run_op(workloads.Op(op.name, lambda: tracer.top(
                    f"op.{op.name}", op.run), op.check))
            else:
                elapsed, error = run_op(op)
            op_time["traced" if traced else "untraced"] += elapsed
            latencies.append((op.name, elapsed))
            if error:
                failures.append((op.name, error))

    deadline = time.perf_counter() + args.window
    rounds = 0
    while True:
        timed_round(traced=False)
        if args.trace:
            tracer.install()
            try:
                timed_round(traced=True)
            finally:
                tracer.uninstall()
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "setup_s": setup_s,
        "rounds": rounds,
        "ops_per_round": len(workload.ops),
        "points_per_round": sum(op.points for op in workload.ops),
        "trials_per_round": sum(op.trials for op in workload.ops),
        "mc_trials_per_point": workloads.MC_TRIALS if args.workload == "montecarlo" else 0,
        "latencies": latencies,
        "failures": failures + ([("warm-up " + workload.warmup.name, warmup_error)]
                                if warmup_error else []),
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qdscodes": str(Path(qdscodes.__file__).resolve().parent),
        "probes": {},
    }
    if args.trace:
        report["op_time"] = op_time
        tracer.install()
        try:
            if args.workload == "montecarlo":
                tracer.op_id = "long-weighted-ml"
                report["probes"]["long_weighted_ml"] = probes.long_weighted_ml_probe(rng)
            tracing.layer_probes(tracer, args.workdir, workloads.random_sm_matrix(rng, 6, 20),
                                 workloads.code_file_text(workloads.rotated_surface_rows(4),
                                                          gauge=False))
        finally:
            tracer.uninstall()
        per_layer = tracing.span_metrics(tracer.spans)
        per_layer.update(tracing.microcalls(rng))
        per_layer["smcodes.coset_table_peak_mb.n20"] = (
            tracing.coset_table_peak_mb(workloads.random_sm_matrix(rng, 6, 20)), "MB")
        for layer in tracing.LAYERS:
            per_layer[f"{layer}.errors_unexpected"] = (tracer.unexpected[layer], "count")
        report["per_layer"] = per_layer
        tracer.dump(args.out.with_suffix(".spans.jsonl"))
    elif args.probes:
        report["probes"]["precision"] = probes.precision_probe()
        if args.workload == "montecarlo":
            report["probes"]["long_weighted_ml"] = probes.long_weighted_ml_probe(rng)
    args.out.write_text(json.dumps(report))


if __name__ == "__main__":
    main()
