"""qdscodes benchmark: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
run starts its workers one after another (never more than one at a time),
each a single-threaded closed-loop client driving ``qdscodes.cli.main``
in-process.  With --trace 0 it prints every end-to-end metric; with --trace 1
it prints the per-layer metrics of a separate traced run.  The last stdout
line is the JSON result; a record of the run environment is written to
.bench_out/ and printed on the line before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("curves", "montecarlo", "verify")

UNTRACED_WORKERS = 3  # setup_s is the median over this many worker starts
IMPORT_SAMPLES_PER_WORKER = 6  # taken before each untraced worker, spread over the run
DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env(root: Path) -> dict[str, str]:
    """The program's environment: ./src first, one BLAS/OpenMP thread, no QDS_DATA_DIR
    (so the import-only schemes take their documented exit-5 path)."""
    env = {k: v for k, v in os.environ.items() if k != "QDS_DATA_DIR"}
    env["PYTHONPATH"] = str(root / "src")
    env.update({k: "1" for k in THREAD_ENV})
    return env


def source_identity(root: Path) -> dict[str, str | None]:
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def import_seconds(env: dict[str, str], root: Path, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that only run `import qdscodes.cli`."""
    samples = []
    for _ in range(IMPORT_SAMPLES_PER_WORKER):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qdscodes.cli"], env=env, cwd=root,
                       check=True, timeout=max(1.0, deadline - time.monotonic()))
        samples.append(time.perf_counter() - start)
    return samples


def run_workers(args, root: Path, env, work: Path, deadline: float):
    """Start the workers one after another; untraced runs also time imports between them."""
    count = 1 if args.trace else UNTRACED_WORKERS
    reports, import_s = [], []
    for index in range(count):
        if not args.trace:
            import_s += import_seconds(env, root, deadline)
        out = work / f"worker-{index}.json"
        spawned = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--index", str(index),
             "--window", str(args.seconds / count), "--trace", str(args.trace),
             "--spawned", repr(spawned), "--probes", str(int(index == 0)),
             "--workdir", str(work / f"w{index}"), "--out", str(out)],
            env=env, cwd=root, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"worker {index} exited {done.returncode}:\n{done.stderr}")
        reports.append(json.loads(out.read_text()))
        spans = out.with_suffix(".spans.jsonl")
        if spans.exists():
            shutil.copy(spans, root / ".bench_out" / f"spans-{args.workload}.jsonl")
    return reports, import_s


def per_op_mean(reports: list[dict]) -> dict[str, float]:
    """Each op's mean latency over all its repetitions in the run."""
    samples: dict[str, list[float]] = {}
    for r in reports:
        for name, dt in r["latencies"]:
            samples.setdefault(name, []).append(dt)
    return {name: statistics.fmean(v) for name, v in samples.items()}


def summarize(args, reports: list[dict], import_s: list[float]):
    latencies = [dt for r in reports for _, dt in r["latencies"]]
    mix = per_op_mean(reports)
    failures = [f for r in reports for f in r["failures"]]
    attempted = len(latencies)
    rounds = sum(r["rounds"] for r in reports)
    op_seconds = sum(latencies)
    counts = {
        "workers": len(reports),
        "rounds": rounds,
        "ops_per_round": reports[0]["ops_per_round"],
        "latency_samples": attempted,
        "op_seconds": op_seconds,
        "op_mean_s": mix,
        "mc_trials_per_point": reports[0]["mc_trials_per_point"],
        "import_samples_s": import_s,
        "setup_samples_s": [r["setup_s"] for r in reports],
    }
    probes = reports[0]["probes"]
    long_ml = probes.get("long_weighted_ml", {})
    correct = not failures and long_ml.get("outcome") != "wrong"
    if args.trace:
        metrics = dict(reports[0]["per_layer"])
        times = reports[0]["op_time"]
        metrics["trace.overhead_frac"] = (times["traced"] / times["untraced"] - 1.0, "1")
        extra = {}
    else:
        metrics = {
            # Averages, not medians: the shared host switches between speed
            # states within seconds, and a median jumps with the share of
            # samples taken in each state while a mean moves smoothly with it.
            "ops_per_s": (attempted / op_seconds, "op/s"),
            "op_p50_s": (statistics.median(mix.values()), "s"),
            "op_tail_p75_s": (statistics.quantiles(mix.values(), n=4)[2], "s"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
            "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
            "import_s": (statistics.fmean(import_s), "s"),
            "pse_log2_err": (probes["precision"]["pse_log2_err"], "bit"),
        }
        round_s = sum(mix.values())
        extra = {"fail_frac": (len(failures) / attempted, "1"),
                 "op_p50_all_samples_s": (statistics.median(latencies), "s"),
                 "op_p75_all_samples_s": (statistics.quantiles(latencies, n=4)[2], "s"),
                 "import_median_s": (statistics.median(import_s), "s")}
        if reports[0]["points_per_round"]:
            extra["points_per_s"] = (reports[0]["points_per_round"] / round_s, "point/s")
        if reports[0]["trials_per_round"]:
            extra["trials_per_s"] = (reports[0]["trials_per_round"] / round_s, "trial/s")
    return metrics, extra, counts, failures, probes, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "qdscodes" / "cli.py").is_file():
        print(f"error: no qdscodes sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(root)
    (root / ".bench_out").mkdir(exist_ok=True)
    work = root / ".bench_out" / f"work-{os.getpid()}"
    try:
        reports, import_s = run_workers(args, root, env, work, deadline)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, extra, counts, failures, probes, correct = summarize(args, reports, import_s)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_identity(root),
        "nproc": os.cpu_count(),
        "worker_processes_at_once": 1,
        "python": reports[0]["python"],
        "numpy": reports[0]["numpy"],
        "qdscodes_imported_from": reports[0]["qdscodes"],
        "thread_env": {k: env.get(k) for k in THREAD_ENV},
        "qds_data_dir_set": "QDS_DATA_DIR" in env,
        "counts": counts,
        "failures": failures[:20],
        "probes": probes,
        "metrics": {k: v[0] for k, v in {**metrics, **extra}.items()},
    }
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name}: {value:.6g} {unit}")
    for name, reason in failures[:20]:
        print(f"FAILED {name}: {reason}")
    long_ml = probes.get("long_weighted_ml")
    if long_ml:
        print(f"probe {long_ml['op']}: {long_ml['outcome']} ({long_ml['detail']})")
    path = root / ".bench_out" / f"record-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": counts["latency_samples"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
