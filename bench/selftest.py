"""Self-test of the benchmark: python3 bench/selftest.py (from the checkout root).

Runs every workload for one second, untraced and traced, and asserts that
each run prints exactly the metrics BENCHMARK.json names, with their units,
and that every output check passed.  It also asserts that the benchmark
refuses to run, without printing a result, where only BENCHMARK.json and the
benchmark's own files exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = [sys.executable, "bench/run.py"]


def result_of(workload: str, trace: int) -> dict:
    done = subprocess.run(RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode == 0, f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}"
    return json.loads(done.stdout.strip().split("\n")[-1])


def check_run(workload: str, trace: int, declared: dict[str, str]) -> None:
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared, (
        f"{workload} trace {trace}: missing {sorted(set(declared) - set(emitted))}, "
        f"extra {sorted(set(emitted) - set(declared))}, "
        f"unit mismatches {[n for n in declared if n in emitted and emitted[n] != declared[n]]}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and value == value, (name, value)
        if not trace:
            assert value != 0, f"end-to-end metric {name} is 0"
    print(f"ok {workload} trace {trace}: {len(emitted)} metrics, {result['attempted']} ops")


def check_refuses_without_program() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(RUN + ["--workload", "verify", "--seed", "1", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and '"correct"' not in done.stdout, done
    print(f"ok bare directory: exit {done.returncode}, no result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check_run(workload, 0, end_to_end)
        check_run(workload, 1, per_layer)
    check_refuses_without_program()


if __name__ == "__main__":
    main()
