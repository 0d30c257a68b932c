#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny size.

Usage: python3 perfbench/smoke.py

Runs each workload for half a second in both modes and checks that the last
line carries exactly the metric names and units that BENCHMARK.json lists,
that every output check passed, and that the record line carries the
environment stamp.  It also runs ``compare.py`` on the collected output, and
runs the benchmark in a directory holding only BENCHMARK.json and this
directory, where it must fail without printing a result.  Exit 0 when every
check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STAMP_KEYS = {"machine", "platform", "nproc", "python", "numpy", "kernel_backend"}

problems = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def bench(args, cwd) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload: str, trace: int) -> list:
    """Run one tiny workload and check its output; returns its last two lines."""
    name = f"{workload} --trace {trace}"
    proc = bench(["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace)], ROOT)
    expect(proc.returncode == 0, f"{name}: exit code {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return []
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0, f"{name}: outputs not correct")
    expect(result["attempted"] >= 1, f"{name}: nothing attempted")
    listed = SPEC["per_layer" if trace else "end_to_end"]
    expect(
        {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()},
        f"{name}: metric names or units differ from BENCHMARK.json",
    )
    for key, metric in result["metrics"].items():
        value = metric["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{name}: {key} = {value!r}")
    expect(STAMP_KEYS <= set(record["stamp"]), f"{name}: stamp lacks {STAMP_KEYS - set(record['stamp'])}")
    expect(record["error_rate"] == 0 and record["output_mismatch"] == 0, f"{name}: error rate or mismatch")
    expect(record.get("not_measured", []) == [], f"{name}: hooks not measured: {record.get('not_measured')}")
    if workload == "globalmin-c10" and trace:
        expect(record["witnesses_checked"] >= 1, f"{name}: no witness checked")
    print(f"ok   {name}")
    return lines[-2:]


def check_bare_directory() -> None:
    """Without the package next to it the benchmark must fail and print no result."""
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "rank-grid-c8", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    expect(proc.returncode != 0, "bare directory: benchmark exited 0")
    expect('"metrics"' not in proc.stdout, "bare directory: benchmark printed a result")
    shutil.rmtree(bare)
    print("ok   bare directory refused")


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    log = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            log += check_run(workload, trace)
    log_path = SCRATCH / "smoke.log"
    log_path.write_text("\n".join(log) + "\n")
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(log_path), str(log_path)], capture_output=True, text=True
    )
    expect(proc.returncode == 0, f"compare.py on identical logs: exit {proc.returncode}: {proc.stdout}{proc.stderr}")
    check_bare_directory()
    print("smoke test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
