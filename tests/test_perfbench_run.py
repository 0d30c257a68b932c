"""A traced benchmark run ends in a valid result line.

``perfbench/run.py`` prints one JSON object as its last line of standard
output, with the record before it.  A run that exits 0 but whose last line
is not such an object (a traceback, a stray print, a NaN metric) gives no
result at all, so the layers it wraps are checked end to end here: one
traced run of ``globalmin-c10`` (the grid driver and the zero-loss report,
about 6 s) and one of ``exact-1d`` (exact singularity and the 1-d fit,
about 7 s).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def _strict_json(line: str):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(line, parse_constant=reject)


def _traced_run(workload: str) -> tuple:
    """The record and the result metrics of a 1 s traced run, after checking its result line."""
    if not RUN.is_file():
        pytest.skip("perfbench/run.py is not in this checkout")
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, proc.stdout[-2000:]
    result = _strict_json(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert all(m["value"] is not None for m in result["metrics"].values())
    return _strict_json(lines[-2])["record"], result["metrics"]


def test_traced_globalmin_run_prints_a_result():
    record, metrics = _traced_run("globalmin-c10")
    assert record["witnesses_checked"] > 0
    # The zero-loss LP looks its pivot loop up in lp._KERNELS, which the
    # tracer wraps, so the kernel layer is timed.
    assert metrics["kernel.ms"]["value"] > 0.0


def test_traced_exact_1d_run_prints_a_result():
    _traced_run("exact-1d")
