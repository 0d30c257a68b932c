#!/usr/bin/env python3
"""Benchmark of the reluregions package: one workload per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Builds the package in place with its own ``setup.py``, then runs the
workload in a closed loop (one caller; the next batch starts when the last
one ends).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass.  Every output is checked; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a record
with the environment stamp, the error rate and the reference mismatches,
which ``compare.py`` reads.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import NOMINAL_S, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("globalmin-c10", "rank-grid-c8", "enumerate-d2", "exact-1d")
PROBES = 9  # fresh processes timed for setup_s; the median is reported
WARMUP_S = 1.0  # untimed batches first: the first large arrays of a process are slow to fault in
# Shortest stretch timed as one sample of a throughput metric: long enough
# to hold several globalmin-c10 trials, which take from 10 ms to 1 s each.
SEGMENT_S = 2.0


def build() -> None:
    """Build the package in place with its own build script (the compiled kernel, when it can)."""
    if not (ROOT / "src" / "reluregions").is_dir():
        raise FileNotFoundError(f"no package source under {ROOT / 'src'}")
    if not (ROOT / "setup.py").is_file():
        return
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.log", "w") as log:
        subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace", "--build-temp", str(BUILD_DIR / "temp")],
            cwd=ROOT,
            stdout=log,
            stderr=subprocess.STDOUT,
            check=True,
            timeout=850,
        )


def run_limit_s(seconds: float) -> float:
    """Wall time after which a run has met a program stall: 130 s of set-up and checks plus twice the timed part."""
    return 130.0 + 2.0 * seconds


def start_watchdog(what: str, limit_s: float) -> threading.Timer:
    """End the process with exit code 3 and no result if the run outlives ``limit_s``.

    A batch cannot be interrupted from outside, so a program call that never
    returns would otherwise hold the run past any time limit.
    """

    def expire() -> None:
        print(f"perfbench: {what} still running after {limit_s:.0f} s: the program stalled", file=sys.stderr, flush=True)
        os._exit(3)

    timer = threading.Timer(limit_s, expire)
    timer.daemon = True
    timer.start()
    return timer


def stamp(reluregions, numpy) -> dict:
    """Environment that every result is recorded with; runs are comparable only under equal stamps.

    The host name is left out: virtual machines of one type often get a new
    one each time they start.  The record carries it separately, for
    information.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": reluregions.kernel_backend(),
    }


def setup_seconds(workload: str, cal) -> tuple:
    """Times from spawning a fresh interpreter to its first warm-up item done, one per probe.

    Returns the times and calibration times (see ``calibrate.py``) taken
    before the first probe and after every probe.
    """
    times, marks = [], [cal.sample_s()]
    for _ in range(PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line != "ready":
                raise RuntimeError(f"set-up probe for {workload} failed")
        times.append(elapsed)
        marks.append(cal.sample_s())
    return times, marks


@dataclass
class Pass:
    outputs: dict = field(default_factory=dict)
    items: int = 0
    failed: int = 0
    wall_s: float = 0.0
    next_index: int = 0

    def merge(self, other: "Pass") -> None:
        self.outputs.update(other.outputs)
        self.items += other.items
        self.failed += other.failed
        self.wall_s += other.wall_s
        self.next_index = other.next_index


def run_pass(wl, state, workers: int, seconds: float | None = None, batches: int | None = None, first: int = 0) -> Pass:
    """Closed loop over batches first, first + 1, ... until ``seconds`` of wall time or ``batches`` batches.

    Grid workloads pass ``workers`` to the program and keep one caller; the
    others have no parallel API, so ``workers`` callers share the batches.
    """
    clients = 1 if wl.parallel_api else workers
    api_workers = workers if wl.parallel_api else 1
    result = Pass()
    lock = threading.Lock()
    next_index = [first]
    start = time.perf_counter()

    def client() -> None:
        while True:
            with lock:
                index = next_index[0]
                if batches is not None and index >= first + batches:
                    return
                if seconds is not None and time.perf_counter() - start >= seconds:
                    return
                next_index[0] += 1
            try:
                out = wl.run_batch(state, index, api_workers)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                with lock:
                    result.failed += wl.batch_items()
                continue
            with lock:
                result.outputs[index] = out

    if clients == 1:
        client()
    else:
        with ThreadPoolExecutor(max_workers=clients) as pool:
            for future in [pool.submit(client) for _ in range(clients)]:
                future.result()
    result.wall_s = time.perf_counter() - start
    result.next_index = next_index[0]
    result.items = sum(wl.items(out) for out in result.outputs.values())
    return result


def check_passes(wl, passes) -> int:
    """Items failing the workload's own check, or differing between passes on the same batch."""
    failed = sum(wl.check(out) for p in passes for out in p.outputs.values())
    first = passes[0].outputs
    for other in passes[1:]:
        for index, out in other.outputs.items():
            if index in first and wl.fingerprint(out) != wl.fingerprint(first[index]):
                failed += wl.items(out)
    return failed


def reference_mismatch(wl) -> int:
    """Output values of the default-seed batch that differ from the stored reference."""
    expected = json.loads(REFERENCE.read_text())[wl.name]
    got = wl.reference()
    mismatch = 0
    for key in expected.keys() | got.keys():
        a, b = expected.get(key, []), got.get(key, [])
        mismatch += sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return mismatch


def segments(wl, state, modes, seconds: float, cal=None) -> tuple:
    """Closed-loop segments of each worker count in ``modes``, interleaved for ``seconds``.

    The mode with less time so far goes next, so that every mode samples the
    same stretch of machine load for equal time.  Each mode has its own
    sequence of batches, so all modes run the same inputs.  With ``cal``, a
    calibration sample is taken before the first segment and after every
    segment.  Returns ({workers: Pass}, {workers: segment rates},
    calibration times, or [] without ``cal``).
    """
    sides = {w: Pass() for w in modes}
    rates = {w: [] for w in modes}
    marks = [] if cal is None else [cal.sample_s()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not all(rates.values()):
        workers = min(sides, key=lambda w: sides[w].wall_s)
        one = run_pass(wl, state, workers, seconds=SEGMENT_S, first=sides[workers].next_index)
        sides[workers].merge(one)
        rates[workers].append(one.items / one.wall_s)
        if cal is not None:
            marks.append(cal.sample_s())
    return sides, rates, marks


def measure(wl, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (metrics, passes, extra failures, notes for the record)."""
    import tracer

    if not trace:
        cal = Calibration()
        probe_s, probe_marks = setup_seconds(wl.name, cal)
    state = wl.prepare(seed)
    run_pass(wl, state, 1, seconds=WARMUP_S)
    if not trace:
        # The median segment rate and probe time discount bursts of load from
        # outside; the median calibration time, sampled between probes and
        # segments, divides out the slower drift of the machine's speed.
        sides, rates, segment_marks = segments(wl, state, (1,), seconds, cal)
        slowness = statistics.median(probe_marks + segment_marks) / NOMINAL_S
        rate, setup = statistics.median(rates[1]), statistics.median(probe_s)
        metrics = {
            "items_per_s": {"value": rate * slowness, "unit": "1/s"},
            "setup_s": {"value": setup / slowness, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        notes = {
            "segments": len(rates[1]),
            "slowness": slowness,
            "raw": {"items_per_s": rate, "setup_s": setup},
        }
        return metrics, list(sides.values()), 0, notes

    # Each batch runs untraced and traced back to back, in alternating order,
    # so that both sides see the same machine load.
    batches = max(1, round(seconds / 2 * wl.batches_per_s))
    plain, traced = Pass(), Pass()
    tr = tracer.Tracer(keep=wl.keep)
    for index in range(batches):
        for side in ((plain, traced) if index % 2 == 0 else (traced, plain)):
            if side is traced:
                with tr:
                    side.merge(run_pass(wl, state, 1, batches=1, first=index))
            else:
                side.merge(run_pass(wl, state, 1, batches=1, first=index))
    outputs = traced.outputs.values()
    metrics = tracer.layer_metrics(
        tr,
        items=max(traced.items, 1),
        patterns_found=sum(wl.patterns_found(o) for o in outputs),
        resamples=sum(wl.resamples(o) for o in outputs),
        traced_s=traced.wall_s,
        untraced_s=plain.wall_s,
    )
    # Two-way parallelism, untraced: one- and two-worker segments side by side.
    sides, rates, _ = segments(wl, state, (1, 2), seconds / 2)
    w1, w2 = statistics.median(rates[1]), statistics.median(rates[2])
    metrics["items_per_s_w2"] = {"value": w2, "unit": "1/s"}
    metrics["speedup_w2"] = {"value": w2 / w1, "unit": "ratio"}
    extra_failed, notes = 0, {"not_measured": sorted(tr.missing), "batches": batches, "segments": [len(rates[1]), len(rates[2])]}
    if wl.keep:
        checked, extra_failed = wl.check_kept(tr.kept)
        notes["witnesses_checked"] = checked
    return metrics, [plain, traced, *sides.values()], extra_failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=20.0, help="wall time measured by one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="record the default-seed outputs of every workload")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        build()
        import numpy
        import workloads
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot build or import the package: {exc}", file=sys.stderr)
        return 1

    if args.write_reference:
        reference = {name: workloads.WORKLOADS[name].reference() for name in WORKLOAD_NAMES}
        REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
        return 0

    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    watchdog = start_watchdog(f"{wl.name} seed {seed}", run_limit_s(args.seconds))
    metrics, passes, failed, notes = measure(wl, seed, args.seconds, bool(args.trace))
    failed += check_passes(wl, passes) + sum(p.failed for p in passes)
    attempted = sum(p.items + p.failed for p in passes)
    mismatch = reference_mismatch(wl)
    watchdog.cancel()
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(workloads.reluregions, numpy),
        "host": platform.node(),
        "error_rate": failed / max(attempted, 1),
        "output_mismatch": mismatch,
        **notes,
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and mismatch == 0,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
