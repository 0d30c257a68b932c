#!/usr/bin/env python3
"""Summarise or compare saved benchmark output.

Usage:

    python3 perfbench/compare.py RUNS.log               # spread of each metric
    python3 perfbench/compare.py BASE.log HEAD.log      # HEAD against BASE

A log is the standard output of any number of ``run.py`` runs, concatenated.
Each run contributes a ``{"record": ...}`` line followed by its result line.
For every workload and metric the summary gives the run count, the median
and the spread (distance between the quartiles over the median).  A
comparison adds the change of the median, signed so that positive is worse,
and marks an end-to-end metric that got worse by more than its bound in
BENCHMARK.json.

Runs are paired only when their environment stamps are identical: the tool
refuses (exit 2) when they differ.  Exit 1 means a regression beyond a bound
or a run whose outputs were not correct; exit 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list:
    """(record, result) pairs in the order the runs printed them."""
    runs, record = [], None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "record" in obj:
            record = obj["record"]
        elif "metrics" in obj and record is not None:
            runs.append((record, obj))
            record = None
    return runs


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def summarise(runs) -> dict:
    """{(workload, metric): values} for metrics that were measured."""
    table = defaultdict(list)
    for record, result in runs:
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                table[(record["workload"], name)].append(metric["value"])
    return table


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(path) for path in argv]
    stamps = {json.dumps(record["stamp"], sort_keys=True) for runs in sides for record, _ in runs}
    if len(stamps) != 1:
        print("refusing to pair runs whose environment stamps differ:", file=sys.stderr)
        for s in sorted(stamps):
            print("  " + s, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    for runs in sides:
        for record, result in runs:
            if not result["correct"]:
                print(f"incorrect outputs: {record['workload']} seed {record['seed']} trace {record['trace']}")
                status = 1
    tables = [summarise(runs) for runs in sides]
    print(f"{'workload':16} {'metric':40} {'n':>3} {'median':>12} {'spread':>7}" + ("  change  verdict" if len(tables) == 2 else ""))
    for key in sorted(tables[-1]):
        workload, name = key
        head = tables[-1][key]
        line = f"{workload:16} {name:40} {len(head):3d} {statistics.median(head):12.5g} {spread(head):7.3f}"
        spec_m = metrics.get(name, {})
        bound = spec_m.get("bound")
        if bound is not None and len(tables) == 1 and spread(head) > bound / 3:
            line += "  spread above a third of the bound"
        if len(tables) == 2 and key in tables[0]:
            base = statistics.median(tables[0][key])
            change = (statistics.median(head) - base) / abs(base) if base else 0.0
            if spec_m.get("better") == "higher":
                change = -change
            line += f"  {change:+7.3f}"
            if bound is not None:
                worse = change > bound
                line += "  WORSE THAN BOUND" if worse else "  within bound"
                status = max(status, int(worse))
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
