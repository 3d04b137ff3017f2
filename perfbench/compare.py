"""Compare two sets of result files, per workload and per metric.

    python3 perfbench/run.py --compare BASE NEW

BASE and NEW are each a result file or a directory of them (as written
under ``.perfbench_out/``).  Runs are grouped by workload and trace mode;
each metric's runs give a median and quartiles.  A metric is

* ``unresolved`` when either side's spread (quartile distance over
  median) exceeds the metric's bound, unless every NEW run beats every
  BASE run;
* ``worse`` when NEW's median is worse than BASE's by more than the bound;
* ``better`` when NEW's median is better by more than BASE's own spread
  and NEW wins at least nine tenths of all (BASE, NEW) pairs;
* ``unchanged`` otherwise.

Per-layer metrics have no bound: they are ``better`` or ``worse`` by the
spread-and-pairs rule alone, else ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: [values]}} from the result files under path."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = defaultdict(lambda: defaultdict(list))
    for f in files:
        doc = json.loads(f.read_text())
        if "meta" not in doc:
            continue
        key = (doc["meta"]["workload"], doc["meta"]["trace"])
        for name, metric in doc["metrics"].items():
            runs[key][name].append(metric["value"])
    return runs


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, new, better, bound):
    sign = -1 if better == "lower" else 1  # positive = improvement
    wins = sum(sign * (n - b) > 0 for b in base for n in new)
    all_better = wins == len(base) * len(new)
    mb, mn = statistics.median(base), statistics.median(new)
    change = sign * (mn - mb) / abs(mb) if mb else 0.0
    if bound is not None and max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", change
    if bound is not None and change < -bound:
        return "worse", change
    if change > spread(base) and wins >= 0.9 * len(base) * len(new):
        return "better", change
    if bound is None:
        if -change > spread(base) and wins <= 0.1 * len(base) * len(new):
            return "worse", change
        return "unresolved", change
    return "unchanged", change


def main(base_path, new_path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(base_path), load(new_path)
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(next(iter(base[key].values())))} base runs, "
              f"{len(next(iter(new[key].values())))} new runs")
        for name in base[key]:
            if name not in new[key] or name not in metrics:
                continue
            m = metrics[name]
            label, change = verdict(base[key][name], new[key][name], m["better"], m.get("bound"))
            print(
                f"  {name:40s} {statistics.median(base[key][name]):14.4f} -> "
                f"{statistics.median(new[key][name]):14.4f} {m['unit']:9s} "
                f"{change:+8.2%}  {label}"
            )
    return 0
