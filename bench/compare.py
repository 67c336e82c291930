"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are results directories (or single results files) written
by bench/run.py, e.g. the parent commit and a change, run with the same
seeds and --seconds, alternating which side runs first. For each workload
and metric it prints both sides' median and quartiles, the fraction of
pairs (matched by seed) the change wins, and a verdict:

- improved: the change wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ by more than the base's own
  interquartile distance;
- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json (a metric without a bound: it loses
  9 in 10 pairs by more than the base's interquartile distance);
- unresolved: neither, and a side's spread (interquartile distance over
  median) is wider than the bound, unless every change run reads better
  than every base run;
- unchanged: otherwise.

fail_ratio is worse whenever the change failed more ops in total.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

WIN_FRACTION = 0.9
ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list:
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def bounds_from(benchmark_path) -> dict:
    spec = json.loads(Path(benchmark_path).read_text(encoding="utf-8"))
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(q1, median, q3):
    return (q3 - q1) / abs(median) if median else 0.0


def _series(records):
    """(workload, trace) -> metric -> {seed: value}, and metric -> better."""
    out, better = {}, {"fail_ratio": "lower"}
    for rec in records:
        group = out.setdefault((rec["workload"], rec["trace"]), {})
        values = {name: m["value"] for name, m in rec["metrics"].items()}
        if "fail_ratio" in rec.get("extra", {}):
            values["fail_ratio"] = rec["extra"]["fail_ratio"]
        for name, value in values.items():
            group.setdefault(name, {})[rec["seed"]] = value
        better.update(rec.get("better", {}))
    return out, better


def verdict(base, change, better: str, bound) -> dict:
    """Compare two lists of runs paired by position."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    iqr = b3 - b1
    gain = sign * (cm - bm)
    if bound is None:
        worse = losses >= WIN_FRACTION * len(pairs) and -gain > iqr
    else:
        worse = -gain > bound * abs(bm)
    row = {"base": (b1, bm, b3), "change": (c1, cm, c3), "pairs": len(pairs),
           "win_fraction": wins / len(pairs)}
    if wins >= WIN_FRACTION * len(pairs) and gain > iqr:
        row["verdict"] = "improved"
    elif worse:
        row["verdict"] = "worse"
    else:
        spread = max(_spread(b1, bm, b3), _spread(c1, cm, c3))
        settled = abs(gain) <= iqr if bound is None else spread <= bound
        all_better = min(sign * c for c in change) > max(sign * b for b in base)
        row["verdict"] = "unchanged" if settled or all_better else "unresolved"
    return row


def compare(base_records, change_records, bounds: dict) -> list:
    base, better = _series(base_records)
    change, better_c = _series(change_records)
    better.update(better_c)
    rows = []
    for group in sorted(set(base) & set(change)):
        for name in base[group]:
            if name not in change[group]:
                continue
            b, c = base[group][name], change[group][name]
            seeds = sorted(set(b) & set(c))
            if seeds:
                bv, cv = [b[s] for s in seeds], [c[s] for s in seeds]
            else:
                bv, cv = list(b.values()), list(c.values())
            bound = bounds.get(name)
            row = verdict(bv, cv, better.get(name, "lower"), bound)
            if name == "fail_ratio":
                # any op failing that did not fail before is a regression
                row["verdict"] = "worse" if sum(cv) > sum(bv) else "unchanged"
            row.update(workload=group[0], trace=group[1], metric=name, bound=bound)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of benchmark results")
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    rows = compare(load(args.base), load(args.change), bounds_from(args.benchmark))
    print(f"{'workload':9} {'metric':40} {'base p50 [q1, q3]':36} {'change p50 [q1, q3]':36} "
          f"{'wins':>9} verdict")
    for r in rows:
        def fmt(q):
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"{r['workload']:9} {r['metric']:40} {fmt(r['base']):36} {fmt(r['change']):36} "
              f"{r['win_fraction']:5.0%} of {r['pairs']:<2} {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
