"""Compare two result sets written by ``run.py --record`` (or sweep.py).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Prints one row per workload and end-to-end metric: each side's median and
quartiles, the spread (quartile distance over median), the pair wins of
NEW over BASE (runs paired by seed; ties count for neither), the bound
from BENCHMARK.json, and a verdict:

- failed: a seed has a run on one side only, or NEW's run of a seed has
  more failed operations than BASE's (a gain made by wrong answers or
  broken runs does not count);
- unresolved: either side's spread is wider than the bound, and not every
  NEW run beats every BASE run;
- worse: NEW's median is worse than BASE's by more than the bound;
- better: NEW wins at least nine tenths of the pairs and the medians differ
  by more than BASE's quartile distance;
- same: none of the above.

Exits 1 if any row is failed, worse or unresolved.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> tuple[dict, dict]:
    """Over the untraced runs: {(workload, metric): {seed: value}} and
    {workload: {seed: failed operations}}."""
    table: dict = {}
    failed: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"]:
                continue
            failed.setdefault(record["workload"], {})[record["seed"]] = record["failed"]
            for name, metric in record["metrics"].items():
                table.setdefault((record["workload"], name), {})[record["seed"]] = metric["value"]
    return table, failed


def failed_seeds(base: dict, new: dict) -> list[str]:
    """Seeds run on one side only, or with more failed operations in NEW."""
    problems = [f"seed {s} only in {'BASE' if s in base else 'NEW'}"
                for s in sorted(set(base) ^ set(new))]
    problems += [f"seed {s} failed {new[s]} ops (BASE {base[s]})"
                 for s in sorted(set(base) & set(new)) if new[s] > base[s]]
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[str, dict]:
    b_vals, n_vals = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b_vals)
    nq1, nmed, nq3 = quartiles(n_vals)
    sign = 1 if better == "higher" else -1
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    losses = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    b_spread = (bq3 - bq1) / bmed if bmed else 0.0
    n_spread = (nq3 - nq1) / nmed if nmed else 0.0
    all_better = min(sign * v for v in n_vals) > max(sign * v for v in b_vals)
    change = sign * (nmed - bmed) / bmed if bmed else 0.0
    if change < -bound:
        status = "worse"
    elif max(b_spread, n_spread) > bound and not all_better:
        status = "unresolved"
    elif seeds and wins >= 0.9 * len(seeds) and abs(nmed - bmed) > bq3 - bq1:
        status = "better"
    else:
        status = "same"
    row = {
        "base": (bq1, bmed, bq3),
        "new": (nq1, nmed, nq3),
        "spread": (b_spread, n_spread),
        "wins": f"{wins}/{len(seeds)} (lost {losses})",
        "change": change,
    }
    return status, row


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    (base, base_failed), (new, new_failed) = load(argv[0]), load(argv[1])
    print(f"{'workload':8} {'metric':13} {'base q1/med/q3':>32} {'new q1/med/q3':>32} "
          f"{'spread b/n':>11} {'change':>7} {'wins':>16} {'bound':>5}  verdict")
    bad = 0
    for workload in sorted(set(base_failed) | set(new_failed)):
        for problem in failed_seeds(base_failed.get(workload, {}),
                                    new_failed.get(workload, {})):
            print(f"{workload:8} failed: {problem}")
            bad += 1
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in spec:
            continue
        m = spec[name]
        status, row = verdict(base[key], new[key], m["better"], m["bound"])
        if failed_seeds(base_failed[workload], new_failed[workload]):
            status = "failed"
        bad += status in ("failed", "worse", "unresolved")
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(f"{workload:8} {name:13} {fmt(row['base']):>32} {fmt(row['new']):>32} "
              f"{row['spread'][0]:5.3f}/{row['spread'][1]:5.3f} {row['change']:+7.3f} "
              f"{row['wins']:>16} {m['bound']:5.2f}  {status}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
