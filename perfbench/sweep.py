"""Run a workload over several seeds, alternating two checkouts.

    python3 perfbench/sweep.py --workload coding --seeds 1-10 \\
        --base PARENT_DIR --new . --out results/

Each seed runs once on each side; the side that goes first alternates
from seed to seed.  Both sides use this benchmark's code, each against
its own ``src``.  Records go to OUT/base.jsonl and OUT/new.jsonl, ready
for compare.py.  With --base and --new the same directory, the two sets
measure the benchmark's own run-to-run agreement.  Each run measures for
BENCHMARK.json's run_seconds.  Exits 1 if any run exited with another
code than 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--base", required=True)
    parser.add_argument("--new", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    broken = []
    sides = [("base", os.path.abspath(args.base)), ("new", os.path.abspath(args.new))]
    for workload in args.workload:
        for k, seed in enumerate(args.seeds):
            for name, root in sides if k % 2 == 0 else sides[::-1]:
                record = os.path.abspath(os.path.join(args.out, f"{name}.jsonl"))
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                     "--record", record],
                    cwd=root, stdout=subprocess.PIPE, text=True,
                )
                last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
                print(f"{workload} seed {seed} {name}: exit {done.returncode} {last[:160]}",
                      flush=True)
                if done.returncode != 0:
                    broken.append(f"{workload} seed {seed} {name}: exit {done.returncode}")
    for line in broken:
        print("failed run:", line)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
