"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload {search,coding,cli} --seed N \\
        --seconds S --trace {0,1} [--record FILE]

Run it from the root of a checkout.  It starts perfbench/worker.py in a
fresh single-threaded interpreter with PYTHONPATH=src (the package is not
installed), relays the worker's output, and exits with the worker's code.
The last line of standard output is the summary:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the
line before it holds the full record (environment, samples, failures).
With --record FILE the full record is also appended to FILE as one JSON
line, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: a run must finish well inside the three minutes it is allowed
TIMEOUT_S = 175


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "coding", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", help="append the full record to this JSON-lines file")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "iet3", "__init__.py")):
        print("perfbench: run from the root of an iet3 checkout (src/iet3 not found)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # one thread: numpy's BLAS pools would otherwise race the measured code
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # fixed string hashing keeps set iteration, and so the op counts, repeatable
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # its own session, so that a timeout also stops the worker's children
    worker = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        stdout, _ = worker.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        print(f"perfbench: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    if worker.returncode != 0:
        print(f"perfbench: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
