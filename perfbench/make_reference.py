"""Record the reference digests of every input the workloads can generate.

Run from the root of the repository, at a commit whose outputs are known
to be right:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes perfbench/reference.json and exits 1 if any theory check fails,
so that a reference is never recorded from a program that breaks one.
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from worker import OUT, REFERENCE, ROOT, git_sha


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    ops = [op for t in workloads.triples() for op in workloads.coding_ops(t)]
    ops += workloads.search_ops()
    schema = workloads.SchemaCheck(ROOT)
    pools = workloads.CliInputs(workloads.triples()).pools()
    ops += [workloads.cli_op(argv, schema) for pool in pools.values() for argv in pool]
    digests, bad = {}, 0
    for op in ops:
        got, problems = op.outcome(op.run())
        digests[op.op_id] = got
        if problems:
            bad += 1
            print(f"{op.op_id}: {'; '.join(problems)}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"git_sha": git_sha(ROOT), "digests": digests}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"{len(digests)} digests, {bad} with failed theory checks")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
