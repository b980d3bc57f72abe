"""Tests of the benchmark itself; run from the root of the repository:

    python3 perfbench/selftest.py           # about a minute
    python3 perfbench/selftest.py --search  # also the traced search, twice

Checks that a planted wrong reference digest is counted as a failed
operation and named, that the benchmark refuses to run where the program
is missing, that the traced run's exact counts repeat between two runs,
that a run can do more units than setup built inputs for, and the
tail-percentile rule.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def spec_names(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[kind]}


def run(*args: str, cwd: str = ROOT, bench: str = HERE) -> tuple[int, list[str]]:
    """run.py of the benchmark copy in ``bench``, from the checkout ``cwd``."""
    done = subprocess.run(
        [sys.executable, os.path.join(bench, "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=400,
    )
    return done.returncode, done.stdout.strip().splitlines()


def copy_benchmark(into: str) -> str:
    bench = os.path.join(into, "perfbench")
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    return bench


def test_planted_wrong_digest_is_a_failed_op() -> None:
    import workloads
    from worker import REFERENCE

    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    # a one-second run does one unit of CLI rounds
    rounds = workloads.cli_rounds(1, workloads.CLI_UNIT_ROUNDS)
    planted = workloads.cli_op_id(rounds[0][workloads.CLI_ROUND.index("analyze")])
    calls = sum(workloads.cli_op_id(argv) == planted for r in rounds for argv in r)
    reference["digests"][planted] = "exit=0|" + "0" * 32
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bench = copy_benchmark(tmp)
        with open(os.path.join(bench, "reference.json"), "w", encoding="utf-8") as handle:
            json.dump(reference, handle)
        code, lines = run("--workload", "cli", "--seed", "1", "--seconds", "1",
                          "--trace", "0", bench=bench)
    assert code == 0, code
    summary = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert summary["correct"] is False
    assert summary["failed"] == calls, (calls, summary)
    assert all(f.startswith(planted) for f in record["failures"]), record["failures"]
    code, lines = run("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    summary = json.loads(lines[-1])
    assert summary["failed"] == 0, lines[-2]
    assert set(summary["metrics"]) == spec_names("end_to_end")


def test_refuses_to_run_without_the_program() -> None:
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        bench = copy_benchmark(bare)
        code, lines = run("--workload", "cli", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare, bench=bench)
    assert code != 0 and not lines, (code, lines)


def exact_counts(workload: str) -> dict:
    code, lines = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert code == 0, code
    summary = json.loads(lines[-1])
    assert summary["failed"] == 0, lines[-2]
    assert set(summary["metrics"]) == spec_names("per_layer")
    return {
        k: v["value"]
        for k, v in summary["metrics"].items()
        if not k.endswith("self_s") and k != "trace.overhead_ratio"
        and (k.startswith(("qfield.", "audit.search.")) or k.endswith(".letters"))
    }


def test_traced_counts_repeat(workload: str) -> None:
    first, second = exact_counts(workload), exact_counts(workload)
    assert first == second, {k: (first[k], second[k]) for k in first if first[k] != second[k]}


def test_units_cycle_past_the_built_inputs() -> None:
    from worker import CLI_UNITS, CODING_DRAWS, make_inputs

    for workload, built in (("coding", CODING_DRAWS), ("cli", CLI_UNITS)):
        units = make_inputs(workload, 1, False)
        first = [op.op_id for op in units(0)]
        assert first and [op.op_id for op in units(built)] == first, workload


def test_tail_rule() -> None:
    from worker import tail

    assert tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert tail([float(x) for x in range(1, 12)]) == (1.0, 100.0 / 11)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def main() -> int:
    tests = [
        ("tail rule", test_tail_rule),
        ("units cycle", test_units_cycle_past_the_built_inputs),
        ("planted wrong digest", test_planted_wrong_digest_is_a_failed_op),
        ("no program, no result", test_refuses_to_run_without_the_program),
        ("cli counts repeat", lambda: test_traced_counts_repeat("cli")),
        ("coding counts repeat", lambda: test_traced_counts_repeat("coding")),
    ]
    if "--search" in sys.argv:
        tests.append(("search counts repeat", lambda: test_traced_counts_repeat("search")))
    for name, test in tests:
        test()
        print("ok", name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
