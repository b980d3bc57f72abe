"""One benchmark run, in a fresh single-threaded interpreter.

run.py starts this file with PYTHONPATH=src from the root of a checkout.
The run sets up (imports iet3, generates the seeded inputs), runs the
workload's operations until --seconds have passed, checks every output
against the reference digests and the theory checks, and prints two JSON
lines: the full record, then the summary (correct, attempted, failed and
the metrics).

With --trace 1 it instead runs one fixed unit of the workload three times:
untraced, under the span recorder, and under the exact-arithmetic counter,
and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from spans import QFIELD_OPS, SPAN_LAYERS, QfieldCounter, SpanRecorder
from speed import REFERENCE_PROBE_S, SpeedProbe, probe

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

#: fresh-process repetitions for setup_s and cold_start_s
SETUP_REPEATS = 9
COLD_REPEATS = 9
COLD_ARGV = ["sturm", "--value", "(-1+sqrt(5))/2", "--json"]
#: a fresh ``python -c "import numpy"`` on the reference host: its
#: spawn-to-exit time and the time of the import itself.  cold_start_s and
#: the import in setup_s are measured as ratios to these and reported in
#: these seconds
BASELINE_START_S = 0.12
BASELINE_IMPORT_S = 0.08
#: timed probe calls of the calibration figure recorded before each run
CALIBRATION_PROBES = 20
#: probe calls timed on each side of a fresh setup
SETUP_PROBES = 5
#: coding draws and CLI units built in setup; a run that does more cycles
#: through them
CODING_DRAWS = 20
CLI_UNITS = 10
#: ops run before the traced run's untraced pass: one coding triple, one
#: CLI round; a search is too long to repeat and has little to warm
WARMUP_OPS = {"search": 0, "coding": 7, "cli": len(workloads.CLI_ROUND)}

SEARCH_STAGES = (
    "total",
    "no-fixed-point",
    "non-primitive",
    "quick-imbalance",
    "certificate-error",
    "certificate-refuted",
    "certificate-periodic",
    "certificate-consistent",
    "audit-pass",
    "audit-fail",
    "audit-not-applicable",
)

# -- environment ---------------------------------------------------------------


def loadavg() -> list[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return []


def git_sha(root: str) -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def calibrate() -> float:
    """The host-speed probe timed CALIBRATION_PROBES times in a row."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_PROBES):
        probe()
    return time.perf_counter() - start


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
    }


# -- setup ---------------------------------------------------------------------


def make_inputs(workload: str, seed: int, trace: bool):
    """The seeded inputs of a run, as a function from unit index to ops.

    A unit is the smallest whole piece of work a run measures: one search,
    one coding draw, or CLI_UNIT_ROUNDS CLI rounds.  Setup builds
    CODING_DRAWS draws or CLI_UNITS units, and unit k is built from input
    k modulo their number, so a run can do any number of units.  In the
    traced run unit 0 is the fixed work of all three passes; for cli it is
    four rounds, which reach every audit exit.
    """
    if workload == "search":
        return lambda k: workloads.search_ops()
    if workload == "coding":
        draws = [workloads.coding_draw(seed * 1_000 + k)
                 for k in range(1 if trace else CODING_DRAWS)]
        return lambda k: [op for t in draws[k % len(draws)] for op in workloads.coding_ops(t)]
    if workload == "cli":
        schema = workloads.SchemaCheck(ROOT)
        per_unit = len(workloads.AUDIT_FULL) if trace else workloads.CLI_UNIT_ROUNDS
        count = 1 if trace else CLI_UNITS
        rounds = workloads.cli_rounds(seed, per_unit * count)
        calls = [argv for r in rounds for argv in r]
        size = per_unit * len(workloads.CLI_ROUND)

        def unit(k):
            j = k % count
            return [workloads.cli_op(argv, schema) for argv in calls[j * size:(j + 1) * size]]

        return unit
    raise ValueError(f"unknown workload {workload!r}")


def timed_setup(workload: str, seed: int, trace: bool):
    """Returns the time of ``import iet3``, of the input generation, and
    the inputs."""
    start = time.perf_counter()
    import iet3  # noqa: F401

    imported = time.perf_counter()
    units = make_inputs(workload, seed, trace)
    return imported - start, time.perf_counter() - imported, units


def probe_time() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    out = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=60)
    return time.perf_counter() - start, out


def numpy_baseline() -> tuple[float, float]:
    """A bare interpreter importing numpy: spawn-to-exit and import time.

    The host's speed at starting processes and importing modules swings by
    a fifth from one second to the next, and the CPU probe does not follow
    it; a baseline spawned just before the measured process does (the
    ratio of the pair stayed within 3-8 % where raw times moved 20 %).
    """
    elapsed, out = spawn([sys.executable, "-c",
                          "import time; t = time.perf_counter(); import numpy; "
                          "print(time.perf_counter() - t)"])
    return elapsed, float(out.stdout)


def fresh_setups(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """setup_s in fresh interpreters, as a user starting up pays it.

    The import is scaled by the numpy import of the baseline spawned just
    before it, to BASELINE_IMPORT_S; the input generation, which is CPU
    work like the operations, by the speed probe timed around it in the
    same process, to REFERENCE_PROBE_S.  Returns the scaled and the raw
    setup times.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        _start, base = numpy_baseline()
        _elapsed, out = spawn([sys.executable, __file__, "--setup-only", "--workload",
                               workload, "--seed", str(seed)])
        out.check_returncode()
        import_s, inputs_s, probe_s = map(float, out.stdout.split())
        raw.append(import_s + inputs_s)
        scaled.append(import_s / base * BASELINE_IMPORT_S
                      + inputs_s / probe_s * REFERENCE_PROBE_S)
    return scaled, raw


def cold_starts(reference: dict) -> tuple[list[float], list[float], list[str]]:
    """Spawn-to-exit times of ``iet3 sturm``, with its output checked.

    Each is paired with the spawn-to-exit time of a numpy baseline just
    before it.  Returns the ratios, the raw times and any failures.
    """
    ratios, raw, problems = [], [], []
    expected = reference.get(workloads.cli_op_id(COLD_ARGV[:-1]))
    for _ in range(COLD_REPEATS):
        base, _import_s = numpy_baseline()
        elapsed, out = spawn([sys.executable, "-m", "iet3.cli", *COLD_ARGV])
        ratios.append(elapsed / base)
        raw.append(elapsed)
        got = f"exit={out.returncode}|{workloads.digest(out.stdout)}"
        if got != expected:
            problems.append(f"cold start: got {got}, expected {expected}")
    return ratios, raw, problems


# -- the timed phase ----------------------------------------------------------


class Ledger:
    """Per-op intervals, outcomes and failures of one pass.

    With a speed probe running, the probe's own time inside an op is taken
    out of the op's busy time.
    """

    def __init__(self, reference: dict, speed: SpeedProbe | None = None):
        self.reference = reference
        self.speed = speed
        # (start, end, busy seconds)
        self.intervals: list[tuple[float, float, float]] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.info: list[dict] = []

    def run(self, op) -> None:
        self.attempted += 1
        spent = self.speed.spent if self.speed else 0.0
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an unexpected exception is a failed op
            self.failures.append(f"{op.op_id}: raised {type(exc).__name__}: {exc}")
            return
        end = time.perf_counter()
        if self.speed:
            spent = self.speed.spent - spent
        self.intervals.append((start, end, end - start - spent))
        self.kinds.append(op.kind)
        try:
            got, problems = op.outcome(result)
        except Exception as exc:
            self.failures.append(f"{op.op_id}: outcome check raised {exc!r}")
            return
        expected = self.reference.get(op.op_id)
        if expected is None:
            problems = [*problems, "no reference digest"]
        elif got != expected:
            problems = [*problems, f"digest {got} != reference {expected}"]
        if problems:
            self.failures.append(f"{op.op_id}: {'; '.join(problems)}")
        self.info.append(op.info)

    def raw(self) -> list[float]:
        return [busy for _start, _end, busy in self.intervals]

    def scaled(self) -> list[float]:
        return [self.speed.scaled(*interval) for interval in self.intervals]


def run_units(units, ledger: Ledger, seconds: float | None) -> None:
    """Run whole units; a new one starts only if it should end in time.

    With seconds None, run unit 0 alone (the traced run's fixed unit).
    """
    done = 0
    start = time.perf_counter()
    while True:
        for op in units(done):
            ledger.run(op)
        done += 1
        if seconds is None:
            return
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile); with ten samples or fewer there is no such
    percentile and the maximum is reported with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def work_done(workload: str, ledger: Ledger) -> int:
    """Candidates examined, letters analysed, or commands run."""
    if workload == "search":
        return sum(i["stages"]["total"] for i in ledger.info if "stages" in i)
    if workload == "coding":
        return workloads.CODING_LETTERS * ledger.kinds.count("code")
    return len(ledger.intervals)


# -- per-layer metrics ------------------------------------------------------


def layer_metrics(recorder: SpanRecorder, traced: Ledger, counts: dict,
                  overhead_ratio: float) -> dict:
    """Span self-times are raw seconds; they carry no bound."""
    per_name = recorder.self_times()
    m: dict[str, tuple[float, str]] = {}

    def layer(name):
        agg = {"calls": 0, "self_s": 0.0, "work": 0}
        for span_name in SPAN_LAYERS[name]:
            for key, value in per_name.get(span_name, {}).items():
                agg[key] += value
        return agg

    for name in ("dynamics.iet_code_orbit", "dynamics.rotation_code_orbit",
                 "words.complexity", "words.height",
                 "morphisms.fixed_point_prefix", "morphisms.apply"):
        agg = layer(name)
        m[f"{name}.self_s"] = (agg["self_s"], "s")
        m[f"{name}.letters"] = (agg["work"], "count")
    for name in ("words.balance", "morphisms.spectral", "audit.search", "cli.main"):
        m[f"{name}.self_s"] = (layer(name)["self_s"], "s")
    for name in ("audit.certificate", "audit.recover", "audit.audit"):
        agg = layer(name)
        m[f"{name}.calls"] = (agg["calls"], "count")
        m[f"{name}.self_s"] = (agg["self_s"], "s")
    svg = layer("stepline.svg")
    m["stepline.svg.self_s"] = (svg["self_s"], "s")
    m["stepline.svg.bytes"] = (svg["work"], "bytes")

    stages = dict.fromkeys(SEARCH_STAGES, 0)
    for info in traced.info:
        for key, value in info.get("stages", {}).items():
            stages[key] += value
    for key in SEARCH_STAGES:
        m[f"audit.search.{key}"] = (stages[key], "count")
    run_certs = sum(stages[k] for k in SEARCH_STAGES if k.startswith("certificate-"))
    m["audit.search.cert_yield"] = (
        stages["certificate-consistent"] / run_certs if run_certs else 0.0, "ratio"
    )
    for op in QFIELD_OPS:
        m[f"qfield.{op}.calls"] = (counts[op], "count")
    m["cli.json_bytes"] = (sum(i.get("json_bytes", 0) for i in traced.info), "bytes")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


# -- main ----------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "coding", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        probes = [probe_time() for _ in range(SETUP_PROBES)]
        import_s, inputs_s, _units = timed_setup(args.workload, args.seed, False)
        probes += [probe_time() for _ in range(SETUP_PROBES)]
        print(import_s, inputs_s, statistics.median(probes))
        return 0

    os.makedirs(OUT, exist_ok=True)
    os.makedirs(os.path.dirname(os.path.join(ROOT, workloads.SVG_OUT)), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg_start": loadavg(),
              "calibration_s": calibrate()}
    reference = load_reference()
    import_s, inputs_s, units = timed_setup(args.workload, args.seed, bool(args.trace))
    record["setup_in_process_s"] = import_s + inputs_s
    # the harness's own objects (reference digests, schema, inputs) stay
    # out of the collector's scans, as they would in a user's process
    gc.collect()
    gc.freeze()
    record["environment"] = environment()

    if args.trace:
        # first calls pay one-off costs (lazy imports, caches); take them
        # out of the untraced pass that the overhead ratio divides by
        warmup = Ledger(reference)
        for op in units(0)[:WARMUP_OPS[args.workload]]:
            warmup.run(op)
        plain = Ledger(reference)
        run_units(units, plain, None)
        traced = Ledger(reference)
        with SpanRecorder() as recorder:
            run_units(units, traced, None)
        counted = Ledger(reference)
        with QfieldCounter() as counter:
            run_units(units, counted, None)
        recorder.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        overhead = sum(traced.raw()) / sum(plain.raw())
        metrics = layer_metrics(recorder, traced, counter.counts, overhead)
        ledgers = (warmup, plain, traced, counted)
        failures = [f for ledger in ledgers for f in ledger.failures]
        attempted = sum(ledger.attempted for ledger in ledgers)
        record["spans"] = len(recorder.spans)
    else:
        with SpeedProbe() as speed:
            ledger = Ledger(reference, speed)
            run_units(units, ledger, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups, setups_raw = fresh_setups(args.workload, args.seed)
        cold_ratios, colds, cold_problems = cold_starts(reference)
        failures = ledger.failures + cold_problems
        attempted = ledger.attempted + len(colds)
        latencies = ledger.scaled()
        p_tail, pct = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (work_done(args.workload, ledger) / sum(latencies), "1/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (p_tail, "s"),
            "cold_start_s": (statistics.median(cold_ratios) * BASELINE_START_S, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        raw = ledger.raw()
        record.update(
            samples=len(latencies),
            tail_percentile=pct,
            probe_samples=len(speed.samples),
            setup_samples=setups_raw,
            raw={
                "setup_s": statistics.median(setups_raw),
                "ops_per_s": work_done(args.workload, ledger) / sum(raw),
                "op_p50_s": statistics.median(raw),
                "op_tail_s": tail(raw)[0],
                "cold_start_s": statistics.median(colds),
            },
            latency_by_kind={
                kind: statistics.median(t for t, k in zip(latencies, ledger.kinds) if k == kind)
                for kind in sorted(set(ledger.kinds))
            },
        )

    record.update(
        attempted=attempted,
        failed=len(failures),
        fail_ratio=len(failures) / attempted,
        failures=failures[:50],
        loadavg_end=loadavg(),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
