"""Seeded inputs and the operations of the three workloads.

A workload is a list of operations.  Each operation has an id that names
its inputs, a ``run`` step (the only part that is timed) and an ``outcome``
step that turns the result into a short digest for the reference gate and
lists any violated theory check.  The program under test only ever sees
the generated inputs.

Inputs are drawn from fixed pools, so that every input the benchmark can
generate has a reference digest (see make_reference.py), and every seed
yields the same mix of input classes, so that run-to-run spread comes from
the machine and the program rather than from the draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

#: letters coded per parameter triple in the coding workload
CODING_LETTERS = 10_000
#: triples drawn per class in one coding draw
CODING_PER_CLASS = 3
#: search bound: 6 reaches no audit, 8 takes four times as long as 7
SEARCH_MAX_TOTAL = 7
#: orbit length of the gen3iet command
CLI_GEN_LETTERS = 10_000
CLI_ANALYZE_LETTERS = 3_000
CLI_RECOVER_LETTERS = 2_000
CLI_SVG_LETTERS = 150

#: coding classes: (name, right_closed, pool of (epsilon, l, c))
CODING_CLASSES = (
    (
        "sqrt5",
        False,
        (
            ("(-1+sqrt(5))/2", "(1+sqrt(5))/4", "0"),
            ("(3-sqrt(5))/2", "(7-sqrt(5))/6", "0"),
            ("(-1+sqrt(5))/4", "(3+sqrt(5))/6", "0"),
            ("sqrt(5)-2", "(3+sqrt(5))/6", "0"),
        ),
    ),
    (
        "sqrt2-negative-c",
        False,
        (
            ("1/2*sqrt(2)", "(6+sqrt(2))/8", "-1/10"),
            ("sqrt(2)-1", "(5+sqrt(2))/7", "-1/5"),
            ("2-sqrt(2)", "(4+sqrt(2))/6", "-1/3"),
            ("1/4*sqrt(2)", "(5+sqrt(2))/7", "-1/4"),
        ),
    ),
    (
        "sqrt3-negative-c",
        False,
        (
            ("sqrt(3)-1", "(3+sqrt(3))/5", "-1/9"),
            ("2-sqrt(3)", "(4+sqrt(3))/6", "-1/6"),
            ("1/2*sqrt(3)", "(7+sqrt(3))/9", "-2/7"),
            ("(-1+sqrt(3))/2", "(5+sqrt(3))/7", "-1/8"),
        ),
    ),
    (
        "rational",
        False,
        (
            ("2/5", "7/9", "-1/7"),
            ("3/7", "9/11", "-1/7"),
            ("4/9", "11/13", "-1/7"),
            ("5/11", "10/13", "-1/7"),
        ),
    ),
    (
        "sqrt7-right-closed",
        True,
        (
            ("sqrt(7)-2", "(4+sqrt(7))/7", "-1/5"),
            ("3-sqrt(7)", "(5+sqrt(7))/8", "-1/3"),
            ("(-1+sqrt(7))/2", "(9+sqrt(7))/12", "-1/6"),
            ("(-2+sqrt(7))/2", "(5+sqrt(7))/8", "-2/9"),
        ),
    ),
)

STURM_VALUES = (
    "(-1+sqrt(5))/2",
    "1/2*sqrt(2)",
    "(2-sqrt(2))/4",
    "1/2",
    "sqrt(3)-1",
    "2-sqrt(3)",
    "(3-sqrt(5))/2",
    "(1+sqrt(5))/2",
    "3/7",
    "sqrt(7)-2",
    "(-3+sqrt(13))/2",
    "(5-sqrt(13))/6",
)

#: the gen3iet orbit: the golden-ratio exchange
GEN3IET_TRIPLE = ("(-1+sqrt(5))/2", "(1+sqrt(5))/4", "0")

#: audits that stop early, one per exit: no expanding fixed point, a cubic
#: spectrum refuted by the certificate, a rational spectrum refuted by it,
#: a letter missing from the fixed point
AUDIT_EXITS = ("A>B;B>C;C>A", "A>AB;B>AC;C>A", "A>AC;B>BC;C>AB", "A>AAC;B>B;C>CA")
#: audits that run every stage: two pass, two stop at complexity below 2n+1
AUDIT_FULL = ("A>AB;B>AACA;C>A", "A>AC;B>ABB;C>AB", "A>ABA;B>C;C>BAC", "A>ACA;B>ACA;C>B")
#: fixed-point prefix of the full audits: at the default 10 000 one audit
#: takes 0.7-1 s, too few per run to set the tail percentile steadily
AUDIT_PREFIX = "4000"

#: written by the svg command, inside the checkout
SVG_OUT = "perfbench/out/figure.svg"


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:32]


def triples():
    """Every (class, right_closed, epsilon, l, c) the coding draw can pick."""
    for name, right_closed, pool in CODING_CLASSES:
        for eps, ell, c in pool:
            yield name, right_closed, eps, ell, c


class Op:
    """One timed call: ``run`` is timed, ``outcome`` is not."""

    __slots__ = ("op_id", "kind", "run", "outcome", "info")

    def __init__(self, op_id, kind, run, outcome):
        self.op_id = op_id
        self.kind = kind
        self.run = run
        self.outcome = outcome
        # numbers the outcome step reports for the per-layer metrics
        self.info: dict = {}


# -- coding --------------------------------------------------------------------


def coding_draw(seed: int) -> list[tuple]:
    """CODING_PER_CLASS triples of every class, classes interleaved."""
    rng = random.Random(seed)
    picks = [
        [(name, rc, *t) for t in rng.sample(pool, CODING_PER_CLASS)]
        for name, rc, pool in CODING_CLASSES
    ]
    return [group[k] for k in range(CODING_PER_CLASS) for group in picks]


def coding_ops(triple) -> list[Op]:
    """The seven operations on one triple; later ones reuse the coded word.

    Library functions are looked up on their modules at call time, so the
    traced run sees the benchmark's own calls too.
    """
    from iet3 import audit, dynamics, morphisms, words
    from iet3.qfield import parse_quadratic

    name, right_closed, eps, ell, c = triple
    key = f"coding:{name}:{eps}|{ell}|{c}"
    state: dict = {}

    def params():
        return dynamics.IetParameters(
            parse_quadratic(eps), parse_quadratic(ell), parse_quadratic(c)
        )

    def code():
        p = params()
        state["params"] = p
        state["u"] = dynamics.ThreeIet(p).code_orbit(
            CODING_LETTERS, right_closed=right_closed
        ).word
        return state["u"]

    def code_outcome(u):
        problems = []
        p = state["params"]
        state["idoc"] = dynamics.idoc(p)
        return f"{digest(u.letters)}|idoc={state['idoc']}", problems

    def rotation(which):
        image_map = morphisms.SIGMA if which == "01" else morphisms.SIGMA_PRIME
        make = (
            dynamics.Rotation.plain_for
            if which == "01"
            else dynamics.Rotation.shifted_for
        )

        def run():
            image = image_map(state["u"])
            state[f"image_{which}"] = image
            return image, make(state["params"]).code_orbit(len(image)).word

        def outcome(result):
            image, coded = result
            problems = []
            if coded != image:
                problems.append(f"binary image b_as_{which} differs from the rotation coding")
            return digest(coded.letters), problems

        return run, outcome

    def complexity():
        return words.complexity(state["u"], 30)

    def complexity_outcome(profile):
        problems = []
        if state["idoc"]:
            top = min(30, profile.reliable_up_to)
            bad = [n for n in range(1, top + 1) if profile.count(n) != 2 * n + 1]
            if bad:
                problems.append(f"C(n) != 2n+1 at n={bad[0]} although idoc holds")
        return f"{list(profile.counts)}|{profile.reliable_up_to}", problems

    def balance():
        return [words.balance(state[f"image_{w}"], 300) for w in ("01", "10")]

    def balance_outcome(reports):
        problems = [
            f"image imbalance {r.max_imbalance}, expected 1"
            for r in reports
            if r.max_imbalance != 1
        ]
        tables = json.dumps([sorted((a, list(v)) for a, v in r.table.items()) for r in reports])
        return digest(tables), problems

    def certificate():
        return audit.three_iet_certificate(state["u"])

    def certificate_outcome(cert):
        problems = []
        if state["idoc"] and not cert.is_consistent:
            problems.append(f"certificate {cert.verdict} on an idoc coding")
        return f"{cert.verdict}|{json.dumps(cert.witness, sort_keys=True)}", problems

    def recover():
        return audit.recover_parameters(state["u"], state["params"].epsilon)

    def recover_outcome(rec):
        state.clear()
        return (
            f"c_hat={rec.c_hat}|l_hat={rec.l_hat}|{rec.convention}|"
            f"{rec.match_fraction}|{rec.first_mismatch}",
            [],
        )

    run01, out01 = rotation("01")
    run10, out10 = rotation("10")
    return [
        Op(f"{key}:code", "code", code, code_outcome),
        Op(f"{key}:rotation_01", "rotation", run01, out01),
        Op(f"{key}:rotation_10", "rotation", run10, out10),
        Op(f"{key}:complexity", "complexity", complexity, complexity_outcome),
        Op(f"{key}:balance", "balance", balance, balance_outcome),
        Op(f"{key}:certificate", "certificate", certificate, certificate_outcome),
        Op(f"{key}:recover", "recover", recover, recover_outcome),
    ]


# -- search --------------------------------------------------------------------


def search_ops() -> list[Op]:
    from iet3 import audit

    def run():
        return audit.search_substitutions(max_total=SEARCH_MAX_TOTAL)

    def outcome(report):
        problems = []
        if report.counts["audit-fail"]:
            problems.append(f"audit-fail = {report.counts['audit-fail']}")
        stages = sum(v for k, v in report.counts.items() if k != "total")
        # every candidate leaves through exactly one stage, and every
        # consistent one is audited once
        if stages - report.counts["certificate-consistent"] != report.counts["total"]:
            problems.append("stage counts do not add up to the candidates examined")
        audited = [[s.text, s.overall, s.reason, s.epsilon, s.is_sturm] for s in report.audited]
        op.info["stages"] = dict(report.counts)
        return digest(json.dumps([report.counts, audited])), problems

    op = Op(f"search:max_total={SEARCH_MAX_TOTAL}", "search", run, outcome)
    return [op]


# -- cli -----------------------------------------------------------------------


def _param_args(eps, ell, c) -> list[str]:
    # a negative value must be attached with "=": argparse reads "-1/10" as a flag
    return ["--epsilon", eps, "--l", ell, f"--c={c}"]


class CliInputs:
    """Argument vectors for the CLI slots, built from a set of triples.

    The words the word-reading commands take are coded here, in setup,
    from the irrational left-closed triples.
    """

    def __init__(self, chosen):
        from iet3 import dynamics
        from iet3.qfield import parse_quadratic

        self.triples = list(chosen)

        def word(triple, n):
            _name, rc, eps, ell, c = triple
            params = dynamics.IetParameters(
                parse_quadratic(eps), parse_quadratic(ell), parse_quadratic(c)
            )
            return dynamics.ThreeIet(params).code_orbit(n, right_closed=rc).word.letters

        self.word_triples = [t for t in self.triples if t[0].startswith("sqrt") and not t[1]]
        self.analyze_words = [word(t, CLI_ANALYZE_LETTERS) for t in self.word_triples]
        self.recover_words = [word(t, CLI_RECOVER_LETTERS) for t in self.word_triples]
        self.svg_words = [word(t, CLI_SVG_LETTERS) for t in self.word_triples]

    def pools(self) -> dict[str, list[list[str]]]:
        """Every argument vector of each round slot, by slot name."""
        params = [_param_args(*t[2:]) for t in self.triples]
        # idoc needs an irrational epsilon: on a rational one the command
        # stops with exit 1 (in_z_epsilon rejects it)
        irrational = [_param_args(*t[2:]) for t in self.triples if t[0] != "rational"]
        # one fixed orbit: gen3iet's cost varies by half between triples, and
        # as the slowest frequent call it sets the tail percentile
        gen = [["gen3iet", *_param_args(*GEN3IET_TRIPLE), "--n", str(CLI_GEN_LETTERS)]]
        return {
            "sturm": [["sturm", "--value", v] for v in STURM_VALUES],
            "idoc": [["idoc", *p] for p in irrational],
            "induce": [["induce", *p] for p in params],
            "gen3iet": gen,
            "analyze": [["analyze", "--word", w] for w in self.analyze_words],
            "recover": [
                ["recover", "--word", w, "--epsilon", t[2]]
                for w, t in zip(self.recover_words, self.word_triples)
            ],
            "svg": [["svg", "--word", w, "--out", SVG_OUT] for w in self.svg_words],
            "audit": [["audit", "--morphism", m] for m in AUDIT_EXITS],
            "full_audit": [
                ["audit", "--morphism", m, "--seed-prefix-len", AUDIT_PREFIX]
                for m in AUDIT_FULL
            ],
        }


#: the slots of one CLI round.  sturm and idoc (about 2 ms each) make up
#: 13 of the 20 calls, so the median lands inside that one cluster, at its
#: 77th percentile, rather than on a border between two commands; the full
#: audit is the slowest call, so the tail percentile lands inside the
#: full audits
CLI_ROUND = (
    *["sturm"] * 12, "idoc", "induce", "svg",
    "gen3iet", "analyze", "recover", "audit", "full_audit",
)
#: rounds in one CLI unit: every audit four times, so that a run, which
#: does whole units, always has the same mix and sixteen full audits
CLI_UNIT_ROUNDS = 16


def cli_rounds(seed: int, count: int) -> list[list[list[str]]]:
    """count rounds of CLI calls.

    The seed picks one triple of each coding class and the order in which
    every slot cycles through its pool.  Cycling, rather than drawing each
    call, gives every unit of CLI_UNIT_ROUNDS rounds the same mix of
    commands and inputs.
    """
    rng = random.Random(seed)
    chosen = [(name, rc, *rng.choice(pool)) for name, rc, pool in CODING_CLASSES]
    pools = CliInputs(chosen).pools()
    order = {slot: rng.sample(pool, len(pool)) for slot, pool in pools.items()}
    rounds = []
    for k in range(count):
        seen: dict[str, int] = {}
        calls = []
        for slot in CLI_ROUND:
            j = k * CLI_ROUND.count(slot) + seen.get(slot, 0)
            seen[slot] = seen.get(slot, 0) + 1
            calls.append(order[slot][j % len(order[slot])])
        rounds.append(calls)
    return rounds


def cli_op_id(argv: list[str]) -> str:
    return f"cli:{argv[0]}:{digest(json.dumps(argv))[:16]}"


def cli_op(argv: list[str], schema_check) -> Op:
    """One in-process ``iet3.cli.main`` call with --json."""
    import iet3.cli

    full = [*argv, "--json"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = iet3.cli.main(full)
        return code, out.getvalue()

    def outcome(res):
        code, text = res
        problems = []
        extra = ""
        if argv[0] == "svg":
            with open(SVG_OUT, "rb") as handle:
                extra = "|svg=" + digest(handle.read())
        try:
            payload = json.loads(text)
        except ValueError:
            problems.append("output is not JSON")
        else:
            problems.extend(schema_check(text, payload))
            if argv[0] == "audit" and payload.get("overall") == "fail":
                problems.append("audit-fail on a verified instance")
        op.info["json_bytes"] = len(text.encode("utf-8"))
        return f"exit={code}|{digest(text)}{extra}", problems

    op = Op(cli_op_id(argv), argv[0], run, outcome)
    return op


class SchemaCheck:
    """Validates each distinct payload once against the package schema.

    The validator is built on first use, outside setup and the timed calls.
    """

    def __init__(self, root: str):
        self._path = os.path.join(root, "src", "iet3", "schema.json")
        self._validator = None
        self._seen: dict[str, list[str]] = {}

    def __call__(self, text: str, payload) -> list[str]:
        if self._validator is None:
            import jsonschema

            with open(self._path, encoding="utf-8") as handle:
                self._validator = jsonschema.Draft7Validator(json.load(handle))
        key = digest(text)
        if key not in self._seen:
            self._seen[key] = [
                f"schema: {error.message[:120]}"
                for error in self._validator.iter_errors(payload)
            ][:1]
        return self._seen[key]
