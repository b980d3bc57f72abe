"""Command-line front end: generation, analysis, auditing, and SVG export.

Every subcommand prints human-readable text by default and a single JSON
document with --json.  Exact numbers appear in JSON as objects carrying
the canonical expression string plus a convenience float.  A report from
the library (RecoveredParameters, SturmVerdict, CertificateReport,
AuditReport and the SpectralClass, Expanding and AuditSummary values it
or the search carries) is written by ``_json``: its keys are the fields,
in declaration order, except that AuditReport.l_exact is written as "l"
and AuditSummary.text as "morphism".  Every payload is rendered by
``json.dumps(indent=2)``, except the orbit points of gen3iet and gensturm,
the last key of their payloads: they are written in chunks of points,
each by one %-format of the text forms of ``qfield.text_forms`` over
array passes on the integer numerators of the lattice frame, with no
exact number and no dict built per point, and the chunks are spliced in
after the rest.  The document is byte for byte the one
``json.dumps(indent=2)`` writes for the same values.  A row's string is
the one ``str`` gives, and its float equals ``float`` of the point.  Its
quotients a/n and b/n are correctly rounded, their sum is not, and it can
lose a small value (``sqrt_int(2) - Fraction(1855077841, 1311738121)``
reads 0.0); no verdict reads it.  The option parser is built once per
process and reused by every ``main`` call.  Exit codes: 0 for success
(including not-applicable audit outcomes), 1 for usage or input errors,
for running out of memory and for a reader that closed the output pipe
early, 2 when a verified instance violates a necessary condition, which
indicates a bug in this artifact rather than new mathematics.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import chain
from xml.etree import ElementTree

import numpy as np

from . import _kernels
from .audit import (
    is_sturm,
    recover_parameters,
    search_substitutions,
    substitution_audit,
    three_iet_certificate,
)
from .dynamics import (
    IetParameters,
    Interval,
    ReturnTimeCapError,
    Rotation,
    ThreeIet,
    first_return,
    idoc,
    in_z_epsilon,
)
from .morphisms import Morphism
from .qfield import (
    QuadraticNumber,
    as_quadratic,
    parse_quadratic,
    quadratic_float,
    text_form,
    text_forms,
)
from .stepline import stepped_line_svg
from .words import TERNARY, LatticePoints, Word, balance, complexity

__all__ = ["main"]

#: longest orbit gen3iet and gensturm code; each point is printed in full.
#: Also the longest fixed-point prefix audit and search generate.
MAX_ORBIT_LENGTH = 10**6
#: largest --max-total-length and --max-image-length of search: its
#: candidate pool holds the 3^k ternary strings of every image length k,
#: about 8 * 10^5 strings up to k = 12
MAX_SEARCH_LENGTH = 12
#: largest induce --cap, the return time at which first_return gives up
MAX_RETURN_TIME = 10**6
#: largest balance work analyze takes on, its window times the word's
#: length.  A balanced binary word takes words.balance's period path, a
#: few passes over the word; any other word takes its gap path, at most
#: window + 1 passes over the positions of the letters it keeps rows for,
#: N in all, so the limit stays.  The default window of 300 fits at 10^6
#: letters
MAX_BALANCE_WORK = 10**9
#: orbit points ``_orbit_rows`` writes with one %-format; a fixed chunk
#: keeps its arrays and its argument tuple small at any orbit length.  It
#: writes as fast as 2048 points do, and leaves less malloc heap free but
#: held after a call, which sets the peak RSS of many calls in one process
ORBIT_CHUNK = 1024
#: integers below this in magnitude convert to float64 exactly
_EXACT_FLOAT = 2**53


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _num(x) -> dict:
    q = as_quadratic(x)
    return {"exact": str(q), "approx": float(q)}


def _orbit_rows(points: LatticePoints) -> list[str]:
    """The rows of the "orbit" array of ``points`` as ``json.dumps(indent=2)``
    writes them under a top-level key, each ``_num`` of one point, in
    chunks of ``ORBIT_CHUNK`` rows joined by ",\n".

    Point i is (a + b*sqrt(d))/den with the integers a, b of
    ``points.keys()``; no ``QuadraticNumber`` and no dict is built.  Each
    chunk is reduced by gcd(a, b, den) in one array pass, array
    comparisons give each point its form in ``qfield.text_forms(d)``, and
    one %-format of row templates that wrap those forms writes the chunk.
    An exact text is ASCII digits, signs, "/", "*", brackets and "sqrt",
    so plain quotes make it a JSON string.  ``approx`` is ``float`` of the
    point, ``qfield.quadratic_float(a, b, den, d)``: where a, b and den
    are below 2**53 in magnitude they convert to float64 exactly, and
    a/den + b/den*sqrt(d) in float64 is that float, operation for
    operation; every other point, past 2**53 or in an object array, takes
    ``quadratic_float`` itself.  Floats are written as the standard
    library's encoder writes them.
    """
    frame = points.frame
    den, d = frame.denominator, frame.radicand
    root = math.sqrt(d)
    forms = [
        f'    {{\n      "exact": "{form}",\n      "approx": %s\n    }}'
        for form in text_forms(d)
    ]
    a_column, b_column = points.keys()
    if _kernels.int_dtype(den) is object:
        a_column, b_column = a_column.astype(object), b_column.astype(object)
    float64_sums = a_column.dtype != object and den < _EXACT_FLOAT
    chunks = []
    for start in range(0, len(a_column), ORBIT_CHUNK):
        a = a_column[start : start + ORBIT_CHUNK]
        b = b_column[start : start + ORBIT_CHUNK]
        g = np.gcd(np.gcd(a, b), den)
        a_reduced, b_reduced, q_reduced = a // g, b // g, den // g
        kinds = text_form(a_reduced, b_reduced, q_reduced)
        if float64_sums:
            texts = list(map(float.__repr__, (a / den + b / den * root).tolist()))
            small = (
                (a > -_EXACT_FLOAT) & (a < _EXACT_FLOAT)
                & (b > -_EXACT_FLOAT) & (b < _EXACT_FLOAT)
            )
            others = np.flatnonzero(~small).tolist()
        else:
            texts = [None] * len(a)
            others = range(len(a))
        for i in others:
            x = quadratic_float(int(a[i]), int(b[i]), den, d)
            texts[i] = float.__repr__(x) if math.isfinite(x) else json.dumps(x)
        args = zip(a_reduced.tolist(), b_reduced.tolist(), q_reduced.tolist(), texts)
        template = ",\n".join(map(forms.__getitem__, kinds.tolist()))
        chunks.append(template % tuple(chain.from_iterable(args)))
    return chunks


def _render(payload: dict) -> str:
    """``json.dumps(payload, indent=2)``; orbit points a handler left under
    "orbit" are written last, by ``_orbit_rows``, and its chunks are
    spliced into the rest of the document by one join."""
    if "orbit" not in payload:
        return json.dumps(payload, indent=2)
    head = dict(payload)
    chunks = _orbit_rows(head.pop("orbit"))
    text = json.dumps({**head, "orbit": []}, indent=2)
    if not chunks:
        return text
    # the head, up to the "[]" of the empty array, opens the first chunk,
    # ",\n" goes between two chunks and the closing brackets end the last
    parts = [text[: -len("[]\n}")] + "[\n"]
    for chunk in chunks:
        parts += (chunk, ",\n")
    parts[-1] = "\n  ]\n}"
    return "".join(parts)


def _bounded_int(what: str, limit: int, unit: str, least: int | None = None):
    """argparse type: an int from ``least`` (when given) up to ``limit``,
    else a usage error."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n > limit:
            raise argparse.ArgumentTypeError(
                f"{what} {n} exceeds the limit of {limit}{unit}"
            )
        if least is not None and n < least:
            raise argparse.ArgumentTypeError(f"{what} {n} is below {least}")
        return n

    return parse


_orbit_length = _bounded_int("orbit length", MAX_ORBIT_LENGTH, " points", least=0)
_prefix_length = _bounded_int("prefix length", MAX_ORBIT_LENGTH, " letters", least=0)
# each of the three images has a letter at least
_total_length = _bounded_int("total image length", MAX_SEARCH_LENGTH, "", least=3)
_image_length = _bounded_int("image length", MAX_SEARCH_LENGTH, "", least=1)
_return_time = _bounded_int("return-time cap", MAX_RETURN_TIME, " steps", least=1)
_factor_length = _bounded_int("factor length", MAX_ORBIT_LENGTH, " letters", least=1)


def _read_word_argument(args, allow_empty: bool = False) -> Word:
    """The word of --word or --file, of at most ``MAX_ORBIT_LENGTH`` letters.

    A file is read up to one character past the limit, and the newlines
    that end it are not letters.  An empty or absent word is an error
    unless ``allow_empty``.
    """
    if args.word is not None:
        text = args.word
    elif args.file is not None:
        with open(args.file, "r", encoding="ascii") as handle:
            text = handle.read(MAX_ORBIT_LENGTH + 1)
            if len(text) > MAX_ORBIT_LENGTH >= len(text.rstrip("\n")):
                # newlines at the limit: the word ends there unless more follows
                while (more := handle.read(2**16)) and not more.strip("\n"):
                    pass
                text += more
        text = text.rstrip("\n")
    else:
        text = ""
    if len(text) > MAX_ORBIT_LENGTH:
        # a file is read only so far
        length = len(text) if args.word is not None else f"at least {len(text)}"
        raise ValueError(
            f"word length {length} exceeds the limit of {MAX_ORBIT_LENGTH} letters"
        )
    if not text and not allow_empty:
        raise ValueError("empty input word")
    return Word(text)


def _parameters(args) -> IetParameters:
    return IetParameters(
        parse_quadratic(args.epsilon),
        parse_quadratic(args.l),
        parse_quadratic(args.c),
    )


# -- shared serializers -----------------------------------------------------------


def _params_json(params: IetParameters) -> dict:
    return {
        "epsilon": _num(params.epsilon),
        "l": _num(params.length_l),
        "c": _num(params.offset_c),
    }


def _json(value):
    """The JSON form of a report value.

    A dataclass becomes an object, field by field in declaration order,
    each under its ``metadata["json"]`` name when it has one; a named tuple
    becomes an object too.  Exact numbers go through ``_num`` and a
    morphism becomes its text.
    """
    if isinstance(value, (QuadraticNumber, Fraction)):
        return _num(value)
    if isinstance(value, Morphism):
        return value.to_text()
    if is_dataclass(value):
        return {
            f.metadata.get("json", f.name): _json(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _json(item) for name, item in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    return value


# -- subcommand handlers ----------------------------------------------------------


def _cmd_gen3iet(args):
    params = _parameters(args)
    coding = ThreeIet(params).code_orbit(args.n, right_closed=args.right_closed)
    payload = {
        "command": "gen3iet",
        "parameters": _params_json(params),
        "n": args.n,
        "word": coding.word.letters,
    }
    if args.json:
        payload["orbit"] = coding.points
    return payload, coding.word.letters, 0


def _cmd_gensturm(args):
    eps = parse_quadratic(args.epsilon)
    lo = parse_quadratic(args.lo)
    if not 0 < eps < 1:
        raise ValueError(f"constraint violated: require 0 < epsilon < 1, got {eps}")
    rotation = Rotation(lo, lo + eps, lo + 1)
    coding = rotation.code_orbit(args.n)
    payload = {
        "command": "gensturm",
        "epsilon": _num(eps),
        "lo": _num(lo),
        "n": args.n,
        "word": coding.word.letters,
    }
    if args.json:
        payload["orbit"] = coding.points
    return payload, coding.word.letters, 0


def _cmd_induce(args):
    params = _parameters(args)
    rotation = Rotation.plain_for(params)
    whole = Interval(params.offset_c, params.offset_c + params.length_l)
    if args.e_lo is not None or args.e_hi is not None:
        if args.e_lo is None or args.e_hi is None:
            raise ValueError("--e-lo and --e-hi must be given together")
        target = Interval(parse_quadratic(args.e_lo), parse_quadratic(args.e_hi))
    else:
        target = whole
    induced = first_return(rotation, target, cap=args.cap)
    matches = None
    if target.lo == whole.lo and target.hi == whole.hi:
        matches = induced.matches_exchange(ThreeIet(params))
    payload = {
        "command": "induce",
        "parameters": _params_json(params),
        "domain": {"lo": _num(target.lo), "hi": _num(target.hi)},
        "pieces": [
            {
                "lo": _num(piece.interval.lo),
                "hi": _num(piece.interval.hi),
                "return_time": piece.return_time,
                "translation": _num(piece.translation),
            }
            for piece in induced.pieces
        ],
        "matches_exchange": matches,
    }
    lines = [
        f"first return to [{target.lo}, {target.hi}) in {len(induced.pieces)} pieces"
    ]
    for piece in induced.pieces:
        lines.append(
            f"  [{piece.interval.lo}, {piece.interval.hi})  "
            f"return time {piece.return_time}  translation {piece.translation}"
        )
    if matches is not None:
        lines.append(f"matches the three-interval exchange: {matches}")
    return payload, "\n".join(lines), 0


def _cmd_analyze(args):
    word = _read_word_argument(args)
    alphabet = "ternary" if word.is_over(TERNARY) else "binary"
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"complexity", "balance", "certificate"}
    unknown = set(checks) - known
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if not checks:
        checks = ["complexity", "balance"]
        if alphabet == "ternary":
            checks.append("certificate")
    if "balance" in checks:
        work = min(args.balance_window, len(word)) * len(word)
        if work > MAX_BALANCE_WORK:
            raise ValueError(
                f"--balance-window {args.balance_window} on {len(word)} letters needs "
                f"{work} steps, above the limit of {MAX_BALANCE_WORK}; lower "
                "--balance-window"
            )
    payload = {
        "command": "analyze",
        "word_length": len(word),
        "alphabet": alphabet,
        "complexity": None,
        "balance": None,
        "certificate": None,
    }
    lines = [f"{alphabet} word of {len(word)} letters"]
    if "complexity" in checks:
        profile = complexity(word, n_max=min(args.n_max, len(word)))
        payload["complexity"] = {
            "counts": list(profile.counts),
            "reliable_up_to": profile.reliable_up_to,
        }
        lines.append(
            "complexity C(1..{top}): {vals} (reliable up to n={rel})".format(
                top=profile.n_max,
                vals=" ".join(str(profile.count(n)) for n in range(1, profile.n_max + 1)),
                rel=profile.reliable_up_to,
            )
        )
    if "balance" in checks:
        report = balance(word, n_max=args.balance_window)
        payload["balance"] = {
            "window": report.window,
            "max_imbalance": report.max_imbalance,
            "table": {a: list(v) for a, v in sorted(report.table.items())},
        }
        lines.append(
            f"balance: max imbalance {report.max_imbalance} "
            f"over factor lengths 1..{report.window}"
        )
    if "certificate" in checks:
        if alphabet != "ternary":
            raise ValueError("certificate requires a ternary word")
        cert = three_iet_certificate(word, min_length=min(1000, len(word)))
        payload["certificate"] = _json(cert)
        lines.append(f"certificate: {cert.verdict}")
        if cert.witness:
            lines.append(f"  witness: {cert.witness}")
    return payload, "\n".join(lines), 0


def _cmd_idoc(args):
    params = _parameters(args)
    eps_irrational = params.epsilon.radicand is not None
    l_in_module = in_z_epsilon(params.length_l, params.epsilon)
    verdict = idoc(params)
    payload = {
        "command": "idoc",
        "parameters": _params_json(params),
        "epsilon_irrational": eps_irrational,
        "l_in_z_epsilon": l_in_module,
        "idoc": verdict,
    }
    text = (
        f"idoc: {str(verdict).lower()} "
        f"(epsilon irrational: {str(eps_irrational).lower()}, "
        f"l in Z[epsilon]: {str(l_in_module).lower()})"
    )
    return payload, text, 0


def _cmd_sturm(args):
    verdict = is_sturm(parse_quadratic(args.value))
    payload = {"command": "sturm", **_json(verdict)}
    text = (
        f"sturm: {str(verdict.is_sturm).lower()} "
        f"(quadratic irrational: {str(verdict.is_quadratic_irrational).lower()}, "
        f"in (0,1): {str(verdict.in_unit_interval).lower()}, "
        f"conjugate outside (0,1): "
        f"{str(verdict.conjugate_outside_unit_interval).lower()})"
    )
    return payload, text, 0


def _cmd_recover(args):
    word = _read_word_argument(args)
    eps = parse_quadratic(args.epsilon)
    rec = recover_parameters(word, eps)
    payload = {"command": "recover", **_json(rec)}
    text = (
        f"c_hat = {rec.c_hat}\n"
        f"l_hat = {rec.l_hat}\n"
        f"convention = {rec.convention}\n"
        f"match fraction = {rec.match_fraction} "
        f"(first mismatch: {rec.first_mismatch})\n"
        f"attained infimum = {str(rec.attained_infimum).lower()}"
    )
    return payload, text, 0


def _cmd_audit(args):
    morphism = Morphism.from_text(args.morphism)
    report = substitution_audit(morphism, prefix_len=args.seed_prefix_len)
    payload = {"command": "audit", **_json(report)}
    lines = [f"substitution {morphism.to_text()}: {report.overall}"]
    if report.reason:
        lines.append(f"  reason: {report.reason}")
    if report.note:
        lines.append(f"  note: {report.note}")
    if report.epsilon is not None:
        lines.append(f"  epsilon = {report.epsilon}")
        lines.append(f"  l = {report.l_exact}")
    if report.sturm is not None:
        lines.append(f"  sturm: {str(report.sturm.is_sturm).lower()}")
    if report.spectral is not None:
        spot = report.spectral
        parts = [f"  spectrum: {spot.classification}, det = {spot.determinant}"]
        if spot.dominant is not None:
            parts.append(f"dominant eigenvalue = {spot.dominant}")
        lines.append(", ".join(parts))
    code = 0
    if report.overall == "fail":
        code = 2
        print(
            "necessary-condition violation on a verified instance; "
            "this indicates a bug in this artifact",
            file=sys.stderr,
        )
    return payload, "\n".join(lines), code


def _cmd_search(args):
    report = search_substitutions(
        max_total=args.max_total_length,
        max_image=args.max_image_length,
        audit_prefix=args.seed_prefix_len,
    )
    payload = {
        "command": "search",
        **_json(report),
        "passes": [s.text for s in report.passes],
    }
    lines = [
        f"searched {report.counts['total']} substitutions "
        f"(total image length <= {report.max_total})"
    ]
    for key, value in report.counts.items():
        if key != "total":
            lines.append(f"  {key}: {value}")
    for s in report.passes:
        lines.append(f"  pass: {s.text}  epsilon = {s.epsilon}")
    code = 0
    if report.failures:
        code = 2
        print(
            f"{len(report.failures)} necessary-condition violation(s) on verified "
            "instances; this indicates a bug in this artifact",
            file=sys.stderr,
        )
    return payload, "\n".join(lines), code


def _cmd_svg(args):
    # an empty word is legal here: the figure degrades to bare axes
    word = _read_word_argument(args, allow_empty=True)
    if args.out is None:
        raise ValueError("--out is required for svg output")
    document = stepped_line_svg(word, unit=args.unit)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    root = ElementTree.fromstring(document)
    payload = {
        "command": "svg",
        "path": args.out,
        "word_length": len(word),
        "segments": len(word),
        "unit": args.unit,
        "width": float(root.get("width")),
        "height": float(root.get("height")),
    }
    return payload, f"wrote {args.out} ({len(word)} segments)", 0


# -- parser -----------------------------------------------------------------------


def _add_word_source(sub, required: bool = True):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--word", help="word given inline")
    group.add_argument("--file", help="file holding one word (ASCII)")


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: ``parse_args``
    makes a fresh namespace on each call and leaves the parser as it was."""
    parser = _Parser(prog="iet3", description=__doc__.splitlines()[0])

    def add_common(target, json_default, prefix_default, out_default):
        target.add_argument(
            "--json",
            action="store_true",
            default=json_default,
            help="emit one JSON document",
        )
        target.add_argument(
            "--seed-prefix-len",
            type=_prefix_length,
            default=prefix_default,
            metavar="N",
            help="prefix length for generated fixed points (audit, search)",
        )
        target.add_argument(
            "--out",
            default=out_default,
            help="write the payload (or SVG) to this file",
        )

    # the same flags are accepted before and after the subcommand; the
    # per-subcommand copies default to SUPPRESS so, when absent, they do
    # not clobber values parsed at the top level
    add_common(parser, False, 10_000, None)
    common = argparse.ArgumentParser(add_help=False)
    add_common(common, argparse.SUPPRESS, argparse.SUPPRESS, argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = commands.add_parser(
        "gen3iet", parents=[common], help="code the orbit of 0 under the exchange"
    )
    gen.add_argument("--epsilon", required=True)
    gen.add_argument("--l", required=True)
    gen.add_argument("--c", default="0")
    gen.add_argument("--n", type=_orbit_length, required=True)
    gen.add_argument(
        "--right-closed", action="store_true", help="use right-closed intervals"
    )
    gen.set_defaults(handler=_cmd_gen3iet)

    gsturm = commands.add_parser(
        "gensturm", parents=[common], help="code the orbit of 0 under a rotation")
    gsturm.add_argument("--epsilon", required=True)
    gsturm.add_argument("--lo", default="0")
    gsturm.add_argument("--n", type=_orbit_length, required=True)
    gsturm.set_defaults(handler=_cmd_gensturm)

    induce = commands.add_parser(
        "induce", parents=[common], help="first-return map of the rotation")
    induce.add_argument("--epsilon", required=True)
    induce.add_argument("--l", required=True)
    induce.add_argument("--c", default="0")
    induce.add_argument("--e-lo", help="left endpoint of the return interval")
    induce.add_argument("--e-hi", help="right endpoint of the return interval")
    induce.add_argument("--cap", type=_return_time, default=MAX_RETURN_TIME)
    induce.set_defaults(handler=_cmd_induce)

    analyze = commands.add_parser(
        "analyze", parents=[common], help="complexity, balance, certificate")
    _add_word_source(analyze)
    analyze.add_argument(
        "--checks", default="", help="comma list: complexity,balance,certificate"
    )
    analyze.add_argument("--n-max", type=_factor_length, default=30)
    analyze.add_argument("--balance-window", type=_factor_length, default=300)
    analyze.set_defaults(handler=_cmd_analyze)

    idoc_cmd = commands.add_parser(
        "idoc", parents=[common], help="infinite distinct orbit condition")
    idoc_cmd.add_argument("--epsilon", required=True)
    idoc_cmd.add_argument("--l", required=True)
    idoc_cmd.add_argument("--c", default="0")
    idoc_cmd.set_defaults(handler=_cmd_idoc)

    sturm = commands.add_parser(
        "sturm", parents=[common], help="Sturm-number predicate")
    sturm.add_argument("--value", required=True)
    sturm.set_defaults(handler=_cmd_sturm)

    recover = commands.add_parser(
        "recover", parents=[common], help="recover (c, l) from a coding")
    _add_word_source(recover)
    recover.add_argument("--epsilon", required=True)
    recover.set_defaults(handler=_cmd_recover)

    audit = commands.add_parser(
        "audit", parents=[common], help="substitution invariance audit")
    audit.add_argument("--morphism", required=True, help='e.g. "A>AB;B>AC;C>A"')
    audit.set_defaults(handler=_cmd_audit)

    search = commands.add_parser(
        "search", parents=[common], help="exhaustive small-substitution audit")
    search.add_argument("--max-total-length", type=_total_length, default=8)
    search.add_argument("--max-image-length", type=_image_length, default=None)
    search.set_defaults(handler=_cmd_search)

    svg = commands.add_parser(
        "svg", parents=[common], help="stepped-line figure")
    _add_word_source(svg, required=False)
    svg.add_argument("--unit", type=float, default=20)
    svg.set_defaults(handler=_cmd_svg)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, text, code = args.handler(args)
        rendered = _render(payload) if args.json else text
        if args.out and args.command != "svg":
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
    except (
        ValueError, ZeroDivisionError, OverflowError, OSError, ReturnTimeCapError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    try:
        if args.json or rendered:
            print(rendered)
            # a reader that left raises here, not in the flush at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit writes what is still buffered to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
