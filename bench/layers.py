"""Time iet3 layer by layer and end to end, best of N, into one JSON file.

    python3 bench/layers.py --out one.json
    python3 bench/layers.py --src ../parent/src --out before.json
    python3 bench/layers.py --base ../parent/src --new src \
        --out bench/BENCH_<label>.json

Each row is one call timed with ``time.perf_counter``; a row of a short
call times a batch of ``number`` calls and reports seconds per call.  The
best of ``--repeat`` samples is kept, since a shared host only ever adds
time.

With ``--base`` and ``--new`` the script compares two checkouts.  It runs
itself three times on each side, each run a fresh process, in the order
base, new, new, base, base, new, so the host's drift lands on both.  It
writes ``{base, new, run_order}``: each side's record with every row the
best over its runs, and the order the runs went in.  The printout gives
each row's ratio and that ratio over the ``control`` row's.  Rows:

- ``control``: a fixed standard-library loop (``Fraction`` and int
  arithmetic, as in perfbench's speed probe) that no change to iet3 can
  move, so its ratio between two sides is the host's drift between them;
- the layers, on the coding of the golden-ratio exchange to ``--letters``
  letters: ``code_orbit``, ``Rotation.code_orbit`` to as many letters
  (``rotation_code_orbit``) of the rotation whose coding is the ``B -> 01``
  image of that word, ``height_f`` of that image,
  ``complexity(u, 30)``, ``balance`` of that image at window 300,
  ``three_iet_certificate`` and ``recover_parameters``;
- ``three_iet_certificate`` on a search-sized prefix of 2 000 letters (at
  most ``--letters``): a balanced one, of the golden coding, and a refuted
  one, of the fixed point of ``A>AC;B>AC;C>B``, whose ``B -> 01`` image is
  balanced and whose ``B -> 10`` image is not, and ``balance`` of that
  ``B -> 10`` image at window 300, which reads the occurrence gaps alone;
- ``Morphism.apply_text`` of ``B -> 01`` on prefixes of 5, 60, 400 and
  10 000 letters, and ``code_orbit`` of 10 000 letters (each capped at
  ``--letters``);
- the ``QuadraticNumber`` operations add, mul, div, cmp and parse;
- end to end: ``substitution_audit`` of ``A>AB;B>AACA;C>A``, an in-process
  ``gen3iet --n 10000 --json`` (at most ``--letters`` points),
  ``search_substitutions(--search-max-total)`` and a cold ``iet3 sturm``
  process, spawn to exit;
- next to ``gen3iet``, its orbit row writer ``cli._orbit_rows`` alone, on
  the golden orbit of that length and of ten times it.

The record carries nproc, the Python and numpy versions and the git SHA
of the checkout that ``--src`` lies in.  Nothing in the package reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = ("(-1+sqrt(5))/2", "(1+sqrt(5))/4", "0")
AUDITED = "A>AB;B>AACA;C>A"
REFUTED = "A>AC;B>AC;C>B"
CERTIFIED_PREFIX = 2_000
#: the fresh runs of a comparison, three a side, the side that goes first
#: alternating from pair to pair
RUN_ORDER = ("base0", "new0", "new1", "base1", "base2", "new2")


def best(call, repeat: int, number: int = 1) -> float:
    """The least seconds per call over ``repeat`` batches of ``number`` calls."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - start) / number)
    return min(samples)


def control() -> None:
    """A fixed loop of the standard library alone."""
    x = Fraction(1, 3)
    acc = 0
    for i in range(500):
        x = (x * 3 + Fraction(i, 7)) % 5
        acc += i * i % 7


def git_sha(path: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=path, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def rows(letters: int, repeat: int, search_max_total: int, src: str) -> list[dict]:
    from iet3 import audit, cli, dynamics, morphisms, words
    from iet3.qfield import parse_quadratic

    eps, ell, c = map(parse_quadratic, GOLDEN)
    iet = dynamics.ThreeIet(dynamics.IetParameters(eps, ell, c))
    u = iet.code_orbit(letters).word
    image = morphisms.SIGMA(u)
    out = []

    def row(name: str, call, size: int | None = None, number: int = 1):
        out.append(
            {"name": name, "size": size, "number": number,
             "seconds": best(call, repeat, number)}
        )

    row("control", control, number=20)
    row("code_orbit", lambda: iet.code_orbit(letters), letters)
    rotation = dynamics.Rotation.plain_for(iet.params)
    row("rotation_code_orbit", lambda: rotation.code_orbit(letters), letters)
    row("height_f", lambda: words.height_f(image, eps), letters)
    row("complexity", lambda: words.complexity(u, 30), letters)
    row("balance", lambda: words.balance(image, 300), letters)
    row("certificate", lambda: audit.three_iet_certificate(u), letters)
    row("recover", lambda: audit.recover_parameters(u, eps), letters)
    size = min(CERTIFIED_PREFIX, letters)
    balanced = u[:size]
    refuted = morphisms.fixed_point_prefix(morphisms.Morphism.from_text(REFUTED), n=size)
    row("certificate_balanced", lambda: audit.three_iet_certificate(balanced), size)
    row("certificate_refuted", lambda: audit.three_iet_certificate(refuted), size)
    unbalanced = morphisms.SIGMA_PRIME(refuted)
    row("balance_refuted", lambda: words.balance(unbalanced, 300), size)

    for size in (5, 60, 400, 10**4):
        text = u.letters[: min(size, letters)]
        row("apply_text", lambda: morphisms.SIGMA.apply_text(text), len(text),
            number=max(1, 20_000 // len(text)))
    short = min(10**4, letters)
    row("code_orbit", lambda: iet.code_orbit(short), short)

    x, y = eps, ell
    row("qfield.add", lambda: x + y, number=10_000)
    row("qfield.mul", lambda: x * y, number=10_000)
    row("qfield.div", lambda: x / y, number=10_000)
    row("qfield.cmp", lambda: x < y, number=10_000)
    row("qfield.parse", lambda: parse_quadratic(GOLDEN[1]), number=1_000)

    m = morphisms.Morphism.from_text(AUDITED)
    row("audit", lambda: audit.substitution_audit(m))
    argv = ["gen3iet", f"--epsilon={GOLDEN[0]}", f"--l={GOLDEN[1]}",
            "--n", str(short), "--json"]

    def gen3iet():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError("gen3iet failed")

    row("gen3iet_json", gen3iet, short)
    for size in (short, 10 * short):
        points = iet.code_orbit(size).points
        # a gen3iet call computes the numerators once, before its rows
        points.keys()
        row("orbit_rows", lambda: cli._orbit_rows(points), size)
    row("search", lambda: audit.search_substitutions(search_max_total), search_max_total)

    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    spawn = [sys.executable, "-m", "iet3.cli", "sturm", "--value", GOLDEN[0]]
    row("cold_cli", lambda: subprocess.run(spawn, env=env, check=True,
                                           stdout=subprocess.DEVNULL))
    return out


def paired(base: str, new: str, forwarded: list[str]) -> dict:
    """``{base, new, run_order}``: each side's record, every row the best
    over the side's runs, from fresh runs of this script in ``RUN_ORDER``
    on the package directories ``base`` and ``new``."""
    sides = {"base": os.path.abspath(base), "new": os.path.abspath(new)}
    records = {"base": [], "new": []}
    with tempfile.TemporaryDirectory() as scratch:
        for label in RUN_ORDER:
            side = label.rstrip("0123456789")
            out = os.path.join(scratch, f"{label}.json")
            argv = [sys.executable, os.path.abspath(__file__), "--src", sides[side],
                    "--out", out, *forwarded]
            subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
            with open(out, encoding="utf-8") as handle:
                records[side].append(json.load(handle))
    merged = {
        side: dict(runs[0], runs=len(runs), rows=best_rows(runs))
        for side, runs in records.items()
    }
    merged["run_order"] = list(RUN_ORDER)
    return merged


def best_rows(runs: list[dict]) -> list[dict]:
    """The rows of one side's runs, each with its least seconds."""
    best = []
    for samples in zip(*(run["rows"] for run in runs)):
        if len({(r["name"], r["size"], r["number"]) for r in samples}) != 1:
            raise RuntimeError("the runs of one side disagree on their rows")
        best.append(dict(samples[0], seconds=min(r["seconds"] for r in samples)))
    return best


def write(record: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                        help="the directory that holds the iet3 package")
    parser.add_argument("--base", help="the package directory of the base side")
    parser.add_argument("--new", help="the package directory of the new side")
    parser.add_argument("--letters", type=int, default=10**5,
                        help="coding length of the layer rows, at least 1000 "
                             "(the certificate's least prefix)")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--search-max-total", type=int, default=8)
    args = parser.parse_args()
    if args.letters < 1000 or args.repeat < 1 or args.search_max_total < 3:
        parser.error("need --letters >= 1000, --repeat >= 1 and --search-max-total >= 3")
    if (args.base is None) != (args.new is None):
        parser.error("--base and --new go together")

    if args.base is not None:
        forwarded = ["--letters", str(args.letters), "--repeat", str(args.repeat),
                     "--search-max-total", str(args.search_max_total)]
        record = paired(args.base, args.new, forwarded)
        write(record, args.out)
        pairs = list(zip(record["base"]["rows"], record["new"]["rows"]))
        drift = next(b["seconds"] / n["seconds"] for b, n in pairs if b["name"] == "control")
        for b, n in pairs:
            size = "" if b["size"] is None else f" {b['size']}"
            ratio = b["seconds"] / n["seconds"]
            print(f"{b['name']}{size}: {b['seconds'] * 1e3:.4f} -> "
                  f"{n['seconds'] * 1e3:.4f} ms ({ratio:.2f}x, "
                  f"{ratio / drift:.2f}x past control)")
        return 0

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import numpy

    record = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "git_sha": git_sha(src),
        "settings": {
            "letters": args.letters,
            "repeat": args.repeat,
            "search_max_total": args.search_max_total,
        },
        "rows": rows(args.letters, args.repeat, args.search_max_total, src),
    }
    write(record, args.out)
    for r in record["rows"]:
        size = "" if r["size"] is None else f" {r['size']}"
        print(f"{r['name']}{size}: {r['seconds'] * 1e3:.4f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
