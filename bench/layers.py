"""Time iet3 layer by layer and end to end, best of N, into one JSON file.

    python3 bench/layers.py --out bench/BENCH_<label>.json
    python3 bench/layers.py --src ../parent/src --out before.json

Each row is one call timed with ``time.perf_counter``; a row of a short
call times a batch of ``number`` calls and reports seconds per call.  The
best of ``--repeat`` samples is kept, since a shared host only ever adds
time.  Rows:

- the layers, on the coding of the golden-ratio exchange to ``--letters``
  letters: ``code_orbit``, ``height_f`` of its ``B -> 01`` image,
  ``complexity(u, 30)``, ``balance`` of that image at window 300,
  ``three_iet_certificate`` and ``recover_parameters``;
- ``Morphism.apply_text`` of ``B -> 01`` on prefixes of 5, 60, 400 and
  10 000 letters, and ``code_orbit`` of 10 000 letters (each capped at
  ``--letters``);
- the ``QuadraticNumber`` operations add, mul, div, cmp and parse;
- end to end: ``substitution_audit`` of ``A>AB;B>AACA;C>A``, an in-process
  ``gen3iet --n 10000 --json`` (at most ``--letters`` points),
  ``search_substitutions(--search-max-total)`` and a cold ``iet3 sturm``
  process, spawn to exit.

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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = ("(-1+sqrt(5))/2", "(1+sqrt(5))/4", "0")
AUDITED = "A>AB;B>AACA;C>A"


def best(call, repeat: int, number: int = 1) -> float:
    """The least seconds per call over ``repeat`` batches of ``number`` calls."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - start) / number)
    return min(samples)


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

    row("code_orbit", lambda: iet.code_orbit(letters), letters)
    row("height_f", lambda: words.height_f(image, eps), letters)
    row("complexity", lambda: words.complexity(u, 30), letters)
    row("balance", lambda: words.balance(image, 300), letters)
    row("certificate", lambda: audit.three_iet_certificate(u), letters)
    row("recover", lambda: audit.recover_parameters(u, eps), letters)

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
    row("search", lambda: audit.search_substitutions(search_max_total), search_max_total)

    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    spawn = [sys.executable, "-m", "iet3.cli", "sturm", "--value", GOLDEN[0]]
    row("cold_cli", lambda: subprocess.run(spawn, env=env, check=True,
                                           stdout=subprocess.DEVNULL))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                        help="the directory that holds the iet3 package")
    parser.add_argument("--letters", type=int, default=10**5,
                        help="coding length of the layer rows, at least 1000 "
                             "(the certificate's least prefix)")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--search-max-total", type=int, default=8)
    args = parser.parse_args()
    if args.letters < 1000 or args.repeat < 1 or args.search_max_total < 3:
        parser.error("need --letters >= 1000, --repeat >= 1 and --search-max-total >= 3")

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
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    for r in record["rows"]:
        size = "" if r["size"] is None else f" {r['size']}"
        print(f"{r['name']}{size}: {r['seconds'] * 1e3:.4f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
