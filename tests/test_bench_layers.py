"""The layer ledger ``bench/layers.py`` runs end to end at a tiny size, on
one checkout and paired between two."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
SRC = LAYERS.parents[1] / "src"

#: (name, size) of every row at 1 000 letters and --search-max-total 4
ROWS = [
    ("control", None), ("code_orbit", 1000), ("rotation_code_orbit", 1000),
    ("height_f", 1000), ("complexity", 1000),
    ("balance", 1000), ("certificate", 1000), ("recover", 1000),
    ("certificate_balanced", 1000), ("certificate_refuted", 1000),
    ("balance_refuted", 1000),
    ("apply_text", 5), ("apply_text", 60), ("apply_text", 400),
    ("apply_text", 1000), ("code_orbit", 1000),
    ("qfield.add", None), ("qfield.mul", None), ("qfield.div", None),
    ("qfield.cmp", None), ("qfield.parse", None),
    ("audit", None), ("gen3iet_json", 1000), ("orbit_rows", 1000),
    ("orbit_rows", 10000), ("search", 4), ("cold_cli", None),
]


def test_the_layer_ledger_writes_every_row_with_the_machine_facts(tmp_path):
    out = tmp_path / "BENCH.json"
    argv = [sys.executable, str(LAYERS), "--out", str(out), "--letters", "1000",
            "--repeat", "1", "--search-max-total", "4"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record["machine"]) == {"nproc", "python", "numpy"}
    assert record["machine"]["nproc"] >= 1
    assert record["settings"] == {"letters": 1000, "repeat": 1, "search_max_total": 4}
    assert [(r["name"], r["size"]) for r in record["rows"]] == ROWS
    assert all(r["seconds"] > 0 for r in record["rows"])


def test_paired_sides_alternate_into_one_record(tmp_path):
    out = tmp_path / "BENCH.json"
    argv = [sys.executable, str(LAYERS), "--base", str(SRC), "--new", str(SRC),
            "--out", str(out), "--letters", "1000", "--repeat", "1",
            "--search-max-total", "4"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record) == {"base", "new", "run_order"}
    assert record["run_order"] == ["base0", "new0", "new1", "base1", "base2", "new2"]
    for side in ("base", "new"):
        assert record[side]["runs"] == 3
        assert record[side]["settings"] == {"letters": 1000, "repeat": 1,
                                            "search_max_total": 4}
        assert [(r["name"], r["size"]) for r in record[side]["rows"]] == ROWS
        assert all(r["seconds"] > 0 for r in record[side]["rows"])
    assert len(done.stdout.splitlines()) == len(ROWS)


def test_each_row_keeps_its_best_run():
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    def run(*seconds):
        return {"rows": [{"name": f"r{i}", "size": None, "number": 1, "seconds": t}
                         for i, t in enumerate(seconds)]}

    best = layers.best_rows([run(3.0, 1.0), run(2.0, 4.0), run(5.0, 1.5)])
    assert [(r["name"], r["seconds"]) for r in best] == [("r0", 2.0), ("r1", 1.0)]


def test_the_layer_ledger_refuses_a_coding_too_short_to_certify(tmp_path):
    argv = [sys.executable, str(LAYERS), "--out", str(tmp_path / "x.json"),
            "--letters", "999"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "--letters >= 1000" in done.stderr
    assert not (tmp_path / "x.json").exists()
