"""The layer ledger ``bench/layers.py`` runs end to end at a tiny size."""

import json
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


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
    rows = [(r["name"], r["size"]) for r in record["rows"]]
    assert rows == [
        ("code_orbit", 1000), ("height_f", 1000), ("complexity", 1000),
        ("balance", 1000), ("certificate", 1000), ("recover", 1000),
        ("apply_text", 5), ("apply_text", 60), ("apply_text", 400),
        ("apply_text", 1000), ("code_orbit", 1000),
        ("qfield.add", None), ("qfield.mul", None), ("qfield.div", None),
        ("qfield.cmp", None), ("qfield.parse", None),
        ("audit", None), ("gen3iet_json", 1000), ("search", 4), ("cold_cli", None),
    ]
    assert all(r["seconds"] > 0 for r in record["rows"])


def test_the_layer_ledger_refuses_a_coding_too_short_to_certify(tmp_path):
    argv = [sys.executable, str(LAYERS), "--out", str(tmp_path / "x.json"),
            "--letters", "999"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "--letters >= 1000" in done.stderr
    assert not (tmp_path / "x.json").exists()
