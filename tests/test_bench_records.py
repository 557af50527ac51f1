"""Every checked-in benchmark record (``BENCH_pr*.json``) keeps the form
ROADMAP item 5 sets: a seed, both commits, a summary over every workload's
end-to-end metrics and a trace of every per-layer metric, named and in the
units ``BENCHMARK.json`` declares."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_pr*.json"))


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {f"{w['name']}.{m['name']}": m["unit"]
               for w in spec["workloads"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return summary, per_layer


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_the_declared_form(path):
    record = json.loads(path.read_text())
    summary, per_layer = declared()
    assert type(record["seed"]) is int
    for key in ("parent_commit", "change_commit"):
        assert re.fullmatch(r"[0-9a-f]{40}", record[key]), key
    assert {k: v["unit"] for k, v in record["summary"].items()} == summary
    metrics = record["trace"]["result"]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == per_layer
