"""Smoke test of the benchmark harness itself (the only tier-1 test here).

Each workload runs at a fraction of its size — long enough to exercise
every phase, correctness checks included — and its output is held to the
contract in ``BENCHMARK.json``.  Everything is written under ``tmp_path``.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from bench import compare
from bench.harness import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(tmp_path: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            *BENCHMARK["command"],
            "--workload", workload, "--seed", "7", "--seconds", "0.3",
            "--trace", str(trace),
            "--out", str(tmp_path / "runs.jsonl"), "--out-dir", str(tmp_path / "out"),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"], spec["name"]
        assert isinstance(entry["value"], float), spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_meets_the_contract(tmp_path, workload):
    result = run_bench(tmp_path, workload, trace=0)
    check_result(result, BENCHMARK["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    runs = str(tmp_path / "runs.jsonl")
    rows = compare.compare(runs, runs, BENCHMARK)
    assert len(rows) == len(BENCHMARK["end_to_end"])
    assert {row["verdict"] for row in rows} == {"within"}
    assert compare.main([runs, runs]) == 0
    assert not list((tmp_path / "out").glob("tmp-*")), "scratch WAL dir left behind"


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = run_bench(tmp_path, "farm", trace=1)
    check_result(result, BENCHMARK["per_layer"])
    spans = (tmp_path / "out" / "trace-farm.jsonl").read_text().splitlines()
    assert {"name", "start", "end", "parent", "op"} == set(json.loads(spans[0]))


def test_compare_flags_a_regression(tmp_path):
    def write(path: Path, value: float) -> str:
        record = {
            "workload": "ingest", "trace": 0,
            "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}},
        }
        path.write_text("".join(json.dumps(record) + "\n" for _ in range(3)))
        return str(path)

    base = write(tmp_path / "a.jsonl", 1000.0)
    slower = write(tmp_path / "b.jsonl", 500.0)
    assert [row["verdict"] for row in compare.compare(base, slower, BENCHMARK)] == ["worse"]
    assert compare.main([base, slower]) == 1
    assert compare.main([slower, base]) == 0
