"""Self-tests of the serving benchmark, at a tiny size.

Run from the repository root (the file name keeps it out of the repository's
own test run)::

    python3 -m pytest perfbench/selftest.py -q

Each test runs the real benchmark end to end: it builds labels, starts a
``repro serve`` subprocess and drives it over the wire.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(?P<workload>\S+) (?P<name>\S+) = (?P<value>\S+) (?P<unit>\S+) "
                  r"\(n=(?P<samples>\d+)(?P<note>.*)\)$")


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    # At n = 30 a set of the fault panel cuts the graph, as edit-churn needs
    # (at n = 40 and 50 none does).
    monkeypatch.setattr(run, "N", 30)
    monkeypatch.setattr(run, "COLD_PANEL", 12)
    monkeypatch.setattr(run, "SETUPS", 2)
    monkeypatch.setattr(run, "EDIT_PERIOD_S", 2.0)
    # At the tiny size the field is small enough for the numpy Chien sweep,
    # which costs seconds per session; the pure-Python backend keeps the
    # tests quick.  The server subprocess inherits the variable.
    monkeypatch.setenv("REPRO_GF2_BACKEND", "python")


def bench(capsys, workload: str, trace: int = 0, seconds: float = 4.0) -> tuple:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", str(seconds),
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match:
            printed[match["name"]] = match
    return code, json.loads(lines[-1]), printed, lines


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_unit_and_samples(capsys, workload):
    code, result, printed, lines = bench(capsys, workload)
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        line = printed[metric["name"]]
        assert line["unit"] == metric["unit"]
        assert int(line["samples"]) >= 1
        assert result["metrics"][metric["name"]] == {
            "value": pytest.approx(float(line["value"]), rel=1e-5),
            "unit": metric["unit"]}
    assert set(result["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    assert float(printed["latency_p50_ms"]["value"]) <= \
        float(printed["latency_tail_ms"]["value"])
    # Printed on every run, but not gated by BENCHMARK.json.
    units = {"latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "server_cpu_ms_per_req": "ms", "host.probe_ms": "ms"}
    units.update({"cold-faults": {"throughput_per_s": "1/s"},
                  "edit-churn": {"update_s": "s", "swap_stall_ms": "ms"}}[workload])
    for name, unit in units.items():
        assert printed[name]["unit"] == unit
        assert int(printed[name]["samples"]) >= 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(capsys, workload):
    code, result, printed, lines = bench(capsys, workload, trace=1)
    assert code == 0, lines
    assert set(result["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert printed[metric["name"]]["unit"] == metric["unit"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if workload == "cold-faults":
        assert metrics["server.hit_ratio"] == 0.0
        assert metrics["outdetect.labels"] > 0
        assert metrics["gf2.field_muls"] > 0
    if workload == "edit-churn":
        assert metrics["server.rewarmed_per_edit"] > 0
        assert metrics["delta.bytes"] > 0


def test_leftover_hot_key_sidecar_fails_the_run(capsys, monkeypatch):
    from repro.pool.prewarm import save_hot_fault_sets

    new_run_dir = run.new_run_dir
    panel = {}

    def stale_run_dir() -> Path:
        directory = new_run_dir()
        save_hot_fault_sets(directory / "graph.ftcs.hotkeys.json", panel["sets"])
        return directory

    inputs = run.Inputs("cold-faults", 7)
    panel["sets"] = [query.faults for query in inputs.cold[:3]]
    monkeypatch.setattr(run, "new_run_dir", stale_run_dir)
    code, result, _, lines = bench(capsys, "cold-faults")
    assert code != 0
    assert result["correct"] is False
    assert any("pre-warmed" in line for line in lines)


def test_corrupted_truth_fails_the_run(capsys, monkeypatch):
    bfs_truth = run.bfs_truth

    def corrupted(edges, faults, pairs):
        truth = bfs_truth(edges, faults, pairs)
        truth[0] = not truth[0]
        return truth

    monkeypatch.setattr(run, "bfs_truth", corrupted)
    code, result, _, lines = bench(capsys, "cold-faults")
    assert code != 0
    assert result["correct"] is False
    assert any("wrong answer" in line for line in lines)


def test_the_edit_changes_a_hot_set_answer():
    inputs = run.Inputs("edit-churn", 7)
    assert any(hot.versions[0] != hot.versions[1] for hot in inputs.hot)


def test_fails_without_a_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "cold-faults", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"})
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
