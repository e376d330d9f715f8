"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

A smoke-scale run of every workload exercises every call and every oracle
check in a few seconds; the traced smoke run produces every per-layer
metric.  A deliberately wrong oracle must show up in failed_ratio, and the
benchmark must refuse to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_passes_every_check(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", "0", "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_traced_smoke_run_reports_every_layer():
    proc = run_bench("--workload", "bell-chsh", "--seed", "4", "--seconds", "0.1",
                     "--trace", "1", "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    spans = json.loads((BENCH / "out" / "spans-bell-chsh-seed4.json").read_text())
    assert {"name", "start", "end", "parent", "workload", "run", "self_s"} <= set(spans[0])
    assert {sp["workload"] for sp in spans} == set(bench.WORKLOADS)


def test_wrong_oracle_is_counted_in_failed_ratio():
    children = [bench.spawn("born-two", 5, 0, 0, "smoke")]
    right = bench.outcome(children)
    assert right["failed"] == 0
    wrong = dict(bench.ORACLES, two=("born", (0.7, 0.3)))
    result = bench.outcome(children, wrong)
    calls = len(children[0]["calls"])
    assert result["failed"] == calls and result["failed_ratio"] == 1.0
    assert any("k/M" in err for err in result["errors"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "born-two", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
