"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "desk": {"trials": 2},
    "solve_mixed": {"games_per_pass": 1, "states": 2, "actions": 2},
    "bound_w1": {"grid": (2, 2)},
    "certify_far": {"states": 5, "actions": 2},
}

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def tiny(name: str):
    return workloads.WORKLOADS[name](3, **TINY[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    report = run.run(tiny(name), 3, 0.0, trace_on=False)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    details = report["details"]
    assert details["fail_frac"] == {"value": 0.0, "unit": "frac"}
    assert "op_ms_tail" in details
    has_target = name in ("desk", "solve_mixed")
    assert (details["certified_frac"] is not None) == has_target


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    report = run.run(tiny(name), 3, 0.0, trace_on=True)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared("per_layer")
    spans = BENCH.parent / report["details"]["spans_file"]
    assert spans.is_file()
    assert len(spans.read_text().splitlines()) == report["details"]["spans"]


def test_traced_desk_records_match_untraced():
    workload = tiny("desk")
    run.run(workload, 3, 0.0, trace_on=False)
    digest = workload.report()["records_sha256"]
    again = tiny("desk")
    report = run.run(again, 3, 0.0, trace_on=True)
    assert report["result"]["failed"] == 0
    assert again.report()["records_sha256"] == digest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_failing_check_raises_fail_frac(name, monkeypatch):
    workload = tiny(name)

    def broken(item, output):
        raise workloads.CheckError("injected")

    monkeypatch.setattr(workload, "check", broken)
    report = run.run(workload, 3, 0.0, trace_on=False)
    assert report["details"]["fail_frac"]["value"] == 1.0
    assert report["result"]["failed"] == report["result"]["attempted"]
    assert not report["result"]["correct"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
