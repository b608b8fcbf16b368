"""The A/B benchmark driver tools/ab.py and the trajectory file it appends to."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"
TRAJECTORY = ROOT / "BENCH_TRAJECTORY.json"
METRIC_FIELDS = {"base_median", "base_quartiles", "change_median", "change_quartiles",
                 "change_vs_base", "wins", "pairs", "verdict"}


def _ab_module():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_records_have_their_fields():
    records = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    assert isinstance(records, list) and records
    for record in records:
        assert {"commit", "base", "host", "date", "pairs", "seconds", "workloads"} <= set(record)
        assert record["workloads"]
        for result in record["workloads"].values():
            assert {"metrics", "failed", "attempted", "correct"} <= set(result)
            for metric in result["metrics"].values():
                assert METRIC_FIELDS <= set(metric)
                assert metric["verdict"] in ("regression", "gain", "unresolved", "within bound")


def test_help_runs():
    run = subprocess.run([sys.executable, str(AB), "--help"], capture_output=True, text=True)
    assert run.returncode == 0 and "--base" in run.stdout and "--pairs" in run.stdout


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_dry_run_builds_both_trees_and_runs_nothing():
    before = TRAJECTORY.read_bytes()
    run = subprocess.run([sys.executable, str(AB), "--base", "HEAD", "--pairs", "2",
                          "--seconds", "1", "--workload", "sweep-grid", "--dry-run"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    for side in ("base", "change"):
        (listing,) = [line for line in run.stdout.splitlines()
                      if line.startswith(f"{side}: ")]
        assert "src/srqkd/attack.py" in listing and "bench/run.py" in listing
    assert [line for line in run.stdout.splitlines() if line.startswith("would run")] == [
        "would run sweep-grid seed 1: base then change",
        "would run sweep-grid seed 2: change then base"]
    assert "wall_s" not in run.stdout
    assert TRAJECTORY.read_bytes() == before


def test_verdicts():
    verdict = _ab_module().verdict
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [v * 0.85 for v in base]
    assert verdict(base, faster, "lower", 0.22)["verdict"] == "gain"
    assert verdict(base, faster, "lower", 0.22)["wins"] == 10
    assert verdict(base, [v * 1.3 for v in base], "lower", 0.22)["verdict"] == "regression"
    assert verdict(base, list(base), "lower", 0.22)["verdict"] == "within bound"
    # A higher-is-better metric reads the other way round.
    assert verdict(base, faster, "higher", 0.1)["verdict"] == "regression"
    # A base spread wider than the bound resolves only if every change run wins.
    wide = [1.0, 2.0, 1.0, 2.0]
    assert verdict(wide, [1.5, 1.5, 1.5, 1.5], "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(wide, [0.4, 0.4, 0.4, 0.4], "lower", 0.1)["verdict"] == "gain"
