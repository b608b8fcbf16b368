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
    # Both trees come from git archive tar streams (so no __pycache__ is
    # copied), and the sides swap directories on half of the pairs.
    before = TRAJECTORY.read_bytes()
    run = subprocess.run([sys.executable, str(AB), "--base", "HEAD", "--pairs", "4",
                          "--seconds", "1", "--workload", "sweep-grid", "--dry-run"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    for side in ("base", "change"):
        (listing,) = [line for line in run.stdout.splitlines()
                      if line.startswith(f"{side}: ")]
        assert "src/srqkd/attack.py" in listing and "bench/run.py" in listing
        assert "__pycache__" not in listing
    assert [line for line in run.stdout.splitlines() if line.startswith("would run")] == [
        "would run sweep-grid seed 1: base then change",
        "would run sweep-grid seed 2: change then base, directories swapped",
        "would run sweep-grid seed 3: base then change, directories swapped",
        "would run sweep-grid seed 4: change then base"]
    assert "wall_s" not in run.stdout
    assert TRAJECTORY.read_bytes() == before


@pytest.mark.parametrize("pairs", ["1", "3", "0"])
def test_pairs_must_be_even(pairs):
    run = subprocess.run([sys.executable, str(AB), "--base", "HEAD", "--pairs", pairs,
                          "--seconds", "1", "--dry-run"], capture_output=True, text=True)
    assert run.returncode == 2 and "--pairs must be even" in run.stderr


def test_plan_balances_order_and_directory():
    plan = _ab_module()._plan(10)
    assert sum(order == ("base", "change") for order, _ in plan) == 5
    assert sum(swapped for _, swapped in plan) == 5
    assert all(plan[i][1] != plan[i + 1][1] for i in range(0, 10, 2))


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
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(wide, [1.5] * 6, "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(wide, [0.4] * 6, "lower", 0.1)["verdict"] == "gain"


def test_sign_test_p():
    sign_test_p = _ab_module().sign_test_p
    assert sign_test_p(5, 5) == 1 / 32 and sign_test_p(6, 6) == 1 / 64
    assert sign_test_p(9, 10) == 11 / 1024 and sign_test_p(8, 10) == 56 / 1024
    assert sign_test_p(0, 10) == 1.0


def test_five_of_five_pairs_is_not_gain():
    # 5 wins of 5 pairs have p = 1/32 > 0.02, however large the gap.
    m = _ab_module().verdict([1.0, 1.01, 0.99, 1.0, 1.02], [0.5] * 5, "lower", 0.22, 0.01)
    assert m["wins"] == 5 and m["verdict"] == "within bound"
    assert m["gain_failed"] == ["sign test p 0.0312 > 0.02 (5 of 5 pairs)"]


def test_ten_of_ten_pairs_above_every_floor_is_gain():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    m = _ab_module().verdict(base, [v * 0.9 for v in base], "lower", 0.22, 0.05)
    assert (m["wins"], m["verdict"], m["gain_failed"]) == (10, "gain", [])
    assert m["sign_p"] == 1 / 1024 and m["aa_spread"] == 0.05


def test_gap_inside_the_aa_spread_is_not_gain():
    # 10 of 10 pairs, and a 3% gap above the base's quartile distance, but
    # an A/A run of the same code spread 5%.
    base = [1.0, 1.001, 0.999, 1.0, 1.002, 0.998, 1.0, 1.001, 0.999, 1.0]
    ab = _ab_module()
    assert ab.verdict(base, [v * 0.97 for v in base], "lower", 0.22)["verdict"] == "gain"
    m = ab.verdict(base, [v * 0.97 for v in base], "lower", 0.22, 0.05)
    assert m["verdict"] == "within bound"
    assert m["gain_failed"] == ["median gap 3.00% not above the A/A spread 5.00%"]


def test_aa_spread_is_the_widest_of_an_aa_records_spreads():
    ab = _ab_module()
    metric = {"base_median": 1.0, "base_quartiles": [0.99, 1.02], "change_median": 0.96,
              "change_quartiles": [0.95, 0.97], "change_vs_base": -0.04}
    record = {"base_src": "t", "change_src": "t",
              "workloads": {"cli-mix": {"metrics": {"wall_s": metric}}}}
    assert ab.aa_spread(record, "cli-mix", "wall_s") == pytest.approx(0.04)
    metric["base_quartiles"] = [0.9, 1.0]
    assert ab.aa_spread(record, "cli-mix", "wall_s") == pytest.approx(0.1)
    ab_record = {**record, "change_src": "u"}
    assert ab.latest_aa([record, ab_record], "cli-mix") is record
    assert ab.latest_aa([record], "mu-search") is None
    # A record without tree ids cannot tell an A/A from an A/B of the working tree.
    legacy = {"base": "x", "commit": "x+worktree", "workloads": record["workloads"]}
    assert ab.latest_aa([legacy], "cli-mix") is None
