"""A/B driver: run the benchmark on two source trees in alternating pairs.

    python tools/ab.py --base REV [--change REV] --pairs N --seconds S [--workload W ...]

Builds two temporary trees, both from ``git archive`` tar streams of
``src/``: the base side's of REV, the change side's of ``--change`` or,
without it, of a tree object written from the working tree's ``src/``
through a temporary index (no ref and no checked-out file changes). Each
tree gets a copy of the current ``bench/`` and ``BENCHMARK.json``, so both
sides run the same benchmark code and settings, and only ``src/`` differs.
For every workload (all of ``BENCHMARK.json``'s by default) it runs N
pairs of ``bench/run.py --trace 0``, N even, one seed per pair shared by
both sides (pair i uses seed i + 1). Which side runs first alternates from
pair to pair, and in one pair of each two consecutive pairs the two sides
swap directories, so each order and each directory serves each side on
half of the pairs.

Prints, per workload and end-to-end metric: both medians with their
quartiles, the change's wins over the pairs (ties count for neither side),
and a verdict against the metric's bound in ``BENCHMARK.json``:

- ``regression``: the change's median is worse by more than the bound;
- ``gain``: three conditions hold, and a line names each one that fails
  where the change's median is better: an exact one-sided sign test on
  the wins (a tie counting as a loss) gives p <= 0.02 (6 of 6 pairs, 8 of
  9 or 9 of 10; never 5 pairs), the median gap exceeds the base's
  quartile distance, and its share of the base median exceeds the
  metric's A/A spread: in the latest A/A record of
  ``BENCH_TRAJECTORY.json`` (both sides the same ``src/`` tree), the
  largest of the two sides' quartile distances over median and the
  medians' relative gap. Without an A/A record that condition is skipped;
- ``unresolved``: the base's quartile distance is wider than the bound,
  and not every change run beats every base run;
- ``within bound`` otherwise.

A workload whose runs are not all ``correct``, or where the change fails
more items than the base, is reported too. Then one record (commit, base,
both ``src/`` tree ids, host, medians and verdicts) is appended to
``BENCH_TRAJECTORY.json`` at the repository root. Nothing is written under
``bench/``: each run writes its results inside its temporary tree, which
is removed at the end. ``--dry-run`` builds and lists both trees and the
runs it would make, runs nothing and appends no record.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_TRAJECTORY.json"
GAIN_P = 0.02
SIDES = ("base", "change")


def _git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, env=env).stdout


def _rev(rev: str) -> str:
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def _worktree_tree() -> str:
    """A tree object holding the working tree's src/ (ignored files left out).

    It is written through a temporary index, so no ref, no index of the
    checkout and no checked-out file changes."""
    with tempfile.TemporaryDirectory(prefix="srqkd-ab-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("add", "--all", "--", "src", env=env)
        return _git("write-tree", env=env).decode().strip()


def _src_tree(treeish: str) -> str:
    """The id of treeish's src/ tree: two sides with the same id run the same code."""
    return _git("rev-parse", "--verify", f"{treeish}:src").decode().strip()


def _build_tree(tree: Path, treeish: str) -> None:
    """treeish's src/, extracted from a git archive tar stream, with the current bench/."""
    tree.mkdir()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", treeish, "src"))) as tar:
        tar.extractall(tree, filter="data")
    shutil.copytree(ROOT / "bench", tree / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree)


def _plan(pairs: int) -> list[tuple[tuple[str, str], bool]]:
    """Per pair: the order of the sides, and whether they swap directories.

    The order alternates; pairs 2j and 2j + 1 run one with and one without
    the swap, so over an even number of pairs each holds on exactly half."""
    return [(SIDES if i % 2 == 0 else SIDES[::-1], (i + 1) // 2 % 2 == 1)
            for i in range(pairs)]


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sign_test_p(wins: int, pairs: int) -> float:
    """One-sided exact sign test: P(at least wins of pairs fair coin flips), ties as losses."""
    return sum(math.comb(pairs, k) for k in range(wins, pairs + 1)) / 2.0 ** pairs


def aa_spread(record: dict, workload: str, metric: str) -> float:
    """A metric's noise in an A/A record: the largest of both sides' quartile
    distances over median and of the medians' relative gap."""
    m = record["workloads"][workload]["metrics"][metric]
    spreads = [(q3 - q1) / abs(med) for (q1, q3), med in
               ((m["base_quartiles"], m["base_median"]),
                (m["change_quartiles"], m["change_median"])) if med]
    return max(spreads + [abs(m["change_vs_base"] or 0.0)])


def latest_aa(records: list[dict], workload: str) -> dict | None:
    """The latest record with the same src/ tree on both sides that ran workload."""
    for record in reversed(records):
        if (record.get("base_src") and record.get("base_src") == record.get("change_src")
                and workload in record["workloads"]):
            return record
    return None


def verdict(base: list[float], change: list[float], better: str, bound: float,
            aa: float | None = None) -> dict:
    """Medians, quartiles, wins and the verdict of one metric over paired runs.

    aa is the metric's A/A spread (see aa_spread), None when no A/A record
    exists."""
    sign = 1.0 if better == "lower" else -1.0
    b1, b_med, b3 = _quartiles(base)
    c1, c_med, c3 = _quartiles(change)
    wins = sum(sign * (b - c) > 0.0 for b, c in zip(base, change))
    p = sign_test_p(wins, len(base))
    gap = sign * (b_med - c_med)
    worse_by = -gap / abs(b_med) if b_med else 0.0
    gain_failed = []
    if p > GAIN_P:
        gain_failed.append(f"sign test p {p:.3g} > {GAIN_P} ({wins} of {len(base)} pairs)")
    if not gap > b3 - b1:
        gain_failed.append(f"median gap {gap:.4g} not above the base's quartile distance "
                           f"{b3 - b1:.4g}")
    if aa is not None and not (b_med and gap / abs(b_med) > aa):
        gain_failed.append(f"median gap {100.0 * gap / abs(b_med) if b_med else 0.0:.2f}% "
                           f"not above the A/A spread {100.0 * aa:.2f}%")
    if worse_by > bound:
        outcome = "regression"
    elif not gain_failed:
        outcome = "gain"
    elif (b3 - b1) > bound * abs(b_med) and not all(
            sign * (b - c) > 0.0 for b in base for c in change):
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {"base_median": b_med, "base_quartiles": [b1, b3],
            "change_median": c_med, "change_quartiles": [c1, c3],
            "change_vs_base": c_med / b_med - 1.0 if b_med else None,
            "wins": wins, "pairs": len(base), "sign_p": p, "aa_spread": aa,
            "gain_failed": gain_failed, "verdict": outcome}


def _host() -> dict:
    host = {"machine": platform.machine(), "system": platform.system(),
            "cpus": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            host["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return host


def _records() -> list[dict]:
    return json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []


def _append(record: dict) -> None:
    records = _records()
    records.append(record)
    TRAJECTORY.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--change", help="git revision of the change side "
                                         "(default: the working tree's src/)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of each run")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every workload)")
    parser.add_argument("--dry-run", action="store_true",
                        help="build and list both trees and the runs; run nothing")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2 or not args.seconds > 0:
        parser.error("--pairs must be even and >= 2, and --seconds > 0")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json has {known}")

    base = _rev(args.base)
    change = _rev(args.change) if args.change else _worktree_tree()
    commit = change if args.change else f"{_rev('HEAD')}+worktree"
    src = {"base": _src_tree(base), "change": _src_tree(change)}
    records = _records()
    plan = _plan(args.pairs)
    with tempfile.TemporaryDirectory(prefix="srqkd-ab-") as tmp:
        dirs = (Path(tmp) / "a", Path(tmp) / "b")
        _build_tree(dirs[0], base)
        _build_tree(dirs[1], change)
        print(f"base   {base}  src {src['base']}  in {dirs[0]} (swapped: {dirs[1]})")
        print(f"change {commit}  src {src['change']}  in {dirs[1]} (swapped: {dirs[0]})")
        if args.dry_run:
            for side, tree in zip(SIDES, dirs):
                files = sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*.py"))
                print(f"{side}: {len(files)} .py files: {' '.join(files)}")
            for workload in workloads:
                for i, (order, swapped) in enumerate(plan):
                    print(f"would run {workload} seed {i + 1}: {' then '.join(order)}"
                          f"{', directories swapped' if swapped else ''}")
            return 0

        results, swapped_now = {}, False
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i, (order, swapped) in enumerate(plan):
                if swapped != swapped_now:  # each side's tree moves to the other directory
                    dirs[0].rename(Path(tmp) / "swap")
                    dirs[1].rename(dirs[0])
                    (Path(tmp) / "swap").rename(dirs[1])
                    swapped_now = swapped
                for side in order:
                    t0 = time.perf_counter()
                    tree = dirs[SIDES.index(side) ^ swapped]
                    runs[side].append(_run(tree, workload, i + 1, args.seconds))
                    print(f"  {workload} pair {i + 1} {side:<6} seed {i + 1} in {tree.name} "
                          f"wall_s {runs[side][-1]['metrics']['wall_s']['value']:.5g} "
                          f"({time.perf_counter() - t0:.0f} s)", flush=True)
            aa = latest_aa(records, workload)
            metrics = {}
            for spec in benchmark["end_to_end"]:
                name = spec["name"]
                values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                          for side in runs}
                metrics[name] = verdict(values["base"], values["change"], spec["better"],
                                        spec["bound"],
                                        aa_spread(aa, workload, name) if aa else None)
            failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
            attempted = {side: sum(r["attempted"] for r in runs[side]) for side in runs}
            results[workload] = {
                "metrics": metrics, "failed": failed, "attempted": attempted,
                "correct": all(r["correct"] for side in runs for r in runs[side]),
                "more_failures": (failed["change"] * attempted["base"]
                                  > failed["base"] * attempted["change"]),
                "aa_record": aa["date"] if aa else None}

    spec_better = {spec["name"]: spec["better"] for spec in benchmark["end_to_end"]}
    for workload, result in results.items():
        print(f"\n{workload}: A/A spreads from the record of {result['aa_record']}"
              if result["aa_record"] else f"\n{workload}: no A/A record; no A/A condition")
        print(f"\n{workload}: {args.pairs} pairs of {args.seconds:g} s, correct "
              f"{str(result['correct']).lower()}, failed {result['failed']['base']} of "
              f"{result['attempted']['base']} (base) / {result['failed']['change']} of "
              f"{result['attempted']['change']} (change)")
        for name, m in result["metrics"].items():
            print(f"  {name:<14} base {m['base_median']:.5g} "
                  f"[{m['base_quartiles'][0]:.5g}, {m['base_quartiles'][1]:.5g}]  "
                  f"change {m['change_median']:.5g} "
                  f"[{m['change_quartiles'][0]:.5g}, {m['change_quartiles'][1]:.5g}]  "
                  f"{100.0 * (m['change_vs_base'] or 0.0):+.1f}%  "
                  f"wins {m['wins']}/{m['pairs']}  {m['verdict']}")
            if m["verdict"] != "gain" and m["change_vs_base"] and (
                    (m["change_vs_base"] < 0.0) == (spec_better[name] == "lower")):
                for reason in m["gain_failed"]:
                    print(f"    not gain: {reason}")
        if result["more_failures"]:
            print("  the change fails a larger share of items than the base")
    _append({"commit": commit, "base": base, "base_src": src["base"],
             "change_src": src["change"], "host": _host(),
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "pairs": args.pairs, "seconds": args.seconds, "workloads": results})
    print(f"\nappended a record to {TRAJECTORY.name}")
    bad = any(not r["correct"] or r["more_failures"]
              or any(m["verdict"] == "regression" for m in r["metrics"].values())
              for r in results.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
