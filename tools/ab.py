"""A/B driver: run the benchmark on two source trees in alternating pairs.

    python tools/ab.py --base REV [--change REV] --pairs N --seconds S [--workload W ...]

Builds two temporary trees. The base tree is ``git archive REV src``; the
change tree is ``git archive`` of ``--change`` or, without it, a copy of
the working tree's ``src/``. Each tree gets a copy of the current
``bench/`` and ``BENCHMARK.json``, so both sides run the same benchmark
code and settings, and only ``src/`` differs. For every workload (all of
``BENCHMARK.json``'s by default) it runs N pairs of
``bench/run.py --trace 0``, one seed per pair shared by both sides (pair
i uses seed i + 1), alternating which side runs first.

Prints, per workload and end-to-end metric: both medians with their
quartiles, the change's wins over the pairs (ties count for neither side),
and a verdict against the metric's bound in ``BENCHMARK.json``:

- ``regression``: the change's median is worse by more than the bound;
- ``gain``: the change wins at least 9 of 10 pairs, and its median is
  better by more than the base's quartile distance;
- ``unresolved``: the base's quartile distance is wider than the bound,
  and not every change run beats every base run;
- ``within bound`` otherwise.

A workload whose runs are not all ``correct``, or where the change fails
more items than the base, is reported too. Then one record (commit, base,
host, medians and verdicts) is appended to ``BENCH_TRAJECTORY.json`` at
the repository root. Nothing is written under ``bench/``: each run writes
its results inside its temporary tree, which is removed at the end.
``--dry-run`` builds and lists both trees and the runs it would make,
runs nothing and appends no record.
"""

from __future__ import annotations

import argparse
import io
import json
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
GAIN_SHARE = 0.9


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def _rev(rev: str) -> str:
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def _build_tree(tree: Path, rev: str | None) -> None:
    """src/ at rev (the working tree's when None), with the current bench/."""
    tree.mkdir()
    if rev is None:
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    else:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev, "src"))) as tar:
            tar.extractall(tree, filter="data")
    shutil.copytree(ROOT / "bench", tree / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SRQKD_CONFIG")}
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


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, wins and the verdict of one metric over paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    b1, b_med, b3 = _quartiles(base)
    c1, c_med, c3 = _quartiles(change)
    wins = sum(sign * (b - c) > 0.0 for b, c in zip(base, change))
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if worse_by > bound:
        outcome = "regression"
    elif wins >= GAIN_SHARE * len(base) and sign * (b_med - c_med) > b3 - b1:
        outcome = "gain"
    elif (b3 - b1) > bound * abs(b_med) and not all(
            sign * (b - c) > 0.0 for b in base for c in change):
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {"base_median": b_med, "base_quartiles": [b1, b3],
            "change_median": c_med, "change_quartiles": [c1, c3],
            "change_vs_base": c_med / b_med - 1.0 if b_med else None,
            "wins": wins, "pairs": len(base), "verdict": outcome}


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


def _append(record: dict) -> None:
    records = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
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
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json has {known}")

    base = _rev(args.base)
    change = _rev(args.change) if args.change else None
    head = _rev("HEAD")
    commit = change or f"{head}+worktree"
    with tempfile.TemporaryDirectory(prefix="srqkd-ab-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        _build_tree(trees["base"], base)
        _build_tree(trees["change"], change)
        print(f"base   {base}  {trees['base']}")
        print(f"change {commit}  {trees['change']}")
        if args.dry_run:
            for side, tree in trees.items():
                files = sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*.py"))
                print(f"{side}: {len(files)} .py files: {' '.join(files)}")
            for workload in workloads:
                for i in range(args.pairs):
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    print(f"would run {workload} seed {i + 1}: {' then '.join(order)}")
            return 0

        results = {}
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    t0 = time.perf_counter()
                    runs[side].append(_run(trees[side], workload, i + 1, args.seconds))
                    print(f"  {workload} pair {i + 1} {side:<6} seed {i + 1} "
                          f"wall_s {runs[side][-1]['metrics']['wall_s']['value']:.5g} "
                          f"({time.perf_counter() - t0:.0f} s)", flush=True)
            metrics = {}
            for spec in benchmark["end_to_end"]:
                name = spec["name"]
                values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                          for side in runs}
                metrics[name] = verdict(values["base"], values["change"], spec["better"],
                                        spec["bound"])
            failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
            attempted = {side: sum(r["attempted"] for r in runs[side]) for side in runs}
            results[workload] = {
                "metrics": metrics, "failed": failed, "attempted": attempted,
                "correct": all(r["correct"] for side in runs for r in runs[side]),
                "more_failures": (failed["change"] * attempted["base"]
                                  > failed["base"] * attempted["change"])}

    for workload, result in results.items():
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
        if result["more_failures"]:
            print("  the change fails a larger share of items than the base")
    _append({"commit": commit, "base": base, "host": _host(),
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "pairs": args.pairs, "seconds": args.seconds, "workloads": results})
    print(f"\nappended a record to {TRAJECTORY.name}")
    bad = any(not r["correct"] or r["more_failures"]
              or any(m["verdict"] == "regression" for m in r["metrics"].values())
              for r in results.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
