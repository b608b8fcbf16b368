"""srqkd benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/``, and the run exits 1 without a result when that is missing. One
client in one thread calls the package serially (a closed loop). A pass is
the workload's fixed, seeded item list; passes repeat until ``--seconds``
is used up (see latency_summary for how they are combined).

``--trace 0`` reports the end-to-end metrics: the set-up time of a fresh
interpreter, the time to finish the item list, item latency median and
tail, and peak RSS. Item times are scaled to a reference host speed
measured by a calibration kernel between items (see HostSpeed); the raw
times go to the record.
``--trace 1`` runs untraced passes for half the time and traced passes for
the rest, and reports per-layer metrics from the spans (see tracer.py).
Every item's output is checked (see checks.py). The last line of stdout is
one JSON object; a fuller record goes to results/.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 4  # per batch
TAIL_BEYOND = 10
WARMUP_ITEMS = 3
PROBE_REF_S = 0.25e-3
PROBE_INTERVAL_S = 0.05
PROBE_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PARSER_PROBES = 21


def prepare_imports() -> None:
    if not (SRC / "srqkd" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'srqkd'} not found; run from the root of an srqkd checkout")
    sys.path.insert(0, str(SRC))
    # The CLI reads a config file named by this variable; the workloads
    # define every input themselves.
    os.environ.pop("SRQKD_CONFIG", None)


# ---------------------------------------------------------------------------
# run record

def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "srqkd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_record(workload, seed=None) -> dict:
    return {
        "workload": workload, "seed": seed,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# measurement

class SetupProbe:
    """Wall time of fresh interpreters that import srqkd and make the inputs.

    Probes run in two batches, before and after the passes, so that a slow
    stretch of the host does not cover all of them; setup_s is their median.
    """

    def __init__(self, workload, seed, scratch):
        self.cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed),
                    str(scratch)]
        self.times = []
        self._probe()  # fills the bytecode cache; not timed

    def _probe(self):
        t0 = perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr[-4000:]}")
        return elapsed

    def batch(self, count):
        self.times.extend(self._probe() for _ in range(count))


class HostSpeed:
    """A fixed calibration kernel, timed between items, that tracks host speed.

    This host's speed drifts by up to 2x for stretches of seconds to
    minutes while neighbours load it; CPU time drifts with wall time, so
    the process is slowed, not descheduled. The kernel does the same kind
    of work as the package (NumPy calls on 2000-lane and 1-lane arrays,
    Python float arithmetic) but calls no srqkd code, so a change to the
    package cannot move it. Item times are scaled by PROBE_REF_S over the
    kernel's time around the item: they read as seconds at the host speed
    where one kernel call takes PROBE_REF_S.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._wide = np.linspace(0.01, 1.0, 2000)
        self._one = np.array([0.5])
        self.samples = []  # (time, seconds per kernel call)
        self.sample()

    def _kernel(self):
        np = self._np
        acc = 0.0
        for i in range(8):
            acc += float(np.clip(np.log1p(np.exp(-self._wide * (1 + i % 5))), 0.0, 1.0)[i])
            for _ in range(6):
                acc += float(np.where(self._one > 0.1, np.expm1(-self._one), 0.0)[0])
                acc += math.exp(-abs(acc) * 1e-9)
        return acc

    def sample(self):
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        self.samples.append((perf_counter(), statistics.median(times)))

    def maybe_sample(self):
        if perf_counter() - self.samples[-1][0] >= PROBE_INTERVAL_S:
            self.sample()

    def scales(self, starts):
        """PROBE_REF_S over the mean kernel time of the samples around each start."""
        times = [when for when, _ in self.samples]
        out = []
        for t in starts:
            j = max(bisect.bisect_right(times, t) - 1, 0)
            around = self.samples[j:j + 2]
            out.append(PROBE_REF_S / statistics.fmean(sec for _, sec in around))
        return out


def run_pass(items, host, tracer=None, first_id=0):
    """One pass; returns (wall, raw latencies, scaled latencies, raw results, errors)."""
    latencies, starts, raws, errors = [], [], [], {}
    host.sample()
    t_pass = perf_counter()
    for i, item in enumerate(items):
        host.maybe_sample()
        if tracer is not None:
            tracer.item_id = first_id + i
        t0 = perf_counter()
        try:
            raw = item.call()
        except Exception as exc:  # a raising item counts as failed; the run goes on
            raw = None
            errors[i] = f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        starts.append(t0)
        raws.append(raw)
    wall = perf_counter() - t_pass
    host.sample()
    scaled = [lat * k for lat, k in zip(latencies, host.scales(starts))]
    return wall, latencies, scaled, raws, errors


class Session:
    """Passes of one workload with their timings and check results."""

    def __init__(self, workload, items, golden, host):
        self.workload = workload
        self.host = host
        self.items = items
        self.golden = golden
        self.seen = {}
        self.attempted = 0
        self.failures = []
        self.shares = {}

    def check(self, raws, errors):
        import checks
        import workloads

        for i, item in enumerate(self.items):
            self.attempted += 1
            problems = [errors[i]] if i in errors else None
            if problems is None:
                try:
                    norm = workloads.normalize(item, raws[i])
                    problems = checks.check_item(item, norm, self.golden, self.seen)
                except Exception as exc:  # malformed output is a failed item
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                self.failures.append({"item": item.key, "problems": problems[:3]})

    def passes(self, budget, tracer=None):
        """Run passes until the next one would overrun ``budget`` seconds.

        Returns the raw pass wall times, and raw and host-scaled latencies
        per pass.
        """
        walls, raw_latencies, latencies = [], [], []
        t0 = perf_counter()
        while True:
            wall, raw_lat, lat, raws, errors = run_pass(
                self.items, self.host, tracer, len(walls) * len(self.items))
            walls.append(wall)
            raw_latencies.append(raw_lat)
            latencies.append(lat)
            if self.workload == "sweep-grid" and tracer is None:
                self._flag_shares(raws)
            self.check(raws, errors)
            if perf_counter() - t0 + statistics.median(walls) > budget:
                return walls, raw_latencies, latencies

    def _flag_shares(self, raws):
        rows = [r for r in raws if r is not None]
        for share, flag in (("attack.empty_interval_frac", "attack-infeasible"),
                            ("sweeps.grey_frac", "grey-region")):
            self.shares[share] = sum(flag in r.flags for r in rows) / len(self.items)


def latency_summary(latencies):
    """Pass and item timings, each item averaged over the passes.

    wall_s is the mean over passes of the summed item latencies: the time
    to finish the item list. Percentiles are taken over items of each
    item's mean latency.
    """
    per_item = [statistics.fmean(samples) for samples in zip(*latencies)]
    ordered = sorted(per_item)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return {
        "wall_s": statistics.fmean(sum(p) for p in latencies),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": ordered[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / n,
        "tail_samples_beyond": n - k - 1,
        "items_per_pass": n,
    }


def parser_share(wall_s, items):
    """build_parser's share of a cli-mix pass (raw times), timed outside the passes."""
    from srqkd import cli

    times = []
    for _ in range(PARSER_PROBES):
        t0 = perf_counter()
        cli.build_parser()
        times.append(perf_counter() - t0)
    return statistics.median(times) * len(items) / wall_s


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

PER_LAYER_UNITS = {
    "attack.maximize_eve_information.calls": "count",
    "attack.maximize_eve_information.self_s": "s",
    "attack.maximize_eve_information.per_call_us": "us",
    "attack._information_curve.calls": "count",
    "attack._information_curve.self_s": "s",
    "attack.objective_lanes_per_call": "count",
    "attack.empty_interval_frac": "ratio",
    "sweeps.grey_frac": "ratio",
    "optimize.golden_max.calls": "count",
    "optimize.golden_max.evals": "count",
    "optimize.golden_max.evals_per_call": "count",
    "optimize.grid_then_golden_max.self_s": "s",
    "sweeps.optimize_mu.maximizer_calls_per_call": "count",
    "physics.derive_channel.calls_per_maximizer_call": "count",
    "physics.holevo_chi.calls": "count",
    "rates.sr_secret_rate.self_s": "s",
    "rates.bb84_secret_rate.calls": "count",
    "rates.bb84_secret_rate.self_s": "s",
    "rates.decoy_bounds.calls": "count",
    "cli.build_parser.self_s": "s",
    "cli.build_parser.self_share": "ratio",
    "cli.load_run_config.self_s": "s",
    "cli.render_rows.self_s": "s",
    "cli.render_rows.bytes": "B",
    "simulation.simulate.self_s": "s",
    "simulation.simulate.pulses_per_s": "1/s",
    "simulation.simulate.bytes_computed": "B",
    "discrimination.povm_probabilities_fock.self_s": "s",
    "discrimination.build_povm.calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, n_passes, traced_wall, untraced_wall):
    """Per-pass layer metrics; counts repeat exactly from pass to pass."""
    from tracer import MAXIMIZER, OBJECTIVE

    table = tracer.layer_table()
    counts = tracer.counts

    def calls(name):
        return table.get(name, {}).get("calls", 0) / n_passes

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0) / n_passes

    def incl_s(name):
        return table.get(name, {}).get("incl_s", 0.0) / n_passes

    n_max = calls(MAXIMIZER)
    golden_calls = calls("optimize.golden_max")
    values = {
        "attack.maximize_eve_information.calls": n_max,
        "attack.maximize_eve_information.self_s": self_s(MAXIMIZER),
        "attack.maximize_eve_information.per_call_us": _ratio(incl_s(MAXIMIZER), n_max) * 1e6,
        "attack._information_curve.calls": calls(OBJECTIVE),
        "attack._information_curve.self_s": self_s(OBJECTIVE),
        "attack.objective_lanes_per_call": _ratio(counts["lanes"] / n_passes, n_max),
        "attack.empty_interval_frac": _ratio(counts["empty_interval"] / n_passes, n_max),
        "sweeps.grey_frac": _ratio(counts["grey"] / n_passes, calls("sweeps.evaluate_sr_point")),
        "optimize.golden_max.calls": golden_calls,
        "optimize.golden_max.evals": counts["golden_evals"] / n_passes,
        "optimize.golden_max.evals_per_call": _ratio(counts["golden_evals"] / n_passes,
                                                     golden_calls),
        "optimize.grid_then_golden_max.self_s": self_s("optimize.grid_then_golden_max"),
        "sweeps.optimize_mu.maximizer_calls_per_call": _ratio(
            tracer.under(MAXIMIZER, "sweeps.optimize_mu") / n_passes,
            calls("sweeps.optimize_mu")),
        "physics.derive_channel.calls_per_maximizer_call": _ratio(
            tracer.under("physics.derive_channel", MAXIMIZER) / n_passes, n_max),
        "physics.holevo_chi.calls": calls("physics.holevo_chi"),
        "rates.sr_secret_rate.self_s": self_s("rates.sr_secret_rate"),
        "rates.bb84_secret_rate.calls": calls("rates.bb84_secret_rate"),
        "rates.bb84_secret_rate.self_s": self_s("rates.bb84_secret_rate"),
        "rates.decoy_bounds.calls": calls("rates.decoy_bounds"),
        "cli.build_parser.self_s": self_s("cli.build_parser"),
        "cli.build_parser.self_share": _ratio(self_s("cli.build_parser"), traced_wall),
        "cli.load_run_config.self_s": self_s("cli.load_run_config"),
        "cli.render_rows.self_s": self_s("cli.render_rows"),
        "cli.render_rows.bytes": counts["render_bytes"] / n_passes,
        "simulation.simulate.self_s": self_s("simulation.simulate"),
        "simulation.simulate.pulses_per_s": _ratio(counts["pulses"] / n_passes,
                                                   incl_s("simulation.simulate")),
        "simulation.simulate.bytes_computed": counts["sampler_bytes"] / n_passes,
        "discrimination.povm_probabilities_fock.self_s":
            self_s("discrimination.povm_probabilities_fock"),
        "discrimination.build_povm.calls": calls("discrimination.build_povm"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}, table


def invariants(tracer, items, n_passes):
    """Exact per-item call counts; a wrapper missing at some binding breaks them."""
    problems = []
    n = len(items)
    for layer in sorted({layer for item in items for layer in item.expect}):
        per_item = tracer.calls_per_item(layer, n_passes * n)[: n_passes * n]
        per_item = per_item.reshape(n_passes, n)
        for i, item in enumerate(items):
            if layer not in item.expect:
                continue
            want, got = item.expect[layer], per_item[:, i]
            if (got < 1).any() if want is None else (got != want).any():
                problems.append(f"{item.key}: {layer} called {got.tolist()} times per pass, "
                                f"expected {'>= 1' if want is None else want}")
    return problems


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-grid", "mu-search", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    prepare_imports()

    RESULTS_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=RESULTS_DIR))
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch) -> int:
    workload, traced = args.workload, bool(args.trace)
    setup = None if traced else SetupProbe(workload, args.seed, scratch)
    if setup is not None:
        setup.batch(SETUP_PROBES)

    import checks
    import workloads
    from tracer import Tracer

    items = workloads.generate(workload, args.seed, scratch)
    golden = checks.load_golden(workload)
    host = HostSpeed()
    session = Session(workload, items, golden, host)

    kinds = {}
    for item in items:
        kinds.setdefault(item.kind, item)
    warmup = list(kinds.values()) + items[:WARMUP_ITEMS]
    run_pass(warmup, host)

    t_start = perf_counter()
    budget = args.seconds / 2 if traced else args.seconds
    walls, raw_latencies, latencies = session.passes(budget)
    record = run_record(workload, args.seed)
    lat = latency_summary(latencies)
    wall_s = lat["wall_s"]
    result = {"record": record, "seconds": args.seconds, "trace": args.trace,
              "untraced_passes": len(walls), "pass_wall_s": walls,
              "raw_latency": latency_summary(raw_latencies),
              "probe_ref_s": PROBE_REF_S, "probe_samples": host.samples,
              "item_keys": [item.key for item in items], "item_latency_s": raw_latencies}

    invariant_problems = []
    if traced:
        tracer = Tracer()
        tracer.install()
        try:
            remaining = args.seconds - (perf_counter() - t_start)
            traced_walls, _, traced_latencies = session.passes(remaining, tracer)
        finally:
            tracer.uninstall()
        traced_wall = latency_summary(traced_latencies)["wall_s"]
        metrics, table = layer_metrics(tracer, len(traced_walls), traced_wall, wall_s)
        invariant_problems = invariants(tracer, items, len(traced_walls))
        spans_path = RESULTS_DIR / f"{workload}-seed{args.seed}.spans.npz"
        tracer.write(spans_path)
        result.update({"traced_passes": len(traced_walls), "traced_pass_wall_s": traced_walls,
                       "absent_layers": tracer.absent, "invariant_problems": invariant_problems,
                       "layers_per_pass": {k: {m: v / len(traced_walls) for m, v in row.items()}
                                           for k, row in table.items()},
                       "spans_file": spans_path.name, "spans": len(tracer.name)})
    else:
        if workload == "cli-mix":
            session.shares["cli.build_parser.share"] = parser_share(
                result["raw_latency"]["wall_s"], items)
        setup.batch(SETUP_PROBES)
        metrics = {
            "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "item_p50_ms": {"value": lat["item_p50_ms"], "unit": "ms"},
            "item_tail_ms": {"value": lat["item_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        result["setup_probe_s"] = setup.times

    failed = len(session.failures)
    fail_frac = failed / session.attempted
    correct = failed == 0 and not invariant_problems
    result.update({"metrics": metrics, "latency": lat, "shares": session.shares,
                   "attempted": session.attempted, "failed": failed, "fail_frac": fail_frac,
                   "failures": session.failures[:20], "correct": correct})
    out_path = RESULTS_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(walls)} untraced passes of {len(items)} items  ({out_path.relative_to(ROOT)})")
    for name, metric in metrics.items():
        note = ""
        if name == "item_tail_ms":
            note = (f"  p{lat['tail_percentile']:.2f} of {lat['items_per_pass']} items, "
                    f"{lat['tail_samples_beyond']} beyond")
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"  {'fail_frac':48s} {fail_frac:>14.6g} ratio  {failed} of {session.attempted} items")
    if not traced:
        for name, value in session.shares.items():
            print(f"  {name:48s} {value:>14.6g} ratio")
    for failure in session.failures[:5]:
        print(f"  FAILED {failure['item']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    for problem in invariant_problems[:5]:
        print(f"  INVARIANT {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
