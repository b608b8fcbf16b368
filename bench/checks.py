"""Output checks behind fail_frac.

Golden items are compared with the outputs recorded at the reference commit
(``golden/<workload>.json.gz``). Floats use a relative tolerance of 1e-9:
loose enough for last-digit differences between math.exp and np.exp, tight
enough that a search losing more than 1e-9 of the optimum fails. Arg-max
locations (the b of the attack, an optimal mu) sit on flat maxima, where a
1-ulp change of the objective moves the location by about 1e-8, so they
get 1e-6. Strings, flags, booleans, integers and exit codes compare exactly.

``simulate`` items are not compared with recorded counts, so a different
sampler can land: their counts must repeat exactly within a run for the
same seed and lie within 5 sigma of the closed-form conclusive rate and
QBER of the detection model.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

REL = 1e-9
# field -> (relative, absolute) tolerance; absolute terms cover values that
# cancel to nearly zero (rates at the clamp, operator residuals).
TOLERANCE = {
    "r_sec_hz": (REL, 1e-6),
    "r_sec_per_pulse": (REL, 1e-13),
    "per_pulse": (REL, 1e-13),
    "completeness_residual": (0.0, 1e-10),
    "min_eigenvalue": (0.0, 1e-10),
}
ARGMAX_FIELDS = {"b", "a", "eps_s_sq", "eps_f_sq", "mu_opt", "mu_at"}
ARGMAX_TOLERANCE = (1e-6, 1e-9)
DEFAULT_TOLERANCE = (REL, 1e-13)

# Detection model of the reference receiver (CLI defaults), written out here
# so the check shares no code with the simulator or the rate formulas.
ETA, P_DC, P_OPT, FIBER_LOSS_DB_KM = 0.2, 2e-5, 0.02, 0.2
SIGMAS = 5.0


def load_golden(workload: str) -> dict:
    with gzip.open(GOLDEN_DIR / f"{workload}.json.gz", "rt") as fh:
        return json.load(fh)["outputs"]


def save_golden(workload: str, outputs: dict, record: dict) -> Path:
    path = GOLDEN_DIR / f"{workload}.json.gz"
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", compresslevel=9) as fh:
        json.dump({"workload": workload, "record": record, "outputs": outputs}, fh,
                  sort_keys=True, separators=(",", ":"))
    return path


def compare(expected, actual, name: str = "") -> list[str]:
    """Differences between a recorded and a measured output, as messages."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{name}: fields {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in compare(expected[k], actual[k], k)]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{name}: {len(actual)} entries != {len(expected)}"]
        return [m for e, a in zip(expected, actual) for m in compare(e, a, name)]
    if (isinstance(expected, float) and isinstance(actual, (int, float))
            and not isinstance(actual, bool)):
        if math.isnan(expected) or math.isnan(actual) or math.isinf(expected):
            same = (math.isnan(expected) and math.isnan(actual)) or expected == actual
            return [] if same else [f"{name}: {actual!r} != {expected!r}"]
        rel, abs_ = ARGMAX_TOLERANCE if name in ARGMAX_FIELDS else TOLERANCE.get(
            name, DEFAULT_TOLERANCE)
        if abs(actual - expected) <= rel * max(abs(actual), abs(expected)) + abs_:
            return []
        return [f"{name}: {actual!r} != {expected!r} (rel {rel:g}, abs {abs_:g})"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{name}: {actual!r} != {expected!r}"]
    return []


def simulate_expectation(mu: float, length_km: float) -> tuple[float, float]:
    """(conclusive probability per pulse, QBER) of the pulse-level model.

    A signal click has probability c = 1 - exp(-2*eta*mu') and lands on the
    wrong detector with probability p_opt; each detector also fires a dark
    count with probability d; a pulse is conclusive when exactly one
    detector fires. Soft filtering forwards mu'(1 +/- delta) with weights
    that keep the mean of c unchanged, and c enters linearly, so the same
    values hold under all three attacks.
    """
    mu_prime = mu * 10.0 ** (-FIBER_LOSS_DB_KM * length_km / 10.0)
    c = -math.expm1(-2.0 * ETA * mu_prime)
    d = P_DC
    conclusive = (1.0 - c) * 2.0 * d * (1.0 - d) + c * (1.0 - d)
    errors = (1.0 - c) * d * (1.0 - d) + c * P_OPT * (1.0 - d)
    return conclusive, errors / conclusive


def _within(count: int, trials: int, p: float) -> bool:
    return abs(count - trials * p) <= SIGMAS * math.sqrt(trials * p * (1.0 - p))


def check_simulate(item, norm: dict, seen: dict) -> list[str]:
    if norm.get("exit") != 0:
        return [f"exit code {norm.get('exit')} != 0"]
    (row,) = norm["rows"]
    params = item.params
    problems = [f"{k}: {row[k]!r} != {params[k]!r}" for k in ("n_pulses", "seed", "attack")
                if row[k] != params[k]]
    counts = (row["conclusive_count"], row["error_count"])
    first = seen.setdefault(item.key, counts)
    if counts != first:
        problems.append(f"counts {counts} differ from {first} for the same seed")
    p_conclusive, qber = simulate_expectation(params["mu"], params["length_km"])
    n = row["n_pulses"]
    if not _within(counts[0], n, p_conclusive):
        problems.append(f"conclusive {counts[0]} of {n} vs p={p_conclusive:.6g}")
    if counts[0] and not _within(counts[1], counts[0], qber):
        problems.append(f"errors {counts[1]} of {counts[0]} vs qber={qber:.6g}")
    if counts[0] and abs(row["qber_hat"] - counts[1] / counts[0]) > 1e-9:
        problems.append("qber_hat inconsistent with the counts")
    if abs(row["rate_hat"] - counts[0] / n) > 1e-9:
        problems.append("rate_hat inconsistent with the counts")
    return problems


def check_item(item, norm: dict, golden: dict, seen: dict) -> list[str]:
    if item.check == "simulate":
        return check_simulate(item, norm, seen)
    if item.check == "exit1":
        problems = [] if norm.get("exit") == 1 else [f"exit code {norm.get('exit')} != 1"]
        if norm.get("stdout_chars"):
            problems.append("rejected input wrote to stdout")
        return problems
    if item.key not in golden:
        return ["no recorded output for this item"]
    return compare(golden[item.key], norm)
