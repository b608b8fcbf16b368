"""Monte-Carlo oracle for the SR detection model.

Samples the same stochastic model the closed-form QBER and acceptance-rate
expressions average over: a conclusive signal click with probability
1 - exp(-2*eta*mu'), landing on the wrong detector with probability p_opt,
plus an independent dark count on each of the two detectors. It exists to
cross-check those closed forms and the rate-preservation property of the
soft-filtering attack by sampling, so it deliberately shares no code with
them beyond the channel attenuation.

The four events of a pulse are independent Bernoulli draws, so the counts
of n pulses over their 16 joint patterns are one multinomial draw, and a
run costs about the same whatever n is. One seeded stream makes every
draw in a fixed order: the soft-filter branch split (binomial), one
multinomial per branch, and last the random-bit coin of the double clicks
(binomial), so both double-click policies share every earlier draw at the
same seed and results are bit-reproducible for a given (seed, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Optional

from .attack import AttackPoint
from .physics import DetectorConfig, SetupConfig, derive_channel

# NumPy's binomial and multinomial take the pulse count as an int64.
_MAX_PULSES = 2**63 - 1
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class AttackKind(str, Enum):
    NONE = "none"
    BEAM_SPLIT = "beam-split"
    SOFT_FILTER = "soft-filter"


class DoubleClickPolicy(str, Enum):
    DISCARD = "discard"
    RANDOM_BIT = "random-bit"


@dataclass(frozen=True)
class SimConfig:
    n_pulses: int
    seed: int
    attack: AttackKind = AttackKind.NONE
    attack_point: Optional[AttackPoint] = None
    double_click: DoubleClickPolicy = DoubleClickPolicy.DISCARD

    def __post_init__(self):
        if not 1 <= self.n_pulses <= _MAX_PULSES:
            raise ValueError(f"n_pulses must be in [1, {_MAX_PULSES}], got {self.n_pulses}")
        object.__setattr__(self, "attack", AttackKind(self.attack))
        object.__setattr__(self, "double_click", DoubleClickPolicy(self.double_click))
        if (self.attack is AttackKind.SOFT_FILTER) != (self.attack_point is not None):
            raise ValueError("attack_point is required for soft-filter and only then")


@dataclass(frozen=True)
class SimResult:
    n_pulses: int
    conclusive_count: int
    error_count: int
    qber_hat: float
    rate_hat: float
    qber_ci: tuple[float, float]
    rate_ci: tuple[float, float]

    def __post_init__(self):
        if not 0 <= self.error_count <= self.conclusive_count <= self.n_pulses:
            raise ValueError("need error_count <= conclusive_count <= n_pulses")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    z = _Z95
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


# A pulse's four independent events, in the bit order of a pattern number
# 0..15: signal click, optical error, dark count on the correct detector,
# dark count on the wrong one. The tables are built without NumPy, which
# only simulate() imports.
_EVENTS = [tuple(bool(pattern >> k & 1) for k in range(4)) for pattern in range(16)]


def _outcome(sig: bool, wrong: bool, dark_correct: bool,
             dark_wrong: bool) -> tuple[bool, bool, bool]:
    """(single click, single click on the wrong detector, double click)."""
    sig_wrong = sig & wrong
    click_correct = (sig & (not sig_wrong)) | dark_correct
    click_wrong = sig_wrong | dark_wrong
    single = click_correct ^ click_wrong
    return single, single & click_wrong, click_correct & click_wrong


# For each of the three outcomes, which patterns produce it.
_OUTCOMES = tuple(zip(*(_outcome(*events) for events in _EVENTS)))


def _sample_branch(rng, n: int, intensity: float,
                   detector: DetectorConfig) -> tuple[int, ...]:
    """Sample n pulses at one intensity; returns (singles, single errors, doubles)."""
    p_click = -math.expm1(-2.0 * detector.eta * max(intensity, 0.0))
    p_events = (p_click, detector.p_opt, detector.p_dc, detector.p_dc)
    probabilities = [math.prod(p if hit else 1.0 - p for hit, p in zip(events, p_events))
                     for events in _EVENTS]
    counts = rng.multinomial(n, probabilities).tolist()
    return tuple(sum(compress(counts, outcome)) for outcome in _OUTCOMES)


def simulate(setup: SetupConfig, detector: DetectorConfig, config: SimConfig) -> SimResult:
    """Run the Monte-Carlo model and aggregate counts with Wilson intervals."""
    import numpy as np

    channel = derive_channel(setup, detector)
    rng = np.random.default_rng(config.seed)
    n = config.n_pulses
    if config.attack is AttackKind.SOFT_FILTER:
        point = config.attack_point
        n_success = int(rng.binomial(n, point.p))
        branches = ((n_success, point.beta_s_sq), (n - n_success, point.beta_f_sq))
    else:
        # Beam splitting forwards exactly mu' as well; Bob sees no difference.
        branches = ((n, channel.mu_prime),)

    conclusive, errors, doubles = map(sum, zip(
        *(_sample_branch(rng, size, intensity, detector) for size, intensity in branches)))
    if config.double_click is DoubleClickPolicy.RANDOM_BIT:
        conclusive += doubles
        errors += int(rng.binomial(doubles, 0.5))

    qber_hat = errors / conclusive if conclusive else 0.0
    return SimResult(
        n_pulses=n,
        conclusive_count=conclusive,
        error_count=errors,
        qber_hat=qber_hat,
        rate_hat=conclusive / n,
        qber_ci=wilson_interval(errors, conclusive),
        rate_ci=wilson_interval(conclusive, n),
    )
