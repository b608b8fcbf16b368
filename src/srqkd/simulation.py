"""Pulse-level Monte-Carlo oracle for the SR detection model.

Samples the same stochastic model the closed-form QBER and acceptance-rate
expressions average over: a conclusive signal click with probability
1 - exp(-2*eta*mu'), landing on the wrong detector with probability p_opt,
plus an independent dark count on each of the two detectors. It exists to
cross-check those closed forms and the rate-preservation property of the
soft-filtering attack by sampling, so it deliberately shares no code with
them beyond the channel attenuation.

Pulses are processed in fixed-size blocks, each with its own child stream
spawned from the master seed; counts are merged in block order, so results
are bit-reproducible for a given (seed, config) regardless of how the
blocks would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .attack import AttackPoint
from .physics import DetectorConfig, SetupConfig, derive_channel

BLOCK_SIZE = 1_000_000
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
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses}")
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


def _sample_block(rng: np.random.Generator, n: int, eta: float, mu_prime: float,
                  detector: DetectorConfig, config: SimConfig) -> tuple[int, int]:
    """Sample one block of pulses; returns (conclusive, errors)."""
    if config.attack is AttackKind.SOFT_FILTER:
        point = config.attack_point
        success = rng.random(n) < point.p
        intensity = np.where(success, point.beta_s_sq, point.beta_f_sq)
    else:
        # Beam splitting forwards exactly mu' as well; Bob sees no difference.
        intensity = np.full(n, mu_prime)
    p_click = -np.expm1(-2.0 * eta * np.clip(intensity, 0.0, None))

    sig = rng.random(n) < p_click
    sig_wrong = sig & (rng.random(n) < detector.p_opt)
    dark_correct = rng.random(n) < detector.p_dc
    dark_wrong = rng.random(n) < detector.p_dc

    click_correct = (sig & ~sig_wrong) | dark_correct
    click_wrong = sig_wrong | dark_wrong
    double = click_correct & click_wrong
    single = click_correct ^ click_wrong

    conclusive = single.copy()
    errors = single & click_wrong
    if config.double_click is DoubleClickPolicy.RANDOM_BIT:
        conclusive |= double
        errors |= double & (rng.random(n) < 0.5)
    return int(np.count_nonzero(conclusive)), int(np.count_nonzero(errors))


def simulate(setup: SetupConfig, detector: DetectorConfig, config: SimConfig) -> SimResult:
    """Run the Monte-Carlo model and aggregate counts with Wilson intervals."""
    channel = derive_channel(setup, detector)
    n_blocks = -(-config.n_pulses // BLOCK_SIZE)
    streams = np.random.SeedSequence(config.seed).spawn(n_blocks)

    conclusive = 0
    errors = 0
    remaining = config.n_pulses
    for child in streams:
        n = min(BLOCK_SIZE, remaining)
        c, e = _sample_block(np.random.default_rng(child), n, detector.eta,
                             channel.mu_prime, detector, config)
        conclusive += c
        errors += e
        remaining -= n

    qber_hat = errors / conclusive if conclusive else 0.0
    return SimResult(
        n_pulses=config.n_pulses,
        conclusive_count=conclusive,
        error_count=errors,
        qber_hat=qber_hat,
        rate_hat=conclusive / config.n_pulses,
        qber_ci=wilson_interval(errors, conclusive),
        rate_ci=wilson_interval(conclusive, config.n_pulses),
    )
