"""Soft-filtering eavesdropper model and its information maximization.

Eve applies a probabilistic filtering unitary to each intercepted pulse:
with probability p the signal states become more distinguishable (intensity
amplified by a > 1), otherwise less (attenuated by b < 1). She then forwards
enough light to Bob over a lossless channel to keep his strong-pulse
monitor and his conclusive-click rate unchanged, and keeps the rest. The
operation interpolates between plain beam splitting (b -> 1) and
unambiguous state discrimination (b -> 0).

Two constraints pin p and a once b is chosen: unitarity of the filtering,

    p*exp(-2*a*mu) + (1-p)*exp(-2*b*mu) = exp(-2*mu),

and preservation of Bob's conclusive rate,

    p*(1-exp(-2*eta*bs)) + (1-p)*(1-exp(-2*eta*bf)) = 1-exp(-2*eta*mu'),

with the forwarded intensities bs/bf pinned to the edges mu'*(1 +/- delta)
of Bob's monitoring window. Eve's extractable information per conclusive
bit is the click-weighted Holevo quantity of her retained states, maximized
over the single free parameter b.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .optimize import grid_then_golden_max
from .physics import (
    MAX_EXP_ARG,
    ChannelDerived,
    DetectorConfig,
    SetupConfig,
    derive_channel,
    holevo_chi,
)

# Holevo arguments this far below zero are treated as rounding at an exact
# feasibility boundary; anything more negative means an infeasible b.
_EPS_CLAMP = 1e-12

# Points of the traced scan over the feasible interval.
SCAN_POINTS = 2000

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class AttackPoint:
    """One soft-filtering configuration and the information it yields.

    beta_*_sq are the intensities forwarded to Bob on success/fail,
    eps_*_sq the intensities Eve retains. In the nonphysical grey-monitoring
    regime (delta >= 1) beta_f_sq goes negative. The rows of ``SweepRow``
    and of the ``attack`` command flag every delta > GREY_REGION_DELTA as
    ``grey-region``; ``MuOptimum`` and ``DistancePoint`` carry no flags yet,
    so a mu optimum there can be such a point unflagged.
    """

    b: float
    p: float
    a: float
    beta_s_sq: float
    beta_f_sq: float
    eps_s_sq: float
    eps_f_sq: float
    i_e: float

    def __post_init__(self):
        # p rounds to 1 once 2*eta*mu'*delta exceeds about 37 (deep grey region).
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.b > 1.0 + 1e-12 or self.b < 0.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if self.a < 1.0 - 1e-12:
            raise ValueError(f"a must be >= 1, got {self.a}")
        if min(self.eps_s_sq, self.eps_f_sq) < -_EPS_CLAMP:
            raise ValueError("Eve's retained intensities must be non-negative")


@dataclass(frozen=True)
class AttackSolution:
    """Result of maximizing Eve's information over the attenuation b."""

    best: AttackPoint
    b_min: float
    b_max: float
    delta: float
    interval_empty: bool = False


def success_probability(eta: float, mu_prime: float, delta: float) -> float:
    """Filtering success probability p = 1/(1 + exp(-2*eta*mu'*delta))."""
    if not all(0 <= x < math.inf for x in (eta, mu_prime, delta)):
        raise ValueError(f"arguments must be finite and >= 0, got {(eta, mu_prime, delta)}")
    return 1.0 / (1.0 + math.exp(-2.0 * eta * mu_prime * delta))


def _expm1(x: float) -> float:
    """math.expm1, with +inf where it would overflow."""
    return math.expm1(x) if x <= MAX_EXP_ARG else math.inf


def amplification(b: float, mu: float, eta: float, mu_prime: float, delta: float) -> float:
    """Amplification coefficient a solving the unitarity constraint for given b."""
    log_arg = 1.0 - math.exp(-2.0 * eta * mu_prime * delta) * _expm1(2.0 * mu * (1.0 - b))
    if not log_arg > 0.0:
        raise ValueError(f"b={b} infeasible: unitarity has no solution with a >= 1")
    return 1.0 - math.log(log_arg) / (2.0 * mu)


def unitarity_residual(p: float, a: float, b: float, mu: float) -> float:
    """|p*exp(-2*a*mu) + (1-p)*exp(-2*b*mu) - exp(-2*mu)|."""
    if not all(map(math.isfinite, (p, a, b, mu))):
        raise ValueError(f"arguments must be finite, got {(p, a, b, mu)}")
    return abs(p * math.exp(-2.0 * a * mu) + (1.0 - p) * math.exp(-2.0 * b * mu)
               - math.exp(-2.0 * mu))


def rate_residual(p: float, beta_s_sq: float, beta_f_sq: float,
                  eta: float, mu_prime: float) -> float:
    """Deviation of Bob's conclusive-click rate under attack from the expected one."""
    args = (p, beta_s_sq, beta_f_sq, eta, mu_prime)
    if not all(map(math.isfinite, args)):
        raise ValueError(f"arguments must be finite, got {args}")
    under_attack = (p * -math.expm1(-2.0 * eta * beta_s_sq)
                    + (1.0 - p) * -math.expm1(-2.0 * eta * beta_f_sq))
    return abs(under_attack - -math.expm1(-2.0 * eta * mu_prime))


def b_interval(setup: SetupConfig, detector: DetectorConfig) -> tuple[float, float]:
    """Feasible attenuation interval (b_min, b_max).

    The lower bound combines solvability of the unitarity constraint with
    Eve's fail-branch forwarding limit beta_f^2 < b*mu (and b >= 0, which
    the closed forms can violate once delta > 1). The upper bound enforces
    beta_s^2 < a*mu and b <= 1; for mu > mu'*(1+delta) the closed form
    exceeds 1 and the unitarity limit b_max = 1 applies. An empty interval
    (b_min >= b_max) means the attack degenerates to beam splitting.
    """
    terms = _setup_terms(setup, detector)
    return terms.b_min, terms.b_max


def _b_bounds(mu: float, eta: float, channel: ChannelDerived) -> tuple[float, float]:
    mu_prime, delta = channel.mu_prime, channel.delta
    if delta == math.inf:
        raise ValueError(f"delta overflows at mu={mu}: it grows as 1/mu and with fiber loss")
    x = 2.0 * eta * mu_prime * delta
    c = _expm1(2.0 * (mu - mu_prime * (1.0 + delta)))
    if x <= MAX_EXP_ARG:
        log_lo = math.log1p(math.exp(x))
        log_arg = 1.0 - math.exp(x) * c
        log_hi = math.log(log_arg) if log_arg > 0.0 else None
    else:
        # Deep grey region, where exp(x) overflows: log(1 + e^z) rounds to z
        # for z this large, and 1 - e^x*c = 1 + e^(x + log(-c)) for c < 0.
        log_lo = x
        log_hi = x + math.log(-c) if c < 0.0 else None
    b_lo = max(1.0 - log_lo / (2.0 * mu), (1.0 - delta) * channel.transmittance, 0.0)
    b_hi = 1.0 if log_hi is None else min(1.0 - log_hi / (2.0 * mu), 1.0)
    return b_lo, b_hi


# Every b-independent term of one setup's attack: the b-interval, q =
# exp(-2*eta*mu'*delta), p = 1/(1 + q), the intensities mu_max and mu_min =
# mu'(1 +/- delta) forwarded on success and fail (mu_min < 0 once delta > 1),
# Bob's conclusive probability, and the click weights success = p*w_s and
# fail = (1-p)*w_f, so that success*chi is p*w_s*chi bit for bit.
_Terms = namedtuple("_Terms", "mu eta mu_prime delta b_min b_max q p mu_max mu_min "
                              "conclusive success fail")


def _terms(mu: float, eta: float, channel: ChannelDerived) -> _Terms:
    mu_prime, delta = channel.mu_prime, channel.delta
    b_min, b_max = _b_bounds(mu, eta, channel)
    q = math.exp(-2.0 * eta * mu_prime * delta)
    p = 1.0 / (1.0 + q)
    mu_max, mu_min = mu_prime * (1.0 + delta), mu_prime * (1.0 - delta)
    # w_f = -expm1(x_f) overflows only where p rounds to 1: 1 - p is 0 there.
    x_f = -2.0 * eta * mu_min
    fail = 0.0 if x_f > MAX_EXP_ARG else (1.0 - p) * -math.expm1(x_f)
    return _Terms(mu, eta, mu_prime, delta, b_min, b_max, q, p, mu_max, mu_min,
                  conclusive=-math.expm1(-2.0 * eta * mu_prime),
                  success=p * -math.expm1(-2.0 * eta * mu_max), fail=fail)


def _setup_terms(setup: SetupConfig, detector: DetectorConfig) -> _Terms:
    return _terms(setup.mu, detector.eta, derive_channel(setup, detector))


def _chi_curve(intensity):
    """holevo_chi of every lane: H((1 - exp(-2*intensity))/2), clipped to [0, 1]."""
    import numpy as np

    x = -np.expm1(-2.0 * intensity) / 2.0
    inner = (x > 0.0) & (x < 1.0)
    y = np.where(inner, x, 0.5)
    h = np.where(inner, -(y * np.log(y) + (1.0 - y) * np.log(1.0 - y)) / _LN2, 0.0)
    return np.clip(h, 0.0, 1.0)


def _information_curve(b, terms: _Terms):
    """Eve's information at each b of a traced scan; -inf marks infeasible points."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        b = np.atleast_1d(np.asarray(b, dtype=float))
        mu = terms.mu
        # Past MAX_EXP_ARG np.expm1 is +inf (as _expm1 is), q*inf nan: infeasible b.
        log_arg = 1.0 - terms.q * np.expm1(2.0 * mu * (1.0 - b))
        valid = log_arg > 0.0
        a = np.where(valid, 1.0 - np.log(np.where(valid, log_arg, 1.0)) / (2.0 * mu), np.nan)

        eps_s = a * mu - terms.mu_max
        eps_f = b * mu - terms.mu_min
        valid &= (eps_s >= -_EPS_CLAMP) & (eps_f >= -_EPS_CLAMP)
        if terms.conclusive <= 0.0:
            return np.where(valid, 0.0, -np.inf)

        info = (terms.success * _chi_curve(np.where(valid, np.clip(eps_s, 0.0, None), 0.0))
                + terms.fail * _chi_curve(np.where(valid, np.clip(eps_f, 0.0, None), 0.0))
                ) / terms.conclusive
        return np.where(valid, np.clip(info, 0.0, 1.0), -np.inf)


def _information(b: float, terms: _Terms) -> float:
    """Scalar twin of :func:`_information_curve`, written with ``math``.

    Same formula, clamps and feasibility test, and ``a`` comes from the
    expression :func:`amplification` uses, so a finite value here means
    ``amplification(b, ...)`` succeeds. It scores every single b: each
    Brent step, every candidate the maximizer can return, and
    :func:`attack_point`, which so reproduces the maximizer's optimum.
    Each branch's ``holevo_chi(max(eps, 0.0))`` is written out inline, bit
    for bit: the calls through ``binary_entropy`` cost about 40% of an
    evaluation.
    """
    mu = terms.mu
    try:
        log_arg = 1.0 - terms.q * math.expm1(2.0 * mu * (1.0 - b))
    except OverflowError:
        # _expm1 would give +inf: an infeasible b. Inline, to spare the hot
        # path a call.
        return -math.inf
    if not log_arg > 0.0:
        return -math.inf
    a = 1.0 - math.log(log_arg) / (2.0 * mu)

    eps_s = a * mu - terms.mu_max
    eps_f = b * mu - terms.mu_min
    if not (eps_s >= -_EPS_CLAMP and eps_f >= -_EPS_CLAMP):
        return -math.inf
    if terms.conclusive <= 0.0:
        return 0.0

    info = 0.0
    for weight, eps in ((terms.success, eps_s), (terms.fail, eps_f)):
        if not eps < math.inf:
            raise ValueError(f"intensity must be finite and >= 0, got {eps}")
        # chi = H(x), x = (1 - exp(-2*eps))/2, clamped to [0, 1]. Where chi
        # is 0 the branch is skipped: adding weight * 0.0 would not move info.
        x = -math.expm1(-2.0 * eps) / 2.0 if eps > 0.0 else 0.0
        if 0.0 < x < 1.0:
            h = -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / _LN2
            info += weight * (0.0 if h < 0.0 else 1.0 if h > 1.0 else h)
    info /= terms.conclusive
    return 0.0 if info < 0.0 else 1.0 if info > 1.0 else info


def beam_splitting_information(mu: float, mu_prime: float) -> float:
    """Information from plain beam splitting: the Holevo quantity of the tapped light."""
    return holevo_chi(max(mu - mu_prime, 0.0))


def attack_point(b: float, setup: SetupConfig, detector: DetectorConfig) -> AttackPoint:
    """The full parameter set (p, a, intensities, information I_E in bits) at b."""
    terms = _setup_terms(setup, detector)
    if not terms.b_min - 1e-12 <= b <= terms.b_max + 1e-12:
        raise ValueError(f"b={b} outside feasible interval [{terms.b_min}, {terms.b_max}]")
    i_e = _information(b, terms)
    if not math.isfinite(i_e):
        raise ValueError(f"b={b} infeasible: unitarity has no solution with a >= 1")
    return _filtering_point(b, i_e, terms)


def _filtering_point(b: float, i_e: float, terms: _Terms) -> AttackPoint:
    a = amplification(b, terms.mu, terms.eta, terms.mu_prime, terms.delta)
    return AttackPoint(
        b=b, p=terms.p, a=a,
        beta_s_sq=terms.mu_max, beta_f_sq=terms.mu_min,
        eps_s_sq=a * terms.mu - terms.mu_max, eps_f_sq=b * terms.mu - terms.mu_min,
        i_e=i_e,
    )


def _beam_splitting_point(terms: _Terms) -> AttackPoint:
    # b = a = 1: no filtering; Eve taps mu - mu' from every pulse.
    tap = terms.mu - terms.mu_prime
    return AttackPoint(
        b=1.0, p=terms.p, a=1.0,
        beta_s_sq=terms.mu_prime, beta_f_sq=terms.mu_prime, eps_s_sq=tap, eps_f_sq=tap,
        i_e=beam_splitting_information(terms.mu, terms.mu_prime),
    )


def scan_information(setup: SetupConfig,
                     detector: DetectorConfig) -> list[tuple[float, float]]:
    """(b, I_E) at SCAN_POINTS even steps over the feasible interval.

    I_E is nan where b is infeasible; an empty interval has no rows. The
    scan only draws the curve: :func:`maximize_eve_information` decides
    the optimum without it.
    """
    import numpy as np

    terms = _setup_terms(setup, detector)
    if terms.b_min >= terms.b_max:
        return []
    bs = np.linspace(terms.b_min, terms.b_max, SCAN_POINTS)
    return [(float(x), float(v) if math.isfinite(v) else math.nan)
            for x, v in zip(bs, _information_curve(bs, terms))]


def maximize_eve_information(setup: SetupConfig, detector: DetectorConfig) -> AttackSolution:
    """Maximize Eve's information over the feasible attenuation interval.

    Both edges scored, then one Brent search over the whole interval
    (:func:`~srqkd.optimize.grid_then_golden_max` on the two-point grid
    (b_min, b_max)), so that endpoint optima are returned exactly, and an
    optimum between two infeasible edges is still found. Every candidate is
    scored by the scalar objective, whose feasibility test matches
    :func:`amplification` bit for bit. Ties (an I_E = 1 plateau) go to
    b_min, then b_max, then the search's point: an edge on the plateau is
    returned whatever path the search took.
    """
    terms = _setup_terms(setup, detector)

    def information(b: float) -> float:
        return _information(b, terms)

    b_best, i_best = (grid_then_golden_max(information, (terms.b_min, terms.b_max))
                      if terms.b_min < terms.b_max else (1.0, -math.inf))
    empty = i_best == -math.inf
    best = _beam_splitting_point(terms) if empty else _filtering_point(b_best, i_best, terms)
    return AttackSolution(best=best, b_min=terms.b_min, b_max=terms.b_max,
                          delta=terms.delta, interval_empty=empty)
