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
from typing import Callable

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
    """Result of maximizing Eve's information over the attenuation b.

    channel is the setup's derived channel the attack was solved for: the
    rate of the point (``rates.sr_secret_rate``) and its grey flag (from
    ``channel.delta``) read it, so a rated point derives its channel once.
    """

    best: AttackPoint
    b_min: float
    b_max: float
    channel: ChannelDerived
    interval_empty: bool = False


def _expm1(x: float) -> float:
    """math.expm1, with +inf where it would overflow."""
    return math.expm1(x) if x <= MAX_EXP_ARG else math.inf


def _b_bounds(mu: float, eta: float, channel: ChannelDerived) -> tuple[float, float]:
    """Feasible attenuation interval (b_min, b_max).

    The lower bound combines solvability of the unitarity constraint with
    Eve's fail-branch forwarding limit beta_f^2 < b*mu (and b >= 0, which
    the closed forms can violate once delta > 1). The upper bound enforces
    beta_s^2 < a*mu and b <= 1; for mu > mu'*(1+delta) the closed form
    exceeds 1 and the unitarity limit b_max = 1 applies. An empty interval
    (b_min >= b_max) means the attack degenerates to beam splitting.
    """
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


# Every b-independent term of one setup's attack: the derived channel (mu',
# delta and Bob's conclusive probability), the b-interval,
# q = exp(-2*eta*mu'*delta), p = 1/(1 + q), the intensities mu_max and
# mu_min = mu'(1 +/- delta) forwarded on success and fail (mu_min < 0 once
# delta > 1), and the click weights success = p*w_s and fail = (1-p)*w_f,
# so that success*chi is p*w_s*chi bit for bit.
_Terms = namedtuple("_Terms", "mu channel b_min b_max q p mu_max mu_min success fail")


def _terms(mu: float, eta: float, channel: ChannelDerived) -> _Terms:
    mu_prime, delta = channel.mu_prime, channel.delta
    b_min, b_max = _b_bounds(mu, eta, channel)
    q = math.exp(-2.0 * eta * mu_prime * delta)
    p = 1.0 / (1.0 + q)
    mu_max, mu_min = mu_prime * (1.0 + delta), mu_prime * (1.0 - delta)
    # w_f = -expm1(x_f) overflows only where p rounds to 1: 1 - p is 0 there.
    x_f = -2.0 * eta * mu_min
    fail = 0.0 if x_f > MAX_EXP_ARG else (1.0 - p) * -math.expm1(x_f)
    return _Terms(mu, channel, b_min, b_max, q, p, mu_max, mu_min,
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
        if terms.channel.conclusive <= 0.0:
            return np.where(valid, 0.0, -np.inf)

        info = (terms.success * _chi_curve(np.where(valid, np.clip(eps_s, 0.0, None), 0.0))
                + terms.fail * _chi_curve(np.where(valid, np.clip(eps_f, 0.0, None), 0.0))
                ) / terms.channel.conclusive
        return np.where(valid, np.clip(info, 0.0, 1.0), -np.inf)


def _objective(terms: _Terms) -> Callable[[float], float]:
    """Eve's information I_E(b) for one setup: the scalar twin of :func:`_information_curve`.

    Same formula, clamps and feasibility test, and ``a`` is the unitarity
    solution 1 - log(1 - q*expm1(2*mu*(1 - b)))/(2*mu), so a finite value
    means the point at b has one. It scores every single b: each Brent
    step, every candidate the maximizer can return, and
    :func:`attack_point`, which so reproduces the maximizer's optimum.
    The terms' b-independent floats and ``math.expm1``/``math.log`` are
    bound once per setup, and each branch's ``holevo_chi(max(eps, 0.0))``
    is written out inline, bit for bit: an evaluation makes no Python call.
    """
    mu, q, mu_max, mu_min = terms.mu, terms.q, terms.mu_max, terms.mu_min
    conclusive, success, fail = terms.channel.conclusive, terms.success, terms.fail
    expm1, log, inf, eps_floor, ln2 = math.expm1, math.log, math.inf, -_EPS_CLAMP, _LN2

    def information(b: float) -> float:
        try:
            log_arg = 1.0 - q * expm1(2.0 * mu * (1.0 - b))
        except OverflowError:
            # _expm1 would give +inf: an infeasible b. Inline, to spare the
            # hot path a call.
            return -inf
        if not log_arg > 0.0:
            return -inf
        a = 1.0 - log(log_arg) / (2.0 * mu)

        eps_s = a * mu - mu_max
        eps_f = b * mu - mu_min
        if not (eps_s >= eps_floor and eps_f >= eps_floor):
            return -inf
        if conclusive <= 0.0:
            return 0.0

        # chi = H(x), x = (1 - exp(-2*eps))/2, clamped to [0, 1], for the
        # success branch, then the fail branch. Where chi is 0 a branch is
        # skipped: adding weight * 0.0 would not move info.
        info = 0.0
        if not eps_s < inf:
            raise ValueError(f"intensity must be finite and >= 0, got {eps_s}")
        x = -expm1(-2.0 * eps_s) / 2.0 if eps_s > 0.0 else 0.0
        if 0.0 < x < 1.0:
            h = -(x * log(x) + (1.0 - x) * log(1.0 - x)) / ln2
            info += success * (0.0 if h < 0.0 else 1.0 if h > 1.0 else h)
        if not eps_f < inf:
            raise ValueError(f"intensity must be finite and >= 0, got {eps_f}")
        x = -expm1(-2.0 * eps_f) / 2.0 if eps_f > 0.0 else 0.0
        if 0.0 < x < 1.0:
            h = -(x * log(x) + (1.0 - x) * log(1.0 - x)) / ln2
            info += fail * (0.0 if h < 0.0 else 1.0 if h > 1.0 else h)
        info /= conclusive
        return 0.0 if info < 0.0 else 1.0 if info > 1.0 else info

    return information


def beam_splitting_information(mu: float, mu_prime: float) -> float:
    """Information from plain beam splitting: the Holevo quantity of the tapped light."""
    return holevo_chi(max(mu - mu_prime, 0.0))


def attack_point(b: float, setup: SetupConfig, detector: DetectorConfig) -> AttackPoint:
    """The full parameter set (p, a, intensities, information I_E in bits) at b."""
    terms = _setup_terms(setup, detector)
    if not terms.b_min - 1e-12 <= b <= terms.b_max + 1e-12:
        raise ValueError(f"b={b} outside feasible interval [{terms.b_min}, {terms.b_max}]")
    i_e = _objective(terms)(b)
    if not math.isfinite(i_e):
        raise ValueError(f"b={b} infeasible: unitarity has no solution with a >= 1")
    return _filtering_point(b, i_e, terms)


def _filtering_point(b: float, i_e: float, terms: _Terms) -> AttackPoint:
    # a solves unitarity at b, as in _objective; a feasible b keeps the log finite.
    a = 1.0 - math.log(1.0 - terms.q * _expm1(2.0 * terms.mu * (1.0 - b))) / (2.0 * terms.mu)
    return AttackPoint(
        b=b, p=terms.p, a=a,
        beta_s_sq=terms.mu_max, beta_f_sq=terms.mu_min,
        eps_s_sq=a * terms.mu - terms.mu_max, eps_f_sq=b * terms.mu - terms.mu_min,
        i_e=i_e,
    )


def _beam_splitting_point(i_e: float, terms: _Terms) -> AttackPoint:
    # b = a = 1: no filtering; Eve taps mu - mu' from every pulse.
    mu_prime = terms.channel.mu_prime
    tap = terms.mu - mu_prime
    return AttackPoint(
        b=1.0, p=terms.p, a=1.0,
        beta_s_sq=mu_prime, beta_f_sq=mu_prime, eps_s_sq=tap, eps_f_sq=tap, i_e=i_e,
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
    curve = _information_curve(bs, terms)
    return list(zip(bs.tolist(), np.where(np.isfinite(curve), curve, np.nan).tolist()))


def edge_information(setup: SetupConfig,
                     detector: DetectorConfig) -> tuple[float, ChannelDerived]:
    """A lower bound on Eve's optimum from the two edges of the b-interval.

    :func:`maximize_eve_information` scores both edges before its search and
    never returns less than the better one, so that value bounds its I_E
    from below bit for bit, at 2 evaluations of the objective instead of
    about 24. With both edges infeasible the bound is 0.0 (every I_E is at
    least 0); an empty interval gives the beam-splitting information, which
    is the optimum itself. Returns (bound, channel): the setup's derived
    channel comes with it, so a rate built on the bound
    (``rates.sr_secret_rate``) derives none of its own.
    """
    terms = _setup_terms(setup, detector)
    if not terms.b_min < terms.b_max:
        return beam_splitting_information(terms.mu, terms.channel.mu_prime), terms.channel
    information = _objective(terms)
    i_e = max(information(terms.b_min), information(terms.b_max))
    return (i_e if i_e > -math.inf else 0.0), terms.channel


def maximize_eve_information(setup: SetupConfig, detector: DetectorConfig) -> AttackSolution:
    """Maximize Eve's information over the feasible attenuation interval.

    Both edges scored, then one Brent search over the whole interval
    (:func:`~srqkd.optimize.grid_then_golden_max` on the two-point grid
    (b_min, b_max)), so that endpoint optima are returned exactly, and an
    optimum between two infeasible edges is still found. Every candidate is
    scored by the scalar objective, whose feasibility test is the one the
    returned point's ``a`` passes. Ties (an I_E = 1 plateau) go to
    b_min, then b_max, then the search's point: an edge on the plateau is
    returned whatever path the search took.
    """
    terms = _setup_terms(setup, detector)
    b_best, i_best = (grid_then_golden_max(_objective(terms), (terms.b_min, terms.b_max))
                      if terms.b_min < terms.b_max else (1.0, -math.inf))
    empty = i_best == -math.inf
    best = (_beam_splitting_point(
                beam_splitting_information(terms.mu, terms.channel.mu_prime), terms)
            if empty else _filtering_point(b_best, i_best, terms))
    return AttackSolution(best=best, b_min=terms.b_min, b_max=terms.b_max,
                          channel=terms.channel, interval_empty=empty)
