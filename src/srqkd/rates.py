"""Secret-key rates for the SR protocols and the BB84 baselines.

Pure rate assembly from scalar formulas. The strong-reference protocols
use R_sec = R_raw*(I_AB - I_E), with the eavesdropper information I_E
supplied by the caller (``sweeps.secret_rate`` takes it from the
soft-filtering maximization). The BB84 baselines use the GLLP rate

    R = (1/2)*f*{Q1*[1 - H(E1)] - Q_mu*f_ec*H(E_mu)},

with (Q1, E1) replaced by a lower/upper bound pair: the photon-number-
splitting bound for standard BB84, or two-decoy experimental bounds for
the decoy variant (times the signal emission probability p_mu). All rates
are clamped at zero; the unclamped value is kept for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .physics import (
    MAX_EXP_ARG,
    DetectorConfig,
    Protocol,
    SetupConfig,
    binary_entropy,
    derive_channel,
    transmittance,
)

_TOL = 1e-9


@dataclass(frozen=True)
class RateBreakdown:
    """Secret-rate decomposition R_sec = R_raw*(i_ab - i_e), clamped at 0.

    r_raw and r_sec are absolute rates in Hz; per_pulse is r_sec divided by
    the pulse repetition frequency. For the BB84 baselines i_e is the
    fraction of each sifted bit conceded to the eavesdropper under the
    bounds in use, defined so that the decomposition identity still holds.
    """

    r_raw: float
    qber: float
    i_ab: float
    i_e: float
    r_sec: float
    per_pulse: float
    r_sec_unclamped: float

    def __post_init__(self):
        if math.copysign(1.0, self.r_sec) < 0.0:
            raise ValueError("r_sec must be clamped at 0 (+0.0)")
        if self.r_sec > self.r_raw * (1.0 + _TOL) + _TOL:
            raise ValueError("r_sec cannot exceed r_raw")
        if (self.r_sec == 0.0) != (self.i_ab <= self.i_e or self.r_raw == 0.0):
            raise ValueError("r_sec must vanish exactly when i_ab <= i_e")


@dataclass(frozen=True)
class DecoyConfig:
    """Two-decoy intensities as ratios of the signal mu; defaults give nu2:nu1:mu = 1:25:100."""

    nu1_ratio: float = 0.25
    nu2_ratio: float = 0.01
    p_mu: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.nu2_ratio < self.nu1_ratio:
            raise ValueError("ratios must satisfy 0 <= nu2_ratio < nu1_ratio")
        if self.nu1_ratio + self.nu2_ratio >= 1.0:
            raise ValueError("need nu1_ratio + nu2_ratio < 1")
        if not 0.0 < self.p_mu <= 1.0:
            raise ValueError(f"p_mu must be in (0, 1], got {self.p_mu}")


@dataclass(frozen=True)
class Bb84Yields:
    """Gains/errors entering the GLLP formula, already clamped to range."""

    q_mu: float
    e_mu: float
    y0: float
    q1_lower: float
    e1_upper: float

    def __post_init__(self):
        if not 0.0 <= self.q1_lower <= self.q_mu * (1.0 + _TOL):
            raise ValueError("need 0 <= q1_lower <= q_mu")
        if not 0.0 <= self.e1_upper <= 0.5:
            raise ValueError("e1_upper must lie in [0, 0.5] after clamping")
        if self.y0 < 0.0:
            raise ValueError("y0 must be >= 0")


def _breakdown(r_raw: float, qber: float, i_ab: float, i_e: float,
               pulse_rate_hz: float) -> RateBreakdown:
    unclamped = r_raw * (i_ab - i_e)
    # 0 * (i_ab - i_e) can be -0.0, which max(-0.0, 0.0) would keep.
    r_sec = unclamped if unclamped > 0.0 else 0.0
    return RateBreakdown(
        r_raw=r_raw, qber=qber, i_ab=i_ab, i_e=i_e,
        r_sec=r_sec, per_pulse=r_sec / pulse_rate_hz, r_sec_unclamped=unclamped,
    )


def sr_secret_rate(setup: SetupConfig, detector: DetectorConfig,
                   i_e: float) -> RateBreakdown:
    """Secret rate of a strong-reference protocol given Eve's information i_e.

    i_e is bits per conclusive bit: the attack maximum for the secure rate,
    0 for the no-attack limit, 1 for a fully compromised key.
    """
    if not setup.protocol.uses_reference_pulse:
        raise ValueError(f"sr_secret_rate needs an SR protocol, got {setup.protocol.value}")
    channel = derive_channel(setup, detector)
    conclusive = -math.expm1(-2.0 * detector.eta * channel.mu_prime)
    r_raw = setup.protocol.sifting_factor * setup.pulse_rate_hz * conclusive
    i_ab = 1.0 - detector.f_ec * binary_entropy(channel.qber)
    return _breakdown(r_raw, channel.qber, i_ab, i_e, setup.pulse_rate_hz)


def bb84_gain_error(intensity: float, detector: DetectorConfig,
                    length_km: float) -> tuple[float, float]:
    """No-eavesdropping model (Q, E) for one BB84 intensity.

    Q = Y0 + 1 - exp(-eta*mu*T), E = (Y0/2 + p_opt*(1 - exp(-eta*mu*T)))/Q
    with Y0 = 2*p_dc. A vacuum pulse clicks only through dark counts and
    carries a random bit, hence E = 1/2.
    """
    if not 0 <= intensity < math.inf:
        raise ValueError(f"intensity must be finite and >= 0, got {intensity}")
    y0 = 2.0 * detector.p_dc
    detected = -math.expm1(-detector.eta * intensity * transmittance(length_km))
    q = y0 + detected
    if q <= 0.0:
        return 0.0, 0.5
    e = (0.5 * y0 + detector.p_opt * detected) / q
    return q, e


def bb84_pns_bounds(setup: SetupConfig, detector: DetectorConfig) -> Bb84Yields:
    """Single-photon bounds for standard BB84 under photon-number splitting.

    Eve blocks single-photon pulses and forwards one photon less from every
    multi-photon pulse over a lossless line, so the surviving photons see
    only the detector efficiency eta:

        Q1 >= Q_mu - 1 + (exp(-eta*mu) - eta*exp(-mu))/(1 - eta).

    A non-positive bound (long distance) floors at 0 and kills the rate.
    """
    if not 0.0 < detector.eta < 1.0:
        raise ValueError("photon-number-splitting bound requires 0 < eta < 1")
    mu, eta = setup.mu, detector.eta
    q_mu, e_mu = bb84_gain_error(mu, detector, setup.length_km)
    q1 = q_mu - 1.0 + (math.exp(-eta * mu) - eta * math.exp(-mu)) / (1.0 - eta)
    q1 = min(max(q1, 0.0), q_mu)
    e1 = min(q_mu * e_mu / q1, 0.5) if q1 > 0.0 else 0.5
    return Bb84Yields(q_mu=q_mu, e_mu=e_mu, y0=2.0 * detector.p_dc,
                      q1_lower=q1, e1_upper=e1)


def decoy_bounds(mu: float, decoy: DecoyConfig, detector: DetectorConfig,
                 length_km: float) -> Bb84Yields:
    """Two-decoy experimental bounds on (Y0, Q1, E1) at signal intensity mu.

    The decoys are decoy's ratios r1, r2 times mu. The observable gains/errors
    at the three intensities come from the no-eavesdropping model; the standard
    weak+vacuum decoy estimates are written in r1, r2, so no power of mu underflows.
    Past exp's range (mu > 709.78) the single-photon gain mu*exp(-mu) is below
    4e-306 and the estimates already clamp Q1 to 0: the trivial bounds
    Y0 = 0, Q1 = 0, E1 = 1/2 are returned.
    """
    r1, r2 = decoy.nu1_ratio, decoy.nu2_ratio
    nu1, nu2 = r1 * mu, r2 * mu
    q_mu, e_mu = bb84_gain_error(mu, detector, length_km)
    if mu > MAX_EXP_ARG:
        return Bb84Yields(q_mu=q_mu, e_mu=e_mu, y0=0.0, q1_lower=0.0, e1_upper=0.5)
    q_n1, e_n1 = bb84_gain_error(nu1, detector, length_km)
    q_n2, e_n2 = bb84_gain_error(nu2, detector, length_km)

    y0 = max((r1 * q_n2 * math.exp(nu2) - r2 * q_n1 * math.exp(nu1)) / (r1 - r2), 0.0)
    q1 = (math.exp(-mu) / ((r1 - r2) * (1.0 - r1 - r2))) * (
        q_n1 * math.exp(nu1) - q_n2 * math.exp(nu2)
        - (r1 ** 2 - r2 ** 2) * (q_mu * math.exp(mu) - y0)
    )
    q1 = min(max(q1, 0.0), q_mu)
    if q1 > 0.0:
        e1 = ((e_n1 * q_n1 * math.exp(nu1) - e_n2 * q_n2 * math.exp(nu2))
              * math.exp(-mu) / ((r1 - r2) * q1))
        e1 = min(max(e1, 0.0), 0.5)
    else:
        e1 = 0.5
    return Bb84Yields(q_mu=q_mu, e_mu=e_mu, y0=y0, q1_lower=q1, e1_upper=e1)


def bb84_secret_rate(setup: SetupConfig, detector: DetectorConfig,
                     decoy: DecoyConfig = DecoyConfig()) -> RateBreakdown:
    """GLLP secret rate for a BB84 baseline (standard or decoy-state).

    The decomposition fields are defined so r_sec = r_raw*(i_ab - i_e)
    holds exactly: r_raw = (1/2)*f*p_mu*Q_mu (p_mu = 1 for standard BB84),
    i_ab = 1 - f_ec*H(E_mu), and i_e = 1 - (Q1/Q_mu)*(1 - H(E1)) is the
    sifted-bit fraction conceded under the single-photon bounds. Standard
    BB84 ignores decoy.
    """
    if setup.protocol is Protocol.BB84_STANDARD:
        yields = bb84_pns_bounds(setup, detector)
        p_mu = 1.0
    elif setup.protocol is Protocol.BB84_DECOY:
        yields = decoy_bounds(setup.mu, decoy, detector, setup.length_km)
        p_mu = decoy.p_mu
    else:
        raise ValueError(f"bb84_secret_rate needs a BB84 baseline, got {setup.protocol.value}")

    r_raw = 0.5 * setup.pulse_rate_hz * p_mu * yields.q_mu
    i_ab = 1.0 - detector.f_ec * binary_entropy(yields.e_mu)
    i_e = (1.0 - yields.q1_lower / yields.q_mu * (1.0 - binary_entropy(yields.e1_upper))
           if yields.q_mu > 0.0 else 1.0)
    return _breakdown(r_raw, yields.e_mu, i_ab, i_e, setup.pulse_rate_hz)
