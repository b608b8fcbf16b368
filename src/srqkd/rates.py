"""Secret-key rates for the SR protocols and the BB84 baselines.

Pure rate assembly from scalar formulas, per pulse: the pulse rate never
enters here. The strong-reference protocols use R_sec = R_raw*(I_AB - I_E),
with the eavesdropper information I_E supplied by the caller
(``sweeps.secret_rate`` takes it from the soft-filtering maximization).
The BB84 baselines use the GLLP rate

    R = (1/2)*{Q1*[1 - H(E1)] - Q_mu*f_ec*H(E_mu)},

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
    ChannelDerived,
    DetectorConfig,
    Protocol,
    SetupConfig,
    binary_entropy,
    transmittance,
)

_TOL = 1e-9


@dataclass(frozen=True)
class RateBreakdown:
    """Secret-rate decomposition per_pulse = raw*(i_ab - i_e), clamped at 0.

    Every rate is per pulse: raw is the raw key rate, unclamped the secret
    rate before the clamp. A rate in Hz is the per-pulse value times the
    pulse repetition frequency f, formed where an output record is built.
    For the BB84 baselines i_e is the fraction of each sifted bit conceded
    to the eavesdropper under the bounds in use, defined so that the
    decomposition identity still holds.
    """

    raw: float
    qber: float
    i_ab: float
    i_e: float
    per_pulse: float
    unclamped: float

    def __post_init__(self):
        if math.copysign(1.0, self.per_pulse) < 0.0:
            raise ValueError("per_pulse must be clamped at 0 (+0.0)")
        if self.per_pulse > self.raw * (1.0 + _TOL) + _TOL:
            raise ValueError("per_pulse cannot exceed raw")
        # Every comparison with a nan is False, so a nan is refused either way.
        if self.per_pulse > 0.0:
            consistent = self.i_ab > self.i_e and self.raw != 0.0 and self.unclamped > 0.0
        else:
            consistent = self.per_pulse == 0.0 and self.unclamped <= 0.0
        if not consistent:
            raise ValueError("per_pulse must vanish exactly when i_ab <= i_e")


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


def _breakdown(raw: float, qber: float, i_ab: float, i_e: float) -> RateBreakdown:
    unclamped = raw * (i_ab - i_e)
    # 0 * (i_ab - i_e) can be -0.0, which max(-0.0, 0.0) would keep.
    per_pulse = unclamped if unclamped > 0.0 else 0.0
    return RateBreakdown(raw=raw, qber=qber, i_ab=i_ab, i_e=i_e, per_pulse=per_pulse,
                         unclamped=unclamped)


def sr_secret_rate(protocol: Protocol, channel: ChannelDerived, detector: DetectorConfig,
                   i_e: float) -> RateBreakdown:
    """Secret rate of a strong-reference protocol given Eve's information i_e.

    channel is the setup's derived channel (``physics.derive_channel``), the
    one the attack behind i_e was solved for: ``AttackSolution.channel`` or
    the channel ``attack.edge_information`` returns with its bound. i_e is
    bits per conclusive bit: the attack maximum for the secure rate, 0 for
    the no-attack limit, 1 for a fully compromised key.
    """
    if not protocol.uses_reference_pulse:
        raise ValueError(f"sr_secret_rate needs an SR protocol, got {protocol.value}")
    raw = protocol.sifting_factor * channel.conclusive
    i_ab = 1.0 - detector.f_ec * binary_entropy(channel.qber)
    return _breakdown(raw, channel.qber, i_ab, i_e)


def _check_intensity(intensity: float) -> None:
    if not 0 <= intensity < math.inf:
        raise ValueError(f"intensity must be finite and >= 0, got {intensity}")


def _gain_error(intensity: float, detector: DetectorConfig,
                trans: float) -> tuple[float, float]:
    # bb84_gain_error at a checked intensity and the fiber's transmittance.
    y0 = 2.0 * detector.p_dc
    detected = -math.expm1(-detector.eta * intensity * trans)
    q = y0 + detected
    if q <= 0.0:
        return 0.0, 0.5
    e = (0.5 * y0 + detector.p_opt * detected) / q
    return q, e


def bb84_gain_error(intensity: float, detector: DetectorConfig,
                    length_km: float) -> tuple[float, float]:
    """No-eavesdropping model (Q, E) for one BB84 intensity.

    Q = Y0 + 1 - exp(-eta*mu*T), E = (Y0/2 + p_opt*(1 - exp(-eta*mu*T)))/Q
    with Y0 = 2*p_dc. A vacuum pulse clicks only through dark counts and
    carries a random bit, hence E = 1/2.
    """
    _check_intensity(intensity)
    return _gain_error(intensity, detector, transmittance(length_km))


# The five floats of a Bb84Yields record: q_mu, e_mu, y0, q1_lower, e1_upper.
_Yields = tuple[float, float, float, float, float]


def _pns_yields(mu: float, detector: DetectorConfig, length_km: float) -> _Yields:
    # Single-photon bounds for standard BB84 under photon-number splitting.
    # Eve blocks single-photon pulses and forwards one photon less from every
    # multi-photon pulse over a lossless line, so the surviving photons see
    # only the detector efficiency eta:
    #     Q1 >= Q_mu - 1 + (exp(-eta*mu) - eta*exp(-mu))/(1 - eta).
    # A non-positive bound (long distance) floors at 0 and kills the rate.
    if not 0.0 < detector.eta < 1.0:
        raise ValueError("photon-number-splitting bound requires 0 < eta < 1")
    eta = detector.eta
    q_mu, e_mu = bb84_gain_error(mu, detector, length_km)
    q1 = q_mu - 1.0 + (math.exp(-eta * mu) - eta * math.exp(-mu)) / (1.0 - eta)
    q1 = min(max(q1, 0.0), q_mu)
    e1 = min(q_mu * e_mu / q1, 0.5) if q1 > 0.0 else 0.5
    return q_mu, e_mu, 2.0 * detector.p_dc, q1, e1


def _decoy_yields(mu: float, decoy: DecoyConfig, detector: DetectorConfig,
                  length_km: float) -> _Yields:
    # decoy_bounds' record as floats. The decoys' intensities r*mu are
    # finite and >= 0 once mu is, and all three share one transmittance.
    _check_intensity(mu)
    trans = transmittance(length_km)
    r1, r2 = decoy.nu1_ratio, decoy.nu2_ratio
    nu1, nu2 = r1 * mu, r2 * mu
    q_mu, e_mu = _gain_error(mu, detector, trans)
    if mu > MAX_EXP_ARG:
        return q_mu, e_mu, 0.0, 0.0, 0.5
    q_n1, e_n1 = _gain_error(nu1, detector, trans)
    q_n2, e_n2 = _gain_error(nu2, detector, trans)

    # The Poisson factors of Ma et al.'s bounds, each computed once.
    exp_nu1, exp_nu2, exp_neg_mu = math.exp(nu1), math.exp(nu2), math.exp(-mu)
    y0 = max((r1 * q_n2 * exp_nu2 - r2 * q_n1 * exp_nu1) / (r1 - r2), 0.0)
    q1 = (exp_neg_mu / ((r1 - r2) * (1.0 - r1 - r2))) * (
        q_n1 * exp_nu1 - q_n2 * exp_nu2
        - (r1 ** 2 - r2 ** 2) * (q_mu * math.exp(mu) - y0)
    )
    q1 = min(max(q1, 0.0), q_mu)
    if q1 > 0.0:
        e1 = ((e_n1 * q_n1 * exp_nu1 - e_n2 * q_n2 * exp_nu2)
              * exp_neg_mu / ((r1 - r2) * q1))
        e1 = min(max(e1, 0.0), 0.5)
    else:
        e1 = 0.5
    return q_mu, e_mu, y0, q1, e1


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
    return Bb84Yields(*_decoy_yields(mu, decoy, detector, length_km))


def _bb84_yields(protocol: Protocol, mu: float, length_km: float, detector: DetectorConfig,
                 decoy: DecoyConfig) -> tuple[_Yields, float]:
    # A BB84 baseline's yield floats and its signal emission probability p_mu.
    if protocol is Protocol.BB84_STANDARD:
        return _pns_yields(mu, detector, length_km), 1.0
    if protocol is Protocol.BB84_DECOY:
        return _decoy_yields(mu, decoy, detector, length_km), decoy.p_mu
    raise ValueError(f"bb84_secret_rate needs a BB84 baseline, got {protocol.value}")


def _gllp(q_mu: float, e_mu: float, q1: float, secret_fraction: float, p_mu: float,
          detector: DetectorConfig) -> tuple[float, float, float]:
    # Per-pulse raw rate, i_ab and i_e of the GLLP rate, where secret_fraction = 1 - H(E1).
    raw = 0.5 * p_mu * q_mu
    i_ab = 1.0 - detector.f_ec * binary_entropy(e_mu)
    i_e = 1.0 - q1 / q_mu * secret_fraction if q_mu > 0.0 else 1.0
    return raw, i_ab, i_e


def bb84_secret_rate(setup: SetupConfig, detector: DetectorConfig,
                     decoy: DecoyConfig = DecoyConfig()) -> RateBreakdown:
    """GLLP secret rate for a BB84 baseline (standard or decoy-state).

    The decomposition fields are defined so per_pulse = raw*(i_ab - i_e)
    holds exactly: the raw rate is raw = (1/2)*p_mu*Q_mu (p_mu = 1 for
    standard BB84), i_ab = 1 - f_ec*H(E_mu), and
    i_e = 1 - (Q1/Q_mu)*(1 - H(E1)) is the sifted-bit fraction conceded
    under the single-photon bounds. Standard BB84 ignores decoy.
    """
    floats, p_mu = _bb84_yields(setup.protocol, setup.mu, setup.length_km, detector, decoy)
    yields = Bb84Yields(*floats)
    raw, i_ab, i_e = _gllp(yields.q_mu, yields.e_mu, yields.q1_lower,
                           1.0 - binary_entropy(yields.e1_upper), p_mu, detector)
    return _breakdown(raw, yields.e_mu, i_ab, i_e)


def bb84_rate_bound(protocol: Protocol, mu: float, length_km: float,
                    detector: DetectorConfig, decoy: DecoyConfig = DecoyConfig()) -> float:
    """An upper bound on the BB84 baseline's per_pulse: the rate itself, without its records.

    The setup's fields come as scalars, already checked (a mu search checks
    them once, in the SetupConfig of its lowest mu). The bound is a rate per
    pulse, as the mu search scores: bb84_secret_rate's per_pulse from the
    same floats and expressions, so it equals that rate bit for bit and the
    best-first mu search fully rates only the grid's first best point. It
    skips the records' checks, and refuses a protocol or detector that
    bb84_secret_rate refuses, with its message.
    """
    (q_mu, e_mu, _, q1, e1), p_mu = _bb84_yields(protocol, mu, length_km, detector, decoy)
    raw, i_ab, i_e = _gllp(q_mu, e_mu, q1, 1.0 - binary_entropy(e1), p_mu, detector)
    unclamped = raw * (i_ab - i_e)
    return unclamped if unclamped > 0.0 else 0.0  # +0.0, as _breakdown clamps
