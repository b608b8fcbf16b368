"""Physical parameters and elementary channel/information functions.

Everything downstream (attack optimization, key rates, sweeps) consumes the
functions defined here: fiber transmittance, received intensities, the
relative precision of strong-reference-pulse (SRP) monitoring, the QBER
model, Shannon binary entropy and the Holevo quantity for binary coherent
ensembles.

Everything is computed with ``math`` on plain floats. The configs reject
NaN and infinite fields, and the elementary functions (transmittance,
QBER, entropy, Holevo quantity) reject NaN and infinite arguments. No
function mutates shared state, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

# Fiber attenuation assumed for telecom wavelengths.
FIBER_LOSS_DB_PER_KM = 0.2

# Exact by the 2019 SI definitions.
PLANCK_H = 6.62607015e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m/s

# SRP monitoring counts as unusable once its relative precision is worse
# than 50% (the "grey region" rule in contour scans).
GREY_REGION_DELTA = 0.5

# Largest x with a finite math.exp(x) and math.expm1(x).
MAX_EXP_ARG = math.log(sys.float_info.max)

_LN2 = math.log(2.0)


class Protocol(str, Enum):
    """Protocol selector for rate calculations."""

    B92_SR = "b92-sr"
    BB84_SR = "bb84-sr"
    BB84_STANDARD = "bb84-standard"
    BB84_DECOY = "bb84-decoy"

    @property
    def uses_reference_pulse(self) -> bool:
        return self in (Protocol.B92_SR, Protocol.BB84_SR)

    @property
    def sifting_factor(self) -> float:
        """Conclusive-bit retention factor: 1 for B92, 1/2 for the 4+2 scheme."""
        if self is Protocol.B92_SR:
            return 1.0
        if self is Protocol.BB84_SR:
            return 0.5
        raise ValueError(f"no sifting factor for non-SR protocol {self.value}")


def _require_finite(config, names) -> None:
    # Range checks written as ``x < 0`` let NaN and +inf through.
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SetupConfig:
    """Transmitter-side protocol configuration.

    mu is the mean photon number of the signal pulse (SP), t_db the relative
    attenuation between SP and SRP in dB, so the SRP intensity is
    nu = mu * 10**(t_db/10).
    """

    protocol: Protocol
    mu: float
    t_db: float
    length_km: float
    pulse_rate_hz: float

    def __post_init__(self):
        # A member is a str too (Protocol is a str Enum): coerce only the rest.
        if not isinstance(self.protocol, Protocol):
            object.__setattr__(self, "protocol", Protocol(self.protocol))
        _require_finite(self, ("mu", "t_db", "length_km", "pulse_rate_hz"))
        if not self.mu > 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.t_db < 0:
            raise ValueError(f"t_db must be >= 0, got {self.t_db}")
        if self.length_km < 0:
            raise ValueError(f"length_km must be >= 0, got {self.length_km}")
        if not self.pulse_rate_hz > 0:
            raise ValueError(f"pulse_rate_hz must be > 0, got {self.pulse_rate_hz}")


@dataclass(frozen=True)
class DetectorConfig:
    """Receiver-side detector and post-processing parameters.

    eta      single-photon detector efficiency
    p_dc     dark-count probability per detector per gate
    p_opt    optical (wrong-detector) error probability
    nep      noise-equivalent power of the SRP monitoring photodiode, W/sqrt(Hz)
    tau_s    pulse width in seconds
    lambda_m wavelength in meters
    f_ec     error-correction inefficiency (>= 1)
    """

    eta: float = 0.2
    p_dc: float = 2e-5
    p_opt: float = 0.02
    nep: float = 25e-12
    tau_s: float = 5e-9
    lambda_m: float = 1550e-9
    f_ec: float = 1.2

    def __post_init__(self):
        _require_finite(self, ("eta", "p_dc", "p_opt", "nep", "tau_s", "lambda_m", "f_ec"))
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not 0 <= self.p_dc < 0.5:
            raise ValueError(f"p_dc must be in [0, 0.5), got {self.p_dc}")
        # 0.5 admitted: a detector with random outcomes is a useful degenerate case.
        if not 0 <= self.p_opt <= 0.5:
            raise ValueError(f"p_opt must be in [0, 0.5], got {self.p_opt}")
        if self.nep < 0:
            raise ValueError(f"nep must be >= 0, got {self.nep}")
        if not self.tau_s > 0:
            raise ValueError(f"tau_s must be > 0, got {self.tau_s}")
        if not self.lambda_m > 0:
            raise ValueError(f"lambda_m must be > 0, got {self.lambda_m}")
        if self.f_ec < 1:
            raise ValueError(f"f_ec must be >= 1, got {self.f_ec}")

    @property
    def monitor_photon_uncertainty(self) -> float:
        """Absolute photon-number uncertainty of SRP monitoring: NEP*sqrt(tau)*lambda/(h*c)."""
        return self.nep * math.sqrt(self.tau_s) * self.lambda_m / (PLANCK_H * SPEED_OF_LIGHT)


@dataclass(frozen=True)
class ChannelDerived:
    """Receiver-side quantities derived from a (setup, detector) pair.

    delta is the relative precision of Bob's SRP intensity monitoring,
    NEP*sqrt(tau)*lambda/(h*c) / nu', where nu' is the expected SRP
    intensity at the receiver, computed from exact physical constants.
    delta factorizes as delta(mu, t, L) = delta(1, t, L)/mu; the division by
    mu is done last so that identity holds exactly in floating point.
    Values above ``GREY_REGION_DELTA`` mean the monitoring is too coarse to
    be trusted (callers flag such points rather than masking them).
    """

    transmittance: float
    mu_prime: float
    delta: float
    qber: float


def transmittance(length_km: float) -> float:
    """Fiber power transmittance 10**(-FIBER_LOSS_DB_PER_KM * L / 10)."""
    if not 0 <= length_km < math.inf:
        raise ValueError(f"length_km must be finite and >= 0, got {length_km}")
    return 10.0 ** (-FIBER_LOSS_DB_PER_KM * length_km / 10.0)


def _delta_at_unit_mu(t_db: float, length_km: float, detector: DetectorConfig) -> float:
    # SRP intensity at Bob for mu = 1: 10**(t/10) * T(L). The power overflows
    # past about 3083 dB, and T(L) underflows to 0 past about 16 200 km; from
    # about 15 550 km the pulse is still a float but delta(1) overflows.
    try:
        srp_at_bob = 10.0 ** (t_db / 10.0) * transmittance(length_km)
    except OverflowError:
        srp_at_bob = math.inf
    if not 0.0 < srp_at_bob < math.inf:
        raise ValueError(f"the reference pulse at Bob, 10**(t_db/10)*T(L), is out of float "
                         f"range at t_db={t_db}, length_km={length_km}")
    delta = detector.monitor_photon_uncertainty / srp_at_bob
    if delta == math.inf:
        raise ValueError(f"delta at mu=1 overflows: the reference pulse at Bob is too weak "
                         f"at t_db={t_db}, length_km={length_km}")
    return delta


def monitoring_unacceptable(delta: float) -> bool:
    """True when SRP monitoring precision is worse than the 50% grey-region bound."""
    return delta > GREY_REGION_DELTA


def grey_region_mu_floor(length_km: float, t_db: float,
                         detector: DetectorConfig) -> float:
    """Smallest mu with acceptable monitoring (delta <= 0.5) at this (t, L)."""
    return _delta_at_unit_mu(t_db, length_km, detector) / GREY_REGION_DELTA


def qber_from_received(mu_prime: float, detector: DetectorConfig) -> float:
    """Receiver QBER from dark counts and optical errors at received intensity mu'.

    (p_dc + p_opt*(1 - exp(-2*eta*mu'))) / (2*p_dc + 1 - exp(-2*eta*mu')),
    capped at 0.5. With no clicks at all (mu'=0 and p_dc=0) the bit value is
    undefined and 0.5 is returned.
    """
    if not 0 <= mu_prime < math.inf:
        raise ValueError(f"mu_prime must be finite and >= 0, got {mu_prime}")
    click = -math.expm1(-2.0 * detector.eta * mu_prime)
    denom = 2.0 * detector.p_dc + click
    if denom == 0.0:
        return 0.5
    value = (detector.p_dc + detector.p_opt * click) / denom
    # p_opt <= 1/2 keeps the model at or below 1/2: only rounding (halving a
    # subnormal click) reaches the cap.
    return value if value <= 0.5 else 0.5


def binary_entropy(x: float) -> float:
    """Shannon binary entropy in bits, H(0) = H(1) = 0 by convention."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    h = -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / _LN2
    return min(max(h, 0.0), 1.0)


def holevo_chi(intensity: float) -> float:
    """Holevo bound for the binary ensemble {|alpha>, |-alpha>} with |alpha|^2 = intensity.

    chi(mu) = H((1 - exp(-2*mu))/2); 0 at mu=0, saturating at 1 bit for
    orthogonal (bright) states.
    """
    if not 0.0 <= intensity < math.inf:
        raise ValueError(f"intensity must be finite and >= 0, got {intensity}")
    return binary_entropy(-math.expm1(-2.0 * intensity) / 2.0)


def derive_channel(setup: SetupConfig, detector: DetectorConfig) -> ChannelDerived:
    """Bundle the receiver-side quantities used by the attack and rate models."""
    trans = transmittance(setup.length_km)
    mu_prime = setup.mu * trans
    return ChannelDerived(
        transmittance=trans,
        mu_prime=mu_prime,
        delta=_delta_at_unit_mu(setup.t_db, setup.length_km, detector) / setup.mu,
        qber=qber_from_received(mu_prime, detector),
    )
