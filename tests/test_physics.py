import math
import re
import warnings

import numpy as np
import pytest
from scipy import constants

from srqkd import (
    ChannelDerived,
    DetectorConfig,
    Protocol,
    SetupConfig,
    bb84_gain_error,
    binary_entropy,
    coherent_state_fock,
    derive_channel,
    fock_dimension,
    grey_region_mu_floor,
    holevo_chi,
    monitoring_unacceptable,
    overlap,
    qber_from_received,
    transmittance,
)
from srqkd.physics import PLANCK_H, SPEED_OF_LIGHT

# Frozen oracle values (computed by direct, independent evaluation of the
# closed forms; see the entropy duplicates below for the double route).
K_MONITOR = 13793.674603497862          # NEP*sqrt(tau)*lambda/(h*c)
DELTA_REF = 0.023044045386939514        # delta(mu=0.3, t=65, L=10)
QBER_REF = 0.020263159686760963         # QBER(mu=0.3, L=10)
MU_PRIME_REF = 0.18928720334405796      # 0.3 * 10^(-0.2)
H_011 = 0.499915958164528               # H(0.11)
CHI_025 = 0.7153491667107217            # chi(0.25)


def test_transmittance_basics():
    assert transmittance(0.0) == 1.0
    assert transmittance(10.0) == pytest.approx(10 ** -0.2, rel=1e-15)
    # 0.2 dB/km: 50 km is one decade
    assert transmittance(50.0) == pytest.approx(0.1, rel=1e-15)
    assert type(transmittance(10.0)) is float
    with pytest.raises(ValueError):
        transmittance(-1.0)


def test_setup_validation():
    s = SetupConfig(protocol="b92-sr", mu=0.3, t_db=65.0, length_km=10.0,
                    pulse_rate_hz=5e6)
    assert s.protocol is Protocol.B92_SR
    member = Protocol.BB84_SR  # kept as it is: no Protocol() call per setup
    assert SetupConfig(protocol=member, mu=0.3, t_db=65.0, length_km=10.0,
                       pulse_rate_hz=5e6).protocol is member
    for bad in (dict(protocol="b92"), dict(mu=0.0), dict(mu=-0.1), dict(t_db=-1.0),
                dict(length_km=-5.0), dict(pulse_rate_hz=0.0),
                dict(mu=math.inf), dict(t_db=math.nan), dict(length_km=math.inf)):
        kwargs = dict(protocol="b92-sr", mu=0.3, t_db=65.0, length_km=10.0,
                      pulse_rate_hz=5e6)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            SetupConfig(**kwargs)


def test_detector_validation():
    DetectorConfig(p_opt=0.5)  # degenerate random-outcome detector is allowed
    with pytest.raises(ValueError):
        DetectorConfig(p_opt=0.51)
    with pytest.raises(ValueError):
        DetectorConfig(eta=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(eta=1.2)
    with pytest.raises(ValueError):
        DetectorConfig(p_dc=-1e-9)
    for bad in (dict(nep=math.nan), dict(tau_s=math.inf), dict(f_ec=math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            DetectorConfig(**bad)


def test_monitor_prefactor_value(detector):
    # SciPy is a test-only oracle for the exact SI constants.
    assert PLANCK_H == constants.h
    assert SPEED_OF_LIGHT == constants.c
    assert detector.monitor_photon_uncertainty == pytest.approx(K_MONITOR, rel=1e-12)


def test_delta_reference_point(b92_setup, detector):
    assert derive_channel(b92_setup, detector).delta == pytest.approx(DELTA_REF, rel=1e-12)


def test_delta_scalings(detector):
    base = SetupConfig(protocol="b92-sr", mu=0.3, t_db=65.0, length_km=10.0,
                       pulse_rate_hz=5e6)
    d0 = derive_channel(base, detector).delta

    # exact 1/mu separability: delta(mu) = delta(1)/mu bit-for-bit
    unit = SetupConfig(protocol="b92-sr", mu=1.0, t_db=65.0, length_km=10.0,
                       pulse_rate_hz=5e6)
    d_unit = derive_channel(unit, detector).delta
    for mu in (0.01, 0.07, 0.3, 0.9):
        s = SetupConfig(protocol="b92-sr", mu=mu, t_db=65.0, length_km=10.0,
                        pulse_rate_hz=5e6)
        assert derive_channel(s, detector).delta == d_unit / mu

    # +10 dB on t brightens the SRP tenfold -> delta/10; +50 km -> 10x delta
    s_t = SetupConfig(protocol="b92-sr", mu=0.3, t_db=75.0, length_km=10.0,
                      pulse_rate_hz=5e6)
    assert derive_channel(s_t, detector).delta == pytest.approx(d0 / 10, rel=1e-12)
    s_l = SetupConfig(protocol="b92-sr", mu=0.3, t_db=65.0, length_km=60.0,
                      pulse_rate_hz=5e6)
    assert derive_channel(s_l, detector).delta == pytest.approx(10 * d0, rel=1e-12)


@pytest.mark.parametrize("t_db, length_km", [(65.0, 16300.0), (4000.0, 10.0),
                                              (4000.0, 20000.0), (65.0, 15600.0)])
def test_reference_pulse_out_of_float_range(detector, t_db, length_km):
    # T(L) underflows to 0 past about 16 200 km; 10**(t/10) overflows past
    # about 3083 dB; from about 15 550 km delta(mu=1) overflows. Each refusal
    # names the two inputs.
    setup = SetupConfig(protocol="b92-sr", mu=0.3, t_db=t_db, length_km=length_km,
                        pulse_rate_hz=5e6)
    named = re.escape(f"t_db={t_db}, length_km={length_km}")
    with pytest.raises(ValueError, match=named):
        derive_channel(setup, detector)
    with pytest.raises(ValueError, match=named):
        grey_region_mu_floor(length_km, t_db, detector)


def test_grey_region_predicate():
    assert not monitoring_unacceptable(0.5)
    assert monitoring_unacceptable(0.5000001)
    assert not monitoring_unacceptable(0.01)


def test_qber_reference_point(b92_setup, detector):
    assert derive_channel(b92_setup, detector).qber == pytest.approx(QBER_REF, rel=1e-12)


def test_qber_limits(detector):
    # no light at all: dark counts only, random bit
    assert qber_from_received(0.0, DetectorConfig(p_dc=0.0)) == 0.5
    assert qber_from_received(0.0, detector) == 0.5
    # bright limit: optical misalignment dominates
    assert qber_from_received(1e3, DetectorConfig(p_dc=0.0)) == pytest.approx(
        0.02, rel=1e-9)
    # p_opt = 0.5 detector: QBER pinned at 1/2 for any intensity
    half = DetectorConfig(p_opt=0.5, p_dc=0.0)
    for mu_prime in (0.01, 0.2, 2.0):
        assert qber_from_received(mu_prime, half) == pytest.approx(0.5, rel=1e-12)
    # Halving a subnormal click rounds up (0.5 * 1.5e-323 = 1e-323), so the
    # model reads 2/3; the cap returns 1/2 without a warning.
    subnormal = DetectorConfig(p_opt=0.5, p_dc=0.0, eta=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qber_from_received(1.5e-323, subnormal) == 0.5


def test_qber_monotone_in_distance(detector):
    values = []
    for length in (0.0, 20.0, 40.0, 60.0, 80.0, 100.0):
        s = SetupConfig(protocol="b92-sr", mu=0.3, t_db=65.0, length_km=length,
                        pulse_rate_hz=5e6)
        values.append(derive_channel(s, detector).qber)
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v <= 0.5 for v in values)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(H_011, rel=1e-12)
    # independent route: direct formula at generic points
    rng = np.random.default_rng(42)
    for x in rng.uniform(1e-6, 1 - 1e-6, size=50):
        direct = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        assert binary_entropy(float(x)) == pytest.approx(direct, abs=1e-14)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_binary_entropy_symmetry():
    hs = [binary_entropy(float(x)) for x in np.linspace(0.0, 1.0, 101)]
    assert np.allclose(hs, hs[::-1], rtol=0.0, atol=1e-14)
    assert max(hs) == 1.0
    assert hs[0] == hs[-1] == 0.0


def test_holevo_chi():
    assert holevo_chi(0.0) == 0.0
    assert holevo_chi(0.25) == pytest.approx(CHI_025, rel=1e-12)
    # saturates at one bit once the states become orthogonal
    assert holevo_chi(50.0) == pytest.approx(1.0, abs=1e-12)
    # equals H((1 - overlap)/2) by definition
    for mu in (0.05, 0.3, 1.7):
        assert holevo_chi(mu) == pytest.approx(
            binary_entropy((1 - math.exp(-2 * mu)) / 2), rel=1e-14)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: binary_entropy(math.nan), id="entropy-nan"),
    pytest.param(lambda: holevo_chi(math.nan), id="chi-nan"),
    pytest.param(lambda: holevo_chi(math.inf), id="chi-inf"),
    pytest.param(lambda: transmittance(math.nan), id="transmittance-nan"),
    pytest.param(lambda: transmittance(math.inf), id="transmittance-inf"),
    pytest.param(lambda: qber_from_received(math.nan, DetectorConfig()), id="qber-nan"),
    pytest.param(lambda: bb84_gain_error(math.nan, DetectorConfig(), 10.0), id="gain-nan"),
    pytest.param(lambda: overlap(math.nan), id="overlap-nan"),
    pytest.param(lambda: overlap(math.inf), id="overlap-inf"),
    pytest.param(lambda: fock_dimension(math.nan), id="fock-nan"),
    pytest.param(lambda: fock_dimension(math.inf), id="fock-inf"),
    # exp(-mu) is subnormal: the Poisson sum used to loop forever.
    pytest.param(lambda: fock_dimension(1000.0), id="fock-1000"),
    pytest.param(lambda: coherent_state_fock(math.nan, 3), id="fock-state-nan"),
])
def test_scalar_functions_reject_non_finite(call):
    with pytest.raises(ValueError):
        call()


def test_derive_channel_consistency(b92_setup, detector):
    ch = derive_channel(b92_setup, detector)
    assert isinstance(ch, ChannelDerived)
    assert ch.transmittance == pytest.approx(10 ** -0.2, rel=1e-15)
    assert ch.mu_prime == pytest.approx(MU_PRIME_REF, rel=1e-14)
    # delta is the monitor's photon uncertainty over the SRP intensity at Bob.
    nu_prime = ch.mu_prime * 10 ** 6.5
    assert ch.delta == pytest.approx(K_MONITOR / nu_prime, rel=1e-12)
    assert ch.qber == qber_from_received(ch.mu_prime, detector)
    assert not monitoring_unacceptable(ch.delta)


def test_sifting_factors():
    assert Protocol.B92_SR.sifting_factor == 1.0
    assert Protocol.BB84_SR.sifting_factor == 0.5
    assert Protocol.B92_SR.uses_reference_pulse
    assert not Protocol.BB84_DECOY.uses_reference_pulse
    with pytest.raises(ValueError):
        Protocol.BB84_STANDARD.sifting_factor
