"""Secret-rate models: SR breakdowns, BB84 gains, PNS and decoy bounds."""

import math

import numpy as np
import pytest
from scipy import stats

from srqkd import (
    Bb84Yields,
    DecoyConfig,
    DetectorConfig,
    Protocol,
    RateBreakdown,
    SetupConfig,
    bb84_gain_error,
    bb84_pns_bounds,
    bb84_secret_rate,
    decoy_bounds,
    maximize_eve_information,
    secret_rate,
    sr_secret_rate,
    transmittance,
)

# Frozen against Y0 + 1 - exp(-eta*mu*T) evaluated by hand at mu=0.1, L=20km.
Q_REF_01_20 = 0.007970529507673872
E_REF_01_20 = 0.02240887383724188


def _random_mu_lengths(n, rng, mu_lo=0.05, mu_hi=1.0, l_hi=60.0):
    return [(rng.uniform(mu_lo, mu_hi), rng.uniform(0.0, l_hi)) for _ in range(n)]


def test_gain_error_reference(detector):
    q, e = bb84_gain_error(0.1, detector, 20.0)
    assert q == pytest.approx(Q_REF_01_20, rel=1e-12)
    assert e == pytest.approx(E_REF_01_20, rel=1e-12)


def test_gain_error_poisson_sum(detector):
    """Closed-form gain equals the photon-number expansion it summarizes."""
    rng = np.random.default_rng(8)
    for mu, length in _random_mu_lengths(25, rng):
        q, _ = bb84_gain_error(mu, detector, length)
        t = transmittance(length)
        y0 = 2.0 * detector.p_dc
        ns = np.arange(0, 120)
        q_sum = float(np.sum(stats.poisson.pmf(ns, mu)
                             * (y0 + 1.0 - (1.0 - detector.eta * t) ** ns)))
        assert q == pytest.approx(q_sum, rel=1e-12, abs=1e-15)


def test_gain_error_limits():
    detector = DetectorConfig()
    q, e = bb84_gain_error(0.0, detector, 10.0)
    assert q == pytest.approx(2.0 * detector.p_dc, rel=1e-15)
    assert e == 0.5  # dark counts carry a random bit
    # Without dark counts every error is a polarization flip.
    clean = DetectorConfig(p_dc=0.0)
    _, e_clean = bb84_gain_error(0.4, clean, 10.0)
    assert e_clean == pytest.approx(clean.p_opt, rel=1e-15)
    with pytest.raises(ValueError):
        bb84_gain_error(-0.1, detector, 10.0)


def test_pns_bound_matches_poisson_oracle(detector):
    """Q1 bound = Q_mu minus the multiphoton gain Eve serves losslessly."""
    rng = np.random.default_rng(9)
    eta = detector.eta
    for mu, length in _random_mu_lengths(25, rng, mu_lo=0.1, mu_hi=0.8, l_hi=25.0):
        setup = SetupConfig(protocol=Protocol.BB84_STANDARD, mu=mu, t_db=65.0,
                            length_km=length, pulse_rate_hz=5e6)
        y = bb84_pns_bounds(setup, detector)
        ns = np.arange(2, 150)
        q_multi = float(np.sum(stats.poisson.pmf(ns, mu)
                               * (1.0 - (1.0 - eta) ** (ns - 1))))
        expected = y.q_mu - q_multi
        if expected <= 0.0:
            assert y.q1_lower == 0.0 and y.e1_upper == 0.5
        else:
            assert y.q1_lower == pytest.approx(expected, rel=1e-10, abs=1e-16)
            assert 0.0 <= y.e1_upper <= 0.5


def test_pns_bound_floors_at_long_distance(detector):
    setup = SetupConfig(protocol=Protocol.BB84_STANDARD, mu=0.3, t_db=65.0,
                        length_km=100.0, pulse_rate_hz=5e6)
    y = bb84_pns_bounds(setup, detector)
    assert y.q1_lower == 0.0
    assert y.e1_upper == 0.5
    assert bb84_secret_rate(setup, detector).r_sec == 0.0


def test_decoy_sandwich(detector):
    """Decoy bounds bracket the true single-photon yield and error."""
    rng = np.random.default_rng(10)
    for mu, length in _random_mu_lengths(40, rng, mu_lo=0.1, mu_hi=0.8):
        y = decoy_bounds(mu, DecoyConfig(), detector, length)
        t = transmittance(length)
        y1_true = 2.0 * detector.p_dc + detector.eta * t
        q1_true = mu * math.exp(-mu) * y1_true
        e1_true = (detector.p_dc + detector.p_opt * detector.eta * t) / y1_true
        assert y.q1_lower <= q1_true * (1.0 + 1e-12)
        assert y.e1_upper >= e1_true * (1.0 - 1e-12)
        assert y.y0 <= 2.0 * detector.p_dc * (1.0 + 1e-9)


def _textbook_decoy_bounds(mu, decoy, detector, length):
    # Ma et al.'s weak+vacuum estimates written in the decoy intensities nu1, nu2.
    nu1, nu2 = decoy.nu1_ratio * mu, decoy.nu2_ratio * mu
    q_mu, _ = bb84_gain_error(mu, detector, length)
    (q_n1, e_n1), (q_n2, e_n2) = (bb84_gain_error(nu, detector, length) for nu in (nu1, nu2))
    y0 = max((nu1 * q_n2 * math.exp(nu2) - nu2 * q_n1 * math.exp(nu1)) / (nu1 - nu2), 0.0)
    q1 = mu ** 2 * math.exp(-mu) / ((nu1 - nu2) * (mu - nu1 - nu2)) * (
        q_n1 * math.exp(nu1) - q_n2 * math.exp(nu2)
        - (nu1 ** 2 - nu2 ** 2) / mu ** 2 * (q_mu * math.exp(mu) - y0))
    e1 = ((e_n1 * q_n1 * math.exp(nu1) - e_n2 * q_n2 * math.exp(nu2))
          * mu * math.exp(-mu) / ((nu1 - nu2) * q1))
    return y0, q1, e1


def test_decoy_bounds_match_textbook_form(detector):
    rng = np.random.default_rng(11)
    for decoy in (DecoyConfig(), DecoyConfig(nu1_ratio=0.1, nu2_ratio=0.0, p_mu=0.9)):
        for mu, length in _random_mu_lengths(40, rng, mu_lo=0.05, mu_hi=0.9):
            y = decoy_bounds(mu, decoy, detector, length)
            y0, q1, e1 = _textbook_decoy_bounds(mu, decoy, detector, length)
            assert y.y0 == pytest.approx(y0, rel=1e-12, abs=1e-20)
            assert y.q1_lower == pytest.approx(q1, rel=1e-9)
            assert y.e1_upper == pytest.approx(min(e1, 0.5), rel=1e-9)


@pytest.mark.parametrize("mu", [1e-161, 1e-200, 1e-300, 5e-324])
def test_decoy_bounds_tiny_mu(detector, mu):
    # mu**2 underflows to 0 here; in the ratios of mu nothing divides by it.
    setup = SetupConfig(protocol=Protocol.BB84_DECOY, mu=mu, t_db=65.0, length_km=10.0,
                        pulse_rate_hz=5e6)
    y = decoy_bounds(mu, DecoyConfig(), detector, 10.0)
    assert 0.0 <= y.q1_lower <= y.q_mu
    rate = bb84_secret_rate(setup, detector)
    assert rate.r_sec == 0.0 and rate.r_sec_unclamped < 0.0


@pytest.mark.parametrize("mu", [709.0, 709.8, 710.0, 1e4, 1e300])
def test_decoy_bounds_past_exp_range(detector, mu):
    # exp(mu) overflows past mu = 709.78. On both sides the bounds are the
    # trivial pair: the estimates clamp Q1 to 0 well before.
    y = decoy_bounds(mu, DecoyConfig(), detector, 10.0)
    assert (y.y0, y.q1_lower, y.e1_upper) == (0.0, 0.0, 0.5)
    setup = SetupConfig(protocol=Protocol.BB84_DECOY, mu=mu, t_db=65.0, length_km=10.0,
                        pulse_rate_hz=5e6)
    assert bb84_secret_rate(setup, detector).r_sec == 0.0


def test_decoy_config_validation():
    cfg = DecoyConfig()
    assert (cfg.nu2_ratio, cfg.nu1_ratio, cfg.p_mu) == (0.01, 0.25, 0.5)
    with pytest.raises(ValueError):
        DecoyConfig(nu1_ratio=1.2)
    with pytest.raises(ValueError):
        DecoyConfig(nu1_ratio=0.01, nu2_ratio=0.25)
    with pytest.raises(ValueError):
        DecoyConfig(nu2_ratio=-0.01)
    with pytest.raises(ValueError):
        DecoyConfig(nu1_ratio=0.6, nu2_ratio=0.5)  # nu1 + nu2 >= mu
    with pytest.raises(ValueError):
        DecoyConfig(p_mu=0.0)


def test_sr_breakdown_identities(b92_setup, detector):
    i_e = maximize_eve_information(b92_setup, detector).best.i_e
    out = sr_secret_rate(b92_setup, detector, i_e)
    assert out.r_sec > 0.0
    assert out.r_sec == pytest.approx(out.r_raw * (out.i_ab - out.i_e), rel=1e-12)
    assert out.per_pulse == pytest.approx(out.r_sec / b92_setup.pulse_rate_hz, rel=1e-15)
    assert 0.0 <= out.i_e <= 1.0
    assert out.qber < 0.5


def test_sr_forced_information_limits(b92_setup, detector):
    # No eavesdropper: the rate is raw times the reconciliation efficiency.
    free = sr_secret_rate(b92_setup, detector, i_e=0.0)
    assert free.r_sec == pytest.approx(free.r_raw * free.i_ab, rel=1e-12)
    # Fully informed eavesdropper: nothing survives, clamp engages.
    gone = sr_secret_rate(b92_setup, detector, i_e=1.0)
    assert gone.r_sec == 0.0
    assert gone.r_sec_unclamped < 0.0


def test_sr_rejects_non_sr_protocol(detector):
    setup = SetupConfig(protocol=Protocol.BB84_STANDARD, mu=0.3, t_db=65.0,
                        length_km=10.0, pulse_rate_hz=5e6)
    with pytest.raises(ValueError, match="SR protocol"):
        sr_secret_rate(setup, detector, 0.0)


def test_rate_breakdown_validation():
    with pytest.raises(ValueError, match="clamped at 0"):
        RateBreakdown(r_raw=1.0, qber=0.1, i_ab=0.5, i_e=0.6,
                      r_sec=-0.1, per_pulse=-0.1, r_sec_unclamped=-0.1)
    with pytest.raises(ValueError, match="exceed r_raw"):
        RateBreakdown(r_raw=1.0, qber=0.1, i_ab=2.0, i_e=0.0,
                      r_sec=2.0, per_pulse=2.0, r_sec_unclamped=2.0)
    with pytest.raises(ValueError, match="vanish exactly"):
        RateBreakdown(r_raw=1.0, qber=0.1, i_ab=0.5, i_e=0.6,
                      r_sec=0.1, per_pulse=0.1, r_sec_unclamped=-0.1)
    with pytest.raises(ValueError, match="clamped at 0"):
        RateBreakdown(r_raw=0.0, qber=0.5, i_ab=0.0, i_e=1.0,
                      r_sec=-0.0, per_pulse=0.0, r_sec_unclamped=-0.0)


def test_bb84_yields_validation():
    with pytest.raises(ValueError, match="q1_lower"):
        Bb84Yields(q_mu=0.1, e_mu=0.02, y0=0.0, q1_lower=0.2, e1_upper=0.02)
    with pytest.raises(ValueError, match="e1_upper"):
        Bb84Yields(q_mu=0.1, e_mu=0.02, y0=0.0, q1_lower=0.05, e1_upper=0.6)
    with pytest.raises(ValueError, match="y0"):
        Bb84Yields(q_mu=0.1, e_mu=0.02, y0=-1e-9, q1_lower=0.05, e1_upper=0.02)


@pytest.mark.parametrize("protocol", [Protocol.BB84_STANDARD, Protocol.BB84_DECOY])
def test_zero_gain_rate_is_positive_zero(protocol):
    # Q_mu = 0 makes r_raw = 0, and 0 * (i_ab - i_e) is -0.0 when i_e > i_ab.
    detector = DetectorConfig(p_dc=0.0)
    assert bb84_gain_error(5e-324, detector, 10.0) == (0.0, 0.5)
    setup = SetupConfig(protocol=protocol, mu=5e-324, t_db=65.0, length_km=10.0,
                        pulse_rate_hz=5e6)
    out = bb84_secret_rate(setup, detector)
    assert (out.r_raw, out.i_e) == (0.0, 1.0)
    assert math.copysign(1.0, out.r_sec_unclamped) == -1.0
    for value in (out.r_sec, out.per_pulse):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_bb84_rate_refusals(b92_setup, detector):
    with pytest.raises(ValueError, match="BB84 baseline"):
        bb84_secret_rate(b92_setup, detector)
    setup = SetupConfig(protocol=Protocol.BB84_STANDARD, mu=0.3, t_db=65.0,
                        length_km=10.0, pulse_rate_hz=5e6)
    with pytest.raises(ValueError, match="0 < eta < 1"):
        bb84_pns_bounds(setup, DetectorConfig(eta=1.0))


def test_bb84_decomposition_identity(detector):
    for proto, length in ((Protocol.BB84_STANDARD, 15.0), (Protocol.BB84_DECOY, 40.0)):
        setup = SetupConfig(protocol=proto, mu=0.3, t_db=65.0,
                            length_km=length, pulse_rate_hz=5e6)
        out = bb84_secret_rate(setup, detector)
        assert out.r_sec_unclamped == pytest.approx(
            out.r_raw * (out.i_ab - out.i_e), rel=1e-12, abs=1e-12
        )
        assert 0.0 <= out.i_e <= 1.0


def test_decoy_beats_standard_at_long_distance(detector):
    kw = dict(mu=0.3, t_db=65.0, length_km=50.0, pulse_rate_hz=5e6)
    std = bb84_secret_rate(SetupConfig(protocol=Protocol.BB84_STANDARD, **kw), detector)
    dec = bb84_secret_rate(SetupConfig(protocol=Protocol.BB84_DECOY, **kw), detector)
    assert std.r_sec == 0.0
    assert dec.r_sec > 0.0


def test_secret_rate_dispatch(b92_setup, detector):
    i_e = maximize_eve_information(b92_setup, detector).best.i_e
    assert secret_rate(b92_setup, detector) == sr_secret_rate(b92_setup, detector, i_e)
    setup = SetupConfig(protocol=Protocol.BB84_DECOY, mu=0.3, t_db=65.0,
                        length_km=10.0, pulse_rate_hz=5e6)
    assert secret_rate(setup, detector) == bb84_secret_rate(setup, detector)
