"""Monte-Carlo detection model against the closed-form expectations."""

import math

import numpy as np
import pytest

from srqkd import (
    AttackKind,
    DetectorConfig,
    DoubleClickPolicy,
    Protocol,
    SetupConfig,
    SimConfig,
    derive_channel,
    maximize_eve_information,
    simulate,
    wilson_interval,
)


def _sigma_distance(observed, expected, trials):
    spread = math.sqrt(max(expected * (1.0 - expected), 1e-12) / trials)
    return abs(observed - expected) / spread


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(0, 100)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_interval(100, 100)[1] == 1.0
    # Interval shrinks with more data.
    lo2, hi2 = wilson_interval(5000, 10000)
    assert hi2 - lo2 < hi - lo


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_pulses=0, seed=1)
    with pytest.raises(ValueError, match="attack_point"):
        SimConfig(n_pulses=10, seed=1, attack=AttackKind.SOFT_FILTER)
    # String values coerce to the enums.
    cfg = SimConfig(n_pulses=10, seed=1, attack="beam-split", double_click="random-bit")
    assert cfg.attack is AttackKind.BEAM_SPLIT
    assert cfg.double_click is DoubleClickPolicy.RANDOM_BIT


def test_reproducible_runs(b92_setup, detector):
    cfg = SimConfig(n_pulses=300_000, seed=987)
    assert simulate(b92_setup, detector, cfg) == simulate(b92_setup, detector, cfg)
    other = simulate(b92_setup, detector, SimConfig(n_pulses=300_000, seed=988))
    assert other.conclusive_count != simulate(b92_setup, detector, cfg).conclusive_count


def test_block_splitting_is_transparent(b92_setup, detector):
    # Crossing the block boundary changes nothing structural: counts stay
    # consistent and the estimates remain near the closed forms.
    cfg = SimConfig(n_pulses=1_200_000, seed=5)
    res = simulate(b92_setup, detector, cfg)
    assert res.n_pulses == 1_200_000
    assert 0 < res.error_count < res.conclusive_count < res.n_pulses
    assert res.qber_hat == res.error_count / res.conclusive_count


def test_noiseless_detector_gives_zero_qber(b92_setup):
    clean = DetectorConfig(p_dc=0.0, p_opt=0.0)
    res = simulate(b92_setup, clean, SimConfig(n_pulses=1_000_000, seed=3))
    assert res.error_count == 0
    assert res.qber_hat == 0.0
    # Conclusive fraction still matches 1 - exp(-2*eta*mu').
    expected = -math.expm1(-2.0 * clean.eta * derive_channel(b92_setup, clean).mu_prime)
    assert _sigma_distance(res.rate_hat, expected, res.n_pulses) < 4.0


def test_estimates_match_closed_forms_grid(detector):
    """QBER and conclusive rate agree with theory over a (mu, L) grid."""
    n = 400_000
    hits = 0
    cases = [(mu, length) for mu in (0.1, 0.3, 0.6) for length in (0.0, 10.0, 30.0)]
    for i, (mu, length) in enumerate(cases):
        setup = SetupConfig(protocol=Protocol.B92_SR, mu=mu, t_db=65.0,
                            length_km=length, pulse_rate_hz=5e6)
        res = simulate(setup, detector, SimConfig(n_pulses=n, seed=100 + i))
        expected_q = derive_channel(setup, detector).qber
        expected_r = -math.expm1(-2.0 * detector.eta * derive_channel(setup, detector).mu_prime)
        ok_rate = _sigma_distance(res.rate_hat, expected_r, n) < 3.0
        ok_qber = _sigma_distance(res.qber_hat, expected_q, res.conclusive_count) < 3.0
        hits += ok_rate and ok_qber
    assert hits >= len(cases) - 1  # allow one 3-sigma excursion


def test_soft_filter_preserves_bobs_rate(b92_setup, detector):
    """The attack is calibrated so Bob's conclusive rate is unchanged."""
    n = 2_000_000
    sol = maximize_eve_information(b92_setup, detector)
    attacked = simulate(b92_setup, detector, SimConfig(
        n_pulses=n, seed=77, attack=AttackKind.SOFT_FILTER, attack_point=sol.best))
    quiet = simulate(b92_setup, detector, SimConfig(n_pulses=n, seed=78))
    expected = -math.expm1(-2.0 * detector.eta * derive_channel(b92_setup, detector).mu_prime)
    assert _sigma_distance(attacked.rate_hat, expected, n) < 3.5
    assert _sigma_distance(quiet.rate_hat, expected, n) < 3.5


def test_double_click_policies(b92_setup, detector):
    n = 1_000_000
    discard = simulate(b92_setup, detector, SimConfig(
        n_pulses=n, seed=55, double_click=DoubleClickPolicy.DISCARD))
    keep = simulate(b92_setup, detector, SimConfig(
        n_pulses=n, seed=55, double_click=DoubleClickPolicy.RANDOM_BIT))
    # Same stream: keeping double clicks can only add conclusive events.
    assert keep.conclusive_count >= discard.conclusive_count
    # Double clicks are rare (order p_click * p_dc), so the difference is small.
    assert keep.conclusive_count - discard.conclusive_count < 50 * math.sqrt(n)


def test_result_invariants_enforced():
    from srqkd import SimResult
    with pytest.raises(ValueError):
        SimResult(n_pulses=10, conclusive_count=11, error_count=0,
                  qber_hat=0.0, rate_hat=1.1, qber_ci=(0, 0), rate_ci=(0, 1))
    with pytest.raises(ValueError):
        SimResult(n_pulses=10, conclusive_count=5, error_count=6,
                  qber_hat=1.0, rate_hat=0.5, qber_ci=(0, 1), rate_ci=(0, 1))
