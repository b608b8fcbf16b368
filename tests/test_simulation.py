"""Monte-Carlo detection model against the closed-form expectations.

The sampler draws pattern counts; ``_reference_counts`` is the per-pulse
sampler it replaced, kept here as a distribution oracle.
"""

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
from srqkd import simulation


def _reference_counts(rng, n, setup, detector, config):
    """Per-pulse arrays of every event; returns (conclusive, errors)."""
    if config.attack is AttackKind.SOFT_FILTER:
        point = maximize_eve_information(setup, detector).best
        success = rng.random(n) < point.p
        intensity = np.where(success, point.beta_s_sq, point.beta_f_sq)
    else:
        intensity = np.full(n, derive_channel(setup, detector).mu_prime)
    p_click = -np.expm1(-2.0 * detector.eta * np.clip(intensity, 0.0, None))

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


# A grey-region setup (delta 2.30) whose soft-filtering optimum sends pulses
# down both branches, the failure branch at a negative intensity, so the
# sampler's clip is reached. The attack reads only eta, mu' and delta, so
# _NOISY has the same optimum.
_GREY = SetupConfig(protocol=Protocol.B92_SR, mu=0.3, t_db=45.0, length_km=10.0,
                    pulse_rate_hz=5e6)
# Dark counts this frequent make double clicks common enough to test.
_NOISY = DetectorConfig(p_dc=0.05, p_opt=0.1)


def _sim_config(n, seed, attack, policy):
    return SimConfig(n_pulses=n, seed=seed, attack=attack, double_click=policy)


def _sampled(setup, attack):
    """The setup a run of this attack samples: the grey one under soft filtering."""
    return _GREY if attack == AttackKind.SOFT_FILTER else setup


_ATTACKS = [kind.value for kind in AttackKind]
_POLICIES = [policy.value for policy in DoubleClickPolicy]


def _expected_fractions(setup, detector, config):
    """Per-pulse (conclusive, error) probabilities of the detection model."""
    if config.attack is AttackKind.SOFT_FILTER:
        point = maximize_eve_information(setup, detector).best
        weights = ((point.p, point.beta_s_sq), (1.0 - point.p, point.beta_f_sq))
    else:
        weights = ((1.0, derive_channel(setup, detector).mu_prime),)
    c = sum(w * (1.0 - math.exp(-2.0 * detector.eta * max(x, 0.0))) for w, x in weights)
    d = detector.p_dc
    # Given a signal click: conclusive 1-d, an error p_opt*(1-d), a double
    # click d. Without one: 2d(1-d), d(1-d) and d^2.
    conclusive = c * (1.0 - d) + (1.0 - c) * 2.0 * d * (1.0 - d)
    errors = c * detector.p_opt * (1.0 - d) + (1.0 - c) * d * (1.0 - d)
    if config.double_click is DoubleClickPolicy.RANDOM_BIT:
        doubles = c * d + (1.0 - c) * d * d
        conclusive += doubles
        errors += doubles / 2.0
    return conclusive, errors


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


def test_wilson_interval_contains_its_estimate():
    # center -/+ half cancelled to 2.2e-19 at (0, 1000) and to 1 - 1.1e-16 at
    # (10, 10): an interval beside its own estimate.
    for n in [*range(1, 2001), 10**12]:
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0
    rng = np.random.default_rng(25)
    for n in np.unique((10.0 ** rng.uniform(0.0, 15.0, size=2000)).astype(np.int64)):
        n = int(n)
        for s in (0, n, int(rng.integers(0, n, endpoint=True))):
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_pulses=0, seed=1)
    with pytest.raises(ValueError, match="n_pulses"):
        SimConfig(n_pulses=2**63, seed=1)
    # String values coerce to the enums.
    cfg = SimConfig(n_pulses=10, seed=1, attack="beam-split", double_click="random-bit")
    assert cfg.attack is AttackKind.BEAM_SPLIT
    assert cfg.double_click is DoubleClickPolicy.RANDOM_BIT


def test_reproducible_runs(b92_setup, detector):
    cfg = SimConfig(n_pulses=300_000, seed=987)
    assert simulate(b92_setup, detector, cfg) == simulate(b92_setup, detector, cfg)
    other = simulate(b92_setup, detector, SimConfig(n_pulses=300_000, seed=988))
    assert other.conclusive_count != simulate(b92_setup, detector, cfg).conclusive_count


def test_counts_are_consistent(b92_setup, detector):
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
    attacked = simulate(b92_setup, detector, SimConfig(
        n_pulses=n, seed=77, attack=AttackKind.SOFT_FILTER))
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


def test_grey_setup_reaches_both_branches_and_the_clip():
    for detector_ in (DetectorConfig(), _NOISY):
        point = maximize_eve_information(_GREY, detector_).best
        assert 0.0 < point.p < 1.0
        assert point.beta_f_sq < 0.0 < point.beta_s_sq


@pytest.mark.parametrize("attack", _ATTACKS)
def test_soft_filter_samples_eves_optimum_for_its_setup(monkeypatch, b92_setup, attack):
    # Eve's point is solved for the setup being sampled, once per run, and
    # only under the soft-filter attack.
    calls = []

    def maximizer(setup, detector):
        calls.append((setup, detector))
        return maximize_eve_information(setup, detector)

    monkeypatch.setattr(simulation, "maximize_eve_information", maximizer)
    for setup in (_GREY, b92_setup):
        calls.clear()
        simulate(setup, _NOISY, SimConfig(n_pulses=1000, seed=1, attack=attack))
        assert calls == ([(setup, _NOISY)] if attack == "soft-filter" else [])


def test_policies_share_draws_under_soft_filter():
    # The random-bit coin is the last draw, so at one seed random-bit adds
    # the double clicks, and some of them as errors, to discard's counts.
    discard, keep = (simulate(_GREY, _NOISY, _sim_config(100_000, 9, "soft-filter", policy))
                     for policy in _POLICIES)
    doubles = keep.conclusive_count - discard.conclusive_count
    assert doubles > 0
    assert 0 <= keep.error_count - discard.error_count <= doubles


@pytest.mark.parametrize("policy", _POLICIES)
@pytest.mark.parametrize("attack", _ATTACKS)
def test_matches_per_pulse_reference(b92_setup, attack, policy):
    """Mean counts agree with the per-pulse sampler within 5 standard errors."""
    n, runs = 20_000, 300
    setup = _sampled(b92_setup, attack)
    fast = np.array([
        (res.conclusive_count, res.error_count) for res in (
            simulate(setup, _NOISY, _sim_config(n, seed, attack, policy))
            for seed in range(runs))])
    config = _sim_config(n, 0, attack, policy)
    slow = np.array([_reference_counts(np.random.default_rng(10_000 + seed), n, setup,
                                       _NOISY, config) for seed in range(runs)])
    stderr = np.sqrt((fast.var(axis=0, ddof=1) + slow.var(axis=0, ddof=1)) / runs)
    assert np.all(np.abs(fast.mean(axis=0) - slow.mean(axis=0)) < 5.0 * stderr)
    # The mean also sits on the closed forms.
    expected = n * np.array(_expected_fractions(setup, _NOISY, config))
    assert np.all(np.abs(fast.mean(axis=0) - expected) < 5.0 * stderr)


@pytest.mark.parametrize("detector_", [DetectorConfig(), _NOISY], ids=["reference", "noisy"])
def test_trillion_pulses_match_closed_forms(b92_setup, detector_, address_space_cap):
    # A per-pulse sampler could not finish this run.
    n = 10**12
    for config in (_sim_config(n, 2024, attack, policy)
                   for attack in _ATTACKS for policy in _POLICIES):
        setup = _sampled(b92_setup, config.attack)
        res = simulate(setup, detector_, config)
        p_conclusive, p_error = _expected_fractions(setup, detector_, config)
        for count, p in ((res.conclusive_count, p_conclusive), (res.error_count, p_error)):
            assert abs(count - n * p) < 5.0 * math.sqrt(n * p * (1.0 - p)), config


def test_result_invariants_enforced():
    from srqkd import SimResult
    with pytest.raises(ValueError):
        SimResult(n_pulses=10, conclusive_count=11, error_count=0,
                  qber_hat=0.0, rate_hat=1.1, qber_ci=(0, 0), rate_ci=(0, 1))
    with pytest.raises(ValueError):
        SimResult(n_pulses=10, conclusive_count=5, error_count=6,
                  qber_hat=1.0, rate_hat=0.5, qber_ci=(0, 1), rate_ci=(0, 1))
