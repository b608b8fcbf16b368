"""End-to-end acceptance checks: one test (and one printed verdict line) per criterion."""

import math
import time

import numpy as np

from srqkd import (
    AttackKind,
    DecoyConfig,
    DetectorConfig,
    GridSpec,
    Protocol,
    SetupConfig,
    SimConfig,
    attack_point,
    beam_splitting_information,
    build_povm,
    decoy_bounds,
    derive_channel,
    maximize_eve_information,
    min_srp_photons,
    optimize_mu,
    outcome_probabilities,
    rate_vs_distance,
    simulate,
    span_states,
    train_capacity,
    transmittance,
)

from oracles import b_interval, rate_residual, unitarity_residual


def _verdict(n: int, ok: bool, detail: str) -> str:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def _b92(mu, length_km, t_db=65.0):
    return SetupConfig(protocol=Protocol.B92_SR, mu=mu, t_db=t_db,
                       length_km=length_km, pulse_rate_hz=5e6)


def test_criterion_01_optimal_signal_intensity(detector):
    start = time.perf_counter()
    near = optimize_mu(10.0, 65.0, detector)
    far = optimize_mu(50.0, 65.0, detector)
    elapsed = time.perf_counter() - start
    ok = (near.found and 0.30 <= near.mu_opt <= 0.40
          and far.found and 0.10 <= far.mu_opt <= 0.20
          and elapsed < 30.0)
    detail = (f"mu_opt(10km)={near.mu_opt:.4f} in [0.30,0.40], "
              f"mu_opt(50km)={far.mu_opt:.4f} in [0.10,0.20], {elapsed:.1f}s")
    assert ok, _verdict(1, ok, detail)
    _verdict(1, ok, detail)


def test_criterion_02_srp_brightness_thresholds(detector):
    start = time.perf_counter()
    near = min_srp_photons(10.0, detector)
    far = min_srp_photons(50.0, detector, criterion="0.99-of-max")
    elapsed = time.perf_counter() - start
    ok = (2e4 <= near.nu_threshold <= 8e4
          and far.nu_threshold > 5e5
          and elapsed < 120.0)
    detail = (f"nu_min(10km)={near.nu_threshold:.3g} within x2 of 4e4, "
              f"nu_99%(50km)={far.nu_threshold:.3g} > 5e5, {elapsed:.0f}s")
    assert ok, _verdict(2, ok, detail)
    _verdict(2, ok, detail)


def test_criterion_03_protocol_comparison(detector):
    start = time.perf_counter()
    comp = rate_vs_distance(
        [Protocol.B92_SR, Protocol.BB84_STANDARD, Protocol.BB84_DECOY],
        detector, GridSpec().l_values())
    elapsed = time.perf_counter() - start
    b92 = {r.length_km: r.r_sec_hz for r in comp.rows if r.protocol == "b92-sr"}
    dec = {r.length_km: r.r_sec_hz for r in comp.rows if r.protocol == "bb84-decoy"}
    ratio = b92[20.0] / dec[20.0]
    cross = comp.crossover_km
    ok = ratio > 4.0 and cross is not None and 45.0 <= cross <= 75.0 and elapsed < 300.0
    cross_text = "none" if cross is None else f"{cross:.1f} km"
    detail = (f"rate ratio at 20km = {ratio:.3f} (require > 4), "
              f"crossover = {cross_text} (require 60±15), {elapsed:.0f}s")
    assert ok, _verdict(3, ok, detail)
    _verdict(3, ok, detail)


def test_criterion_04_attack_constraint_residuals(detector):
    rng = np.random.default_rng(1000)
    worst_unitarity = worst_rate = 0.0
    count = 0
    while count < 1000:
        setup = _b92(rng.uniform(0.05, 1.0), rng.uniform(0.0, 60.0),
                     t_db=rng.uniform(55.0, 85.0))
        delta = derive_channel(setup, detector).delta
        if delta >= 0.5:
            continue
        b_lo, b_hi = b_interval(setup, detector)
        if b_lo >= b_hi:
            continue
        pt = attack_point(rng.uniform(b_lo, b_hi), setup, detector)
        mu_prime = derive_channel(setup, detector).mu_prime
        worst_unitarity = max(worst_unitarity,
                              unitarity_residual(pt.p, pt.a, pt.b, setup.mu))
        worst_rate = max(worst_rate,
                         rate_residual(pt.p, pt.beta_s_sq, pt.beta_f_sq,
                                       detector.eta, mu_prime))
        count += 1
    ok = worst_unitarity < 1e-9 and worst_rate < 1e-9
    detail = (f"1000 points: max unitarity residual {worst_unitarity:.2e}, "
              f"max rate residual {worst_rate:.2e} (require < 1e-9)")
    assert ok, _verdict(4, ok, detail)
    _verdict(4, ok, detail)


def test_criterion_05_beam_splitting_reduction():
    # A noiseless monitor (nep=0) gives delta=0 identically.
    clean = DetectorConfig(nep=0.0)
    worst = 0.0
    for mu in np.linspace(0.1, 0.9, 5):
        for length in np.linspace(0.0, 60.0, 5):
            setup = _b92(float(mu), float(length))
            sol = maximize_eve_information(setup, clean)
            ref = beam_splitting_information(setup.mu, derive_channel(setup, clean).mu_prime)
            worst = max(worst, abs(sol.best.i_e - ref))
    ok = worst < 1e-8
    detail = f"5x5 grid at delta=0: max |I_E - chi(mu-mu')| = {worst:.2e} (require < 1e-8)"
    assert ok, _verdict(5, ok, detail)
    _verdict(5, ok, detail)


def test_criterion_06_povm_suite():
    rng = np.random.default_rng(2000)
    worst = {"completeness": 0.0, "eigen": 0.0, "cross": 0.0, "inconclusive": 0.0}
    for mu in rng.uniform(1e-3, 3.0, size=100):
        cg = math.exp(-2.0 * mu)
        povm = build_povm(cg)
        psi0, psi1 = span_states(cg)
        p0 = outcome_probabilities(povm, psi0)
        p1 = outcome_probabilities(povm, psi1)
        worst["completeness"] = max(worst["completeness"], povm.completeness_residual())
        worst["eigen"] = min(worst["eigen"], povm.min_eigenvalue())
        worst["cross"] = max(worst["cross"], abs(p0[1]), abs(p1[0]))
        worst["inconclusive"] = max(worst["inconclusive"],
                                    abs(p0[2] - cg), abs(p1[2] - cg))
    ok = (worst["completeness"] < 1e-10 and worst["eigen"] > -1e-10
          and worst["cross"] < 1e-10 and worst["inconclusive"] < 1e-10)
    detail = (f"100 random mu: completeness {worst['completeness']:.1e}, "
              f"min eigenvalue {worst['eigen']:.1e}, cross-click {worst['cross']:.1e}, "
              f"|p_inc - e^(-2mu)| {worst['inconclusive']:.1e} (all vs 1e-10)")
    assert ok, _verdict(6, ok, detail)
    _verdict(6, ok, detail)


def test_criterion_07_monte_carlo_vs_analytic(detector):
    setup = _b92(0.3, 10.0)
    n = 10_000_000
    start = time.perf_counter()
    quiet = simulate(setup, detector, SimConfig(n_pulses=n, seed=424242))
    attacked = simulate(setup, detector, SimConfig(
        n_pulses=n, seed=424243, attack=AttackKind.SOFT_FILTER))
    elapsed = time.perf_counter() - start

    q_th = derive_channel(setup, detector).qber
    z_q = abs(quiet.qber_hat - q_th) / math.sqrt(
        q_th * (1.0 - q_th) / quiet.conclusive_count)
    r_th = -math.expm1(-2.0 * detector.eta * derive_channel(setup, detector).mu_prime)
    z_r = abs(attacked.rate_hat - r_th) / math.sqrt(r_th * (1.0 - r_th) / n)
    ok = z_q < 3.0 and z_r < 3.0 and elapsed < 60.0
    detail = (f"n=1e7: QBER off by {z_q:.2f} sigma, attacked conclusive fraction off by "
              f"{z_r:.2f} sigma (require < 3), {elapsed:.1f}s")
    assert ok, _verdict(7, ok, detail)
    _verdict(7, ok, detail)


def test_criterion_08_decoy_sandwich(detector):
    rng = np.random.default_rng(3000)
    violations = 0
    for _ in range(100):
        mu = rng.uniform(0.05, 1.0)
        length = rng.uniform(0.0, 60.0)
        y = decoy_bounds(mu, DecoyConfig(), detector, length)
        t = transmittance(length)
        y1_true = 2.0 * detector.p_dc + detector.eta * t
        q1_true = mu * math.exp(-mu) * y1_true
        e1_true = (detector.p_dc + detector.p_opt * detector.eta * t) / y1_true
        if not (y.y0 <= 2.0 * detector.p_dc + 1e-12
                and y.q1_lower <= q1_true + 1e-12
                and y.e1_upper >= e1_true - 1e-12):
            violations += 1
    ok = violations == 0
    detail = f"100 random (mu, L): {violations} sandwich violations (require 0)"
    assert ok, _verdict(8, ok, detail)
    _verdict(8, ok, detail)


def test_criterion_09_monitor_precision_prefactor(detector):
    k = detector.monitor_photon_uncertainty
    delta = derive_channel(_b92(0.3, 10.0), detector).delta
    ok = abs(k / 1.38e4 - 1.0) < 0.01 and abs(delta / 0.0231 - 1.0) < 0.01
    detail = (f"prefactor {k:.6g} vs 1.38e4 ({abs(k / 1.38e4 - 1) * 100:.2f}%), "
              f"delta(0.3, 10km, 65dB) = {delta:.6g} vs 0.0231 "
              f"({abs(delta / 0.0231 - 1) * 100:.2f}%)")
    assert ok, _verdict(9, ok, detail)
    _verdict(9, ok, detail)


def test_criterion_10_train_capacity():
    capacity = train_capacity(10.0, 5e6, n_fib=1.47)
    ok = capacity == 245
    detail = f"train_capacity(10 km, 5 MHz, 1.47) = {capacity} (require exactly 245)"
    assert ok, _verdict(10, ok, detail)
    _verdict(10, ok, detail)
