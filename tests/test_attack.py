"""Soft-filtering attack: constraint identities, feasible interval, maximizer."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from srqkd import (
    ChannelDerived,
    DetectorConfig,
    Protocol,
    SetupConfig,
    attack_point,
    beam_splitting_information,
    derive_channel,
    holevo_chi,
    maximize_eve_information,
    monitoring_unacceptable,
)
from srqkd.attack import (
    AttackPoint,
    edge_information,
    _expm1,
    _Terms,
    _information_curve,
    _objective,
    _setup_terms,
    _terms,
    scan_information,
)
from srqkd.optimize import golden_max

from oracles import (
    amplification,
    b_interval,
    rate_residual,
    success_probability,
    unitarity_residual,
)

# Frozen at the reference setup (mu=0.3, t=65dB, L=10km, default detector)
# against a from-scratch evaluation of the filtering formulas.
P_SUCCESS_REF = 0.5004361941798458
I_E_REF = 0.4671499900277298
B_BEST_REF = 0.9605485717597004


def _h2(x: float) -> float:
    # Local binary entropy so the oracle route shares nothing with the package.
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _chi(intensity: float) -> float:
    return _h2((1.0 - math.exp(-2.0 * intensity)) / 2.0)


def _random_feasible_setups(n, rng):
    detector = DetectorConfig()
    out = []
    while len(out) < n:
        mu = rng.uniform(0.05, 1.0)
        t_db = rng.uniform(55.0, 85.0)
        length = rng.uniform(0.0, 60.0)
        setup = SetupConfig(protocol=Protocol.B92_SR, mu=mu, t_db=t_db,
                            length_km=length, pulse_rate_hz=5e6)
        delta = derive_channel(setup, detector).delta
        if delta >= 0.5:
            continue
        b_lo, b_hi = b_interval(setup, detector)
        if b_lo >= b_hi:
            continue
        out.append((setup, detector, delta, b_lo, b_hi))
    return out


def test_success_probability():
    assert success_probability(0.2, 0.19, 0.0) == 0.5
    # p > 1/2 whenever the filter has something to discriminate.
    assert success_probability(0.2, 0.19, 0.02) > 0.5


def test_amplification_identity_at_full_transmission():
    # b = 1 leaves nothing to compensate, so a = 1 for any delta.
    for delta in (0.0, 0.02, 0.4):
        assert amplification(1.0, 0.3, 0.2, 0.19, delta) == pytest.approx(1.0, abs=1e-15)
    # Stronger attenuation demands stronger amplification.
    a_weak = amplification(0.95, 0.3, 0.2, 0.19, 0.02)
    a_strong = amplification(0.80, 0.3, 0.2, 0.19, 0.02)
    assert a_strong > a_weak > 1.0


def test_amplification_infeasible_raises():
    # Deep attenuation at high delta pushes the unitarity log argument <= 0.
    with pytest.raises(ValueError, match="infeasible"):
        amplification(0.0, 2.0, 0.9, 1.9, 0.45)


# Largest argument with a finite math.expm1, and the next float up.
_LAST_FINITE = math.log(sys.float_info.max)
_FIRST_OVERFLOW = math.nextafter(_LAST_FINITE, math.inf)


def test_expm1_overflow_reads_as_inf():
    assert _expm1(_LAST_FINITE) == math.expm1(_LAST_FINITE) < math.inf
    with pytest.raises(OverflowError):
        math.expm1(_FIRST_OVERFLOW)
    assert _expm1(_FIRST_OVERFLOW) == math.inf


def test_large_attenuation_argument_is_infeasible():
    # 2*mu*(1 - b) = 800 at b = 0: the unitarity log argument is -inf, so b is
    # infeasible, where math.expm1 used to raise OverflowError.
    mu, eta, mu_prime, delta = 400.0, 0.2, 0.63, 1e-5
    channel = ChannelDerived(transmittance=mu_prime / mu, mu_prime=mu_prime, delta=delta,
                             qber=0.0)
    terms = _terms(mu, eta, channel)
    assert _objective(terms)(0.0) == -math.inf
    with pytest.raises(ValueError, match="infeasible"):
        amplification(0.0, mu, eta, mu_prime, delta)
    with np.errstate(over="ignore"):
        curve = _information_curve(np.array([0.0, 1.0]), terms)
    assert curve[0] == -math.inf
    assert curve[1] == _objective(terms)(1.0)


@pytest.mark.parametrize("mu", [1000.0, 1e300])
def test_large_signal_intensity(detector, mu):
    # 2*(mu - mu'(1 + delta)) passes the largest finite expm1 argument: the
    # upper bound of the b-interval is the unitarity limit b_max = 1.
    setup = SetupConfig(protocol=Protocol.B92_SR, mu=mu, t_db=65.0, length_km=10.0,
                        pulse_rate_hz=5e6)
    assert b_interval(setup, detector)[1] == 1.0
    sol = maximize_eve_information(setup, detector)
    assert sol.b_max == 1.0
    assert sol.b_min <= sol.best.b <= sol.b_max
    assert 0.0 <= sol.best.i_e <= 1.0
    assert sol.interval_empty == (mu == 1e300)


def test_constraint_identities_random_points():
    """Closed forms must satisfy the defining equations they were solved from."""
    rng = np.random.default_rng(41)
    for setup, detector, delta, b_lo, b_hi in _random_feasible_setups(60, rng):
        channel = derive_channel(setup, detector)
        mu, eta, mu_prime = setup.mu, detector.eta, channel.mu_prime
        b = rng.uniform(b_lo, b_hi)
        pt = attack_point(b, setup, detector)

        # Oracle route: p straight from its definition, a by solving the
        # unitarity equation numerically instead of via the closed form.
        p_lit = 1.0 / (1.0 + math.exp(-2.0 * eta * mu_prime * delta))
        assert pt.p == pytest.approx(p_lit, rel=1e-14)
        a_solved = -math.log(
            (math.exp(-2.0 * mu) - (1.0 - p_lit) * math.exp(-2.0 * b * mu)) / p_lit
        ) / (2.0 * mu)
        assert pt.a == pytest.approx(a_solved, rel=1e-10, abs=1e-12)

        assert unitarity_residual(pt.p, pt.a, pt.b, mu) < 1e-12
        assert rate_residual(pt.p, pt.beta_s_sq, pt.beta_f_sq, eta, mu_prime) < 1e-12
        assert pt.eps_s_sq == pytest.approx(pt.a * mu - mu_prime * (1.0 + delta), abs=1e-12)
        assert pt.eps_f_sq == pytest.approx(pt.b * mu - mu_prime * (1.0 - delta), abs=1e-12)


def test_information_literal_reimplementation():
    """i_e agrees with a from-scratch composition of its defining pieces."""
    rng = np.random.default_rng(42)
    for setup, detector, delta, b_lo, b_hi in _random_feasible_setups(40, rng):
        channel = derive_channel(setup, detector)
        mu, eta, mu_prime = setup.mu, detector.eta, channel.mu_prime
        b = rng.uniform(b_lo, b_hi)
        pt = attack_point(b, setup, detector)

        p = 1.0 / (1.0 + math.exp(-2.0 * eta * mu_prime * delta))
        a = -math.log(
            (math.exp(-2.0 * mu) - (1.0 - p) * math.exp(-2.0 * b * mu)) / p
        ) / (2.0 * mu)
        w_s = 1.0 - math.exp(-2.0 * eta * mu_prime * (1.0 + delta))
        w_f = 1.0 - math.exp(-2.0 * eta * mu_prime * (1.0 - delta))
        conclusive = 1.0 - math.exp(-2.0 * eta * mu_prime)
        i_lit = (p * w_s * _chi(max(a * mu - mu_prime * (1.0 + delta), 0.0))
                 + (1.0 - p) * w_f * _chi(max(b * mu - mu_prime * (1.0 - delta), 0.0))
                 ) / conclusive
        assert pt.i_e == pytest.approx(min(max(i_lit, 0.0), 1.0), rel=1e-9, abs=1e-12)


def _information_by_holevo_chi(b, terms, eta):
    # The objective composed from its reference functions: amplification's
    # feasibility test and a, and holevo_chi on each clamped branch.
    try:
        a = amplification(b, terms.mu, eta, terms.channel.mu_prime, terms.channel.delta)
    except ValueError:
        return -math.inf
    eps_s = a * terms.mu - terms.mu_max
    eps_f = b * terms.mu - terms.mu_min
    if not (eps_s >= -1e-12 and eps_f >= -1e-12):
        return -math.inf
    if terms.conclusive <= 0.0:
        return 0.0
    info = (terms.success * holevo_chi(max(eps_s, 0.0))
            + terms.fail * holevo_chi(max(eps_f, 0.0))) / terms.conclusive
    return min(max(info, 0.0), 1.0)


def test_objective_is_the_holevo_chi_composition():
    # _objective writes holevo_chi out inline. It must return the composed
    # float bit for bit: at both edges, inside, and at the maximizer's optimum,
    # on wide draws that reach the grey region (delta > 1, where
    # mu'(1 - delta) < 0 and the fail weight is negative).
    rng = np.random.default_rng(20261020)
    feasible, grey, finite = 0, 0, 0
    for _ in range(1500):
        detector = DetectorConfig(eta=rng.uniform(0.05, 1.0),
                                  p_dc=10.0 ** rng.uniform(-7.0, -2.0))
        setup = SetupConfig(protocol=Protocol.B92_SR, mu=10.0 ** rng.uniform(-3.0, 0.477),
                            t_db=rng.uniform(30.0, 95.0), length_km=rng.uniform(0.0, 150.0),
                            pulse_rate_hz=5e6)
        terms = _setup_terms(setup, detector)
        if terms.b_min >= terms.b_max:
            continue
        feasible += 1
        grey += terms.mu_min < 0.0
        inside = terms.b_min + rng.uniform(size=3) * (terms.b_max - terms.b_min)
        best = maximize_eve_information(setup, detector).best.b
        information = _objective(terms)
        for b in (terms.b_min, terms.b_max, *map(float, inside), best):
            value = information(b)
            assert repr(value) == repr(_information_by_holevo_chi(b, terms, detector.eta)), (
                setup, b)
            finite += math.isfinite(value)
    assert feasible > 300 and grey > 50 and finite > 5 * feasible


def test_inline_chi_is_holevo_chi_at_edge_intensities():
    # q = 0 makes a = 1 exactly. With mu = 1 and mu_min = 0, eps_f is b itself
    # and eps_s = mu - mu_max = 0, so the fail branch alone scores b.
    channel = ChannelDerived(transmittance=0.0, mu_prime=0.0, delta=0.0, qber=0.0)
    fail_only = _Terms(mu=1.0, channel=channel, b_min=0.0, b_max=1.0, q=0.0, p=1.0,
                       mu_max=1.0, mu_min=0.0, conclusive=1.0, success=0.0, fail=1.0)
    # From eps = 19 on, x = (1 - exp(-2*eps))/2 rounds to 1/2; at 18.5 it does not.
    assert [-math.expm1(-2.0 * eps) / 2.0 for eps in (18.5, 19.0)] == [
        0.49999999999999994, 0.5]
    for eps in (0.0, -0.0, 5e-324, 1e-300, 1e-17, 0.3, 18.5, 19.0, 1e3):
        assert repr(_objective(fail_only)(eps)) == repr(holevo_chi(max(eps, 0.0))), eps
        if eps > 0.0:
            # mu = eps and mu_max = 0 give eps_s = eps; b = 1 gives eps_f = 0.
            success_only = fail_only._replace(mu=eps, mu_max=0.0, mu_min=eps,
                                              success=1.0, fail=0.0)
            assert repr(_objective(success_only)(1.0)) == repr(holevo_chi(eps)), eps
    # holevo_chi's refusal of a non-finite intensity stays.
    with pytest.raises(ValueError, match="intensity must be finite and >= 0, got inf"):
        _objective(fail_only)(math.inf)
    # Each branch refuses it: at b = 1, a = 1 and eps_s = mu - mu_max overflows.
    huge = fail_only._replace(mu=8e307, mu_max=-1.7e308, mu_min=8e307,
                              success=1.0, fail=0.0)
    with pytest.raises(ValueError, match="intensity must be finite and >= 0, got inf"):
        _objective(huge)(1.0)


def test_b_interval_reference(b92_setup, detector):
    b_lo, b_hi = b_interval(b92_setup, detector)
    assert 0.0 <= b_lo < b_hi <= 1.0
    # Interior points feasible, outside points rejected.
    mid = 0.5 * (b_lo + b_hi)
    assert math.isfinite(attack_point(mid, b92_setup, detector).i_e)
    with pytest.raises(ValueError, match="outside feasible interval"):
        attack_point(b_lo - 0.05, b92_setup, detector)


def test_frozen_reference_point(b92_setup, detector):
    sol = maximize_eve_information(b92_setup, detector)
    assert sol.best.p == pytest.approx(P_SUCCESS_REF, rel=1e-12)
    assert sol.best.i_e == pytest.approx(I_E_REF, rel=1e-9)
    assert sol.best.b == pytest.approx(B_BEST_REF, abs=1e-6)
    assert not sol.interval_empty
    assert not monitoring_unacceptable(sol.channel.delta)


def test_maximizer_reproducible_and_bounded(b92_setup, detector):
    first = maximize_eve_information(b92_setup, detector)
    second = maximize_eve_information(b92_setup, detector)
    assert first.best == second.best
    scan = scan_information(b92_setup, detector)
    assert scan == scan_information(b92_setup, detector)
    assert len(scan) == 2000
    assert 0.0 <= first.best.i_e <= 1.0
    assert (first.b_min, first.b_max) == b_interval(b92_setup, detector)
    assert (scan[0][0], scan[-1][0]) == b_interval(b92_setup, detector)
    # The returned optimum dominates every scanned point.
    finite = [v for _, v in scan if not math.isnan(v)]
    assert first.best.i_e >= max(finite) - 1e-12


def test_maximizer_beats_interior_samples(b92_setup, detector):
    sol = maximize_eve_information(b92_setup, detector)
    rng = np.random.default_rng(11)
    for b in rng.uniform(sol.b_min, sol.b_max, size=50):
        assert attack_point(float(b), b92_setup, detector).i_e <= sol.best.i_e + 1e-10


def test_empty_interval_falls_back_to_beam_splitting(detector):
    # Bright reference + long fiber + dim signal: monitoring is useless
    # (delta >> 1) and soft filtering has no feasible window.
    setup = SetupConfig(protocol=Protocol.B92_SR, mu=0.05, t_db=40.0,
                        length_km=50.0, pulse_rate_hz=5e6)
    sol = maximize_eve_information(setup, detector)
    assert sol.interval_empty
    assert monitoring_unacceptable(sol.channel.delta)
    assert sol.best.b == 1.0 and sol.best.a == 1.0
    mu_prime = derive_channel(setup, detector).mu_prime
    assert sol.best.i_e == beam_splitting_information(setup.mu, mu_prime)


def test_attack_point_reproduces_maximizer_best(detector):
    # The single-point path scores b with the objective that scored the
    # maximizer's candidates, so it reproduces the optimum bit for bit. A
    # 1-lane NumPy evaluation there differed in the last ulp or so at 12 of
    # the 331 feasible setups drawn here.
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(400):
        setup = SetupConfig(protocol=Protocol.B92_SR, mu=10.0 ** rng.uniform(-2.0, 0.0),
                            t_db=rng.uniform(40.0, 90.0),
                            length_km=float(rng.choice([0.0, 5.0, 10.0, 15.0, 25.0, 30.0])),
                            pulse_rate_hz=5e6)
        sol = maximize_eve_information(setup, detector)
        if sol.interval_empty:
            continue
        checked += 1
        assert attack_point(sol.best.b, setup, detector) == sol.best
    assert checked > 200


_VALID_POINT = dict(b=0.5, p=0.5, a=1.5, beta_s_sq=0.1, beta_f_sq=0.05, eps_s_sq=0.2,
                    eps_f_sq=0.1, i_e=0.3)


@pytest.mark.parametrize("field, value, message", [
    ("p", 0.0, "p must be"), ("p", 1.0 + 1e-9, "p must be"),
    ("b", -1e-300, "b must be"), ("b", 1.0 + 1e-9, "b must be"),
    ("a", 1.0 - 1e-9, "a must be"),
    ("eps_s_sq", -1e-9, "non-negative"), ("eps_f_sq", -1e-9, "non-negative"),
])
def test_attack_point_refuses_out_of_range_fields(field, value, message):
    AttackPoint(**_VALID_POINT)
    with pytest.raises(ValueError, match=message):
        AttackPoint(**{**_VALID_POINT, field: value})


def test_attack_point_refuses_an_infeasible_b(detector):
    # Deep in the grey region a b inside [b_min, b_max] can still have no
    # unitarity solution: at b_min here the objective is -inf, and
    # attack_point refuses that b instead of building a point.
    setup = SetupConfig(protocol=Protocol.B92_SR, mu=20000.0, t_db=0.0, length_km=100.0,
                        pulse_rate_hz=5e6)
    terms = _setup_terms(setup, detector)
    assert terms.b_min < terms.b_max and _objective(terms)(terms.b_min) == -math.inf
    with pytest.raises(ValueError, match="infeasible: unitarity has no solution"):
        attack_point(terms.b_min, setup, detector)


def test_point_p_and_a_are_the_reference_functions():
    # The points read p from the per-setup terms, not from
    # success_probability; both must still give the same float, and a is
    # amplification's. The draws reach deep into the grey region, where p
    # rounds to 1 and w_f = -expm1(-2*eta*mu'(1 - delta)) overflows.
    rng = np.random.default_rng(20261019)
    checked, saturated = 0, 0
    for _ in range(400):
        detector = DetectorConfig(eta=rng.uniform(0.05, 1.0))
        setup = SetupConfig(protocol=Protocol.B92_SR, mu=10.0 ** rng.uniform(-2.0, 4.5),
                            t_db=rng.uniform(0.0, 90.0), length_km=rng.uniform(0.0, 120.0),
                            pulse_rate_hz=5e6)
        channel = derive_channel(setup, detector)
        eta, mu_prime, delta = detector.eta, channel.mu_prime, channel.delta
        sol = maximize_eve_information(setup, detector)
        points = [sol.best]
        if not sol.interval_empty:
            checked += 1
            saturated += sol.best.p == 1.0
            b = sol.b_min + rng.uniform() * (sol.b_max - sol.b_min)
            if math.isfinite(_objective(_setup_terms(setup, detector))(b)):
                points.append(attack_point(b, setup, detector))
        for pt in points:
            assert pt.p == success_probability(eta, mu_prime, delta)
            assert pt.a == (1.0 if sol.interval_empty
                            else amplification(pt.b, setup.mu, eta, mu_prime, delta))
    assert checked > 200 and saturated > 10
    setup = SetupConfig(protocol=Protocol.B92_SR, mu=20000.0, t_db=0.0, length_km=100.0,
                        pulse_rate_hz=5e6)
    sol = maximize_eve_information(setup, DetectorConfig())
    assert (sol.best.p, sol.best.i_e, sol.interval_empty) == (1.0, 1.0, False)


@pytest.mark.parametrize("mu, t_db, length_km", [
    (0.3, 65.0, 10.0),
    (0.2, 86.0, 0.0),          # eps_s and eps_f cancel about 7 digits
    (0.509703, 40.9804, 5.0),  # b_min is the unitarity bound
    (1000.0, 65.0, 10.0),      # an I_E = 1 plateau
])
def test_scan_never_beats_maximizer(detector, mu, t_db, length_km):
    # The scan draws the curve beside the optimum; it has no point above it.
    setup = SetupConfig(protocol=Protocol.B92_SR, mu=mu, t_db=t_db, length_km=length_km,
                        pulse_rate_hz=5e6)
    sol = maximize_eve_information(setup, detector)
    scan = scan_information(setup, detector)
    assert len(scan) == 2000
    assert [b for b, _ in scan] == sorted(b for b, _ in scan)
    finite = [v for _, v in scan if not math.isnan(v)]
    assert finite and not sol.interval_empty
    assert sol.best.i_e >= max(finite) - (1e-9 * max(finite) + 1e-13)


@pytest.mark.parametrize("mu, t_db, length_km, b_best", [
    (1000.0, 65.0, 10.0, 1.0),                  # b_max lies on the plateau
    (0.509703, 40.9804, 5.0, 0.0882087674263),  # only the search's point does
])
def test_plateau_tie_rule(detector, mu, t_db, length_km, b_best):
    # I_E clamps at 1 on a plateau whose b_min (the unitarity bound) is
    # infeasible. Ties go to b_min, then b_max, then the search's point.
    setup = SetupConfig(protocol=Protocol.B92_SR, mu=mu, t_db=t_db, length_km=length_km,
                        pulse_rate_hz=5e6)
    sol = maximize_eve_information(setup, detector)
    f = _objective(_setup_terms(setup, detector))
    candidates = [(sol.b_min, f(sol.b_min)), (sol.b_max, f(sol.b_max)),
                  golden_max(f, sol.b_min, sol.b_max)]
    assert candidates[0][1] == -math.inf
    assert sol.best.i_e == 1.0
    assert sol.best.b == next(b for b, v in candidates if v == 1.0)
    assert sol.best.b == pytest.approx(b_best, rel=1e-9, abs=0.0)


def _grid_maximum(setup, detector):
    # I_E of the maximizer that the whole-interval search replaced: the best
    # cell of a 2000-point _information_curve scan, refined by golden_max
    # between its neighbours and scored, with both edges, by _objective.
    terms = _setup_terms(setup, detector)
    b_lo, b_hi = b_interval(setup, detector)
    bs = np.linspace(b_lo, b_hi, 2000)
    values = _information_curve(bs, terms)
    k = int(np.argmax(values))
    if values[k] == -math.inf:
        return -math.inf
    f = _objective(terms)
    _, refined = golden_max(f, float(bs[max(k - 1, 0)]), float(bs[min(k + 1, len(bs) - 1)]))
    return max(f(float(bs[k])), refined, f(b_lo), f(b_hi))


def test_maximizer_never_below_grid_maximizer():
    # Detectors, intensities and distances far beyond the sweep-grid plane,
    # with delta from 0 into the thousands. Without the points that close
    # in on a unitarity-bound b_min, 5 to 11 of each ~11 600 feasible draws
    # fell below the grid maximizer, all at delta > 5.
    rng = np.random.default_rng(20261018)
    feasible, max_delta = 0, 0.0
    for _ in range(20_000):
        detector = DetectorConfig(eta=rng.uniform(0.05, 1.0),
                                  p_dc=10.0 ** rng.uniform(-7.0, math.log10(0.03)),
                                  p_opt=rng.uniform(0.0, 0.3), nep=rng.uniform(0.0, 100e-12))
        setup = SetupConfig(protocol=Protocol.B92_SR,
                            mu=10.0 ** rng.uniform(math.log10(0.003), math.log10(2.0)),
                            t_db=rng.uniform(20.0, 95.0), length_km=rng.uniform(0.0, 120.0),
                            pulse_rate_hz=5e6)
        sol = maximize_eve_information(setup, detector)
        if sol.b_min >= sol.b_max:
            assert sol.interval_empty
            continue
        feasible += 1
        max_delta = max(max_delta, sol.channel.delta)
        grid = _grid_maximum(setup, detector)
        found = -math.inf if sol.interval_empty else sol.best.i_e
        assert found >= grid - (1e-9 * abs(grid) + 1e-13), (setup, detector)
    assert feasible > 10_000
    assert max_delta > 1000.0


def test_edge_information_bounds_the_optimum():
    # The maximizer scores both b edges before its search and keeps the
    # better, so the edges' value is a lower bound on its I_E with no
    # tolerance, and equal to it where the optimum is an edge or beam
    # splitting. Draws from the grid guard's ranges, and deep in the grey
    # region, where p rounds to 1.
    rng = np.random.default_rng(20261020)
    strata = {"empty": 0, "edge": 0, "inside": 0, "deep grey": 0}
    for k in range(1500):
        detector = DetectorConfig(eta=rng.uniform(0.05, 1.0),
                                  p_dc=10.0 ** rng.uniform(-7.0, math.log10(0.03)),
                                  p_opt=rng.uniform(0.0, 0.3))
        deep = k % 5 == 0
        mu = 10.0 ** (rng.uniform(2.0, 4.5) if deep else rng.uniform(-2.5, 0.3))
        setup = SetupConfig(protocol=Protocol.B92_SR, mu=mu,
                            t_db=rng.uniform(0.0, 30.0) if deep else rng.uniform(20.0, 95.0),
                            length_km=rng.uniform(0.0, 120.0), pulse_rate_hz=5e6)
        sol = maximize_eve_information(setup, detector)
        bound, channel = edge_information(setup, detector)
        assert channel == sol.channel == derive_channel(setup, detector)
        assert bound <= sol.best.i_e, (setup, detector)
        at_edge = sol.interval_empty or sol.best.b in (sol.b_min, sol.b_max)
        if at_edge:
            assert bound == sol.best.i_e, (setup, detector)
        strata["empty" if sol.interval_empty else "edge" if at_edge else "inside"] += 1
        strata["deep grey"] += sol.best.p == 1.0
    assert min(strata.values()) > 100, strata


def test_beam_splitting_information_limits():
    assert beam_splitting_information(0.3, 0.3) == 0.0
    # Tap grows with the gap; saturates at one bit.
    assert beam_splitting_information(0.3, 0.1) < beam_splitting_information(0.3, 0.01)
    assert beam_splitting_information(50.0, 0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu, t_db, length_km", [
    (0.509703, 40.9804, 5.0),
    (0.638084, 40.9804, 5.0),
    (0.638084, 40.9804, 25.0),
])
def test_maximizer_deep_grey_points(detector, mu, t_db, length_km):
    # b_min is the unitarity bound itself: NumPy's grid rounds it feasible,
    # amplification() does not. Every returned candidate must satisfy both.
    setup = SetupConfig(protocol=Protocol.B92_SR, mu=mu, t_db=t_db,
                        length_km=length_km, pulse_rate_hz=5e6)
    sol = maximize_eve_information(setup, detector)
    assert monitoring_unacceptable(sol.channel.delta)
    assert sol.b_min <= sol.best.b <= sol.b_max
    assert sol.best.a >= 1.0
    assert 0.0 <= sol.best.i_e <= 1.0


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(mu=st.floats(0.01, 1.0), t_db=st.floats(40.0, 90.0),
       length_km=st.floats(0.0, 60.0), u=st.floats(0.0, 1.0))
# delta = 1.55: eps_s cancels, and the two forms differ by 1.1e-12 relative.
@example(mu=0.9310066060050135, t_db=40.0, length_km=0.9310066060050135,
         u=0.9310066060050135)
# mu' rounds to 0 on the interval [0, 1]: no conclusive click, so both forms
# take their zero-conclusive branch and score 0.0.
@example(mu=5e-324, t_db=3000.0, length_km=20.0, u=0.5)
def test_scalar_objective_matches_curve(information_rounding, mu, t_db, length_km, u):
    detector = DetectorConfig()
    setup = SetupConfig(protocol=Protocol.B92_SR, mu=mu, t_db=t_db,
                        length_km=length_km, pulse_rate_hz=5e6)
    b_lo, b_hi = b_interval(setup, detector)
    assume(b_lo < b_hi)
    b = b_lo + u * (b_hi - b_lo)
    terms = _setup_terms(setup, detector)
    args = (mu, detector.eta, terms.channel.mu_prime, terms.channel.delta)
    scalar = _objective(terms)(b)
    lane = float(_information_curve(b, terms)[0])
    if b != b_lo:
        assert math.isfinite(scalar) == math.isfinite(lane)
    if math.isfinite(scalar) and math.isfinite(lane):
        # NumPy's and math's exp, log and expm1 may differ by an ulp, which
        # the cancelling eps_s and eps_f amplify; elsewhere the two forms
        # agree to about 4e-15.
        assert abs(scalar - lane) <= 1e-12 * abs(lane) + information_rounding(b, *args)
