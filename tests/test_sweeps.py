"""Sweep datasets, scalar optimizers and derived quantities."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import constants

from srqkd import (
    DecoyConfig,
    DetectorConfig,
    GridSpec,
    Protocol,
    SetupConfig,
    SweepRow,
    bb84_secret_rate,
    crossover_distance,
    derive_channel,
    evaluate_sr_point,
    grey_region_mu_floor,
    min_srp_photons,
    optimize_mu,
    rate_vs_distance,
    rate_vs_t,
    sweep_mu_t,
    sweeps,
    train_capacity,
)

COARSE_MU = (0.01, 1.0, 21)


def test_grid_spec_defaults_and_values():
    grid = GridSpec()
    mu = grid.mu_values()
    assert (mu[0], mu[-1], len(mu)) == (0.01, 1.0, 81)
    assert np.all(np.diff(mu) > 0)
    t = grid.t_values()
    assert (t[0], t[-1], len(t)) == (40.0, 90.0, 101)
    l = grid.l_values()
    assert (l[0], l[-1], len(l)) == (0.0, 120.0, 61)
    assert all(type(x) is float for x in mu + t + l)


def test_axes_match_numpy():
    # NumPy is the oracle only: the linear axis is np.linspace bit for bit,
    # the log axis keeps its ends exact and stays within 1 ulp of np.logspace.
    rng = np.random.default_rng(17)
    draws = [(0.01, 1.0, 81), (40.0, 90.0, 101), (0.0, 120.0, 61)]
    for _ in range(2000):
        lo = float(rng.uniform(-100.0, 100.0))
        draws.append((lo, lo + float(10.0 ** rng.uniform(-12.0, 3.0)),
                      int(rng.integers(2, 3000))))
    for lo, hi, n in draws:
        assert sweeps._axis(lo, hi, n) == np.linspace(lo, hi, n).tolist(), (lo, hi, n)
    draws = [(0.01, 1.0, 81), (0.01, 1.0, 601)]
    for _ in range(500):
        lo = float(10.0 ** rng.uniform(-300.0, 2.0))
        draws.append((lo, lo * float(10.0 ** rng.uniform(1e-6, 5.0)),
                      int(rng.integers(3, 3000))))
    for lo, hi, n in draws:
        mu = sweeps._axis(lo, hi, n, log=True)
        assert (mu[0], mu[-1], len(mu)) == (lo, hi, n)
        ref = np.logspace(math.log10(lo), math.log10(hi), n)
        ulps = np.abs(np.array(mu).view(np.int64) - ref.view(np.int64))
        assert ulps[1:-1].max() <= 1, (lo, hi, n)  # the ends are exact


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="lo > 0"):
        GridSpec(mu_range=(0.0, 1.0, 81))
    with pytest.raises(ValueError, match="lo > 0"):
        GridSpec(mu_range=(-1.0, 1.0, 81))
    GridSpec(t_range_db=(-10.0, 90.0, 101))  # only the mu axis is log-spaced
    with pytest.raises(ValueError, match="lo < hi"):
        GridSpec(t_range_db=(90.0, 40.0, 101))
    with pytest.raises(ValueError, match="at least 2"):
        GridSpec(l_range_km=(0.0, 120.0, 1))
    GridSpec(t_range_db=(40.0, 90.0, 10**6))
    with pytest.raises(ValueError, match="at most 1000000 points"):
        GridSpec(t_range_db=(40.0, 90.0, 10**6 + 1))
    # A non-finite end is refused by name, not laid out as nan and inf.
    for name, field, (lo, hi) in (("mu", "mu_range", (0.01, 1.0)),
                                  ("t", "t_range_db", (40.0, 90.0)),
                                  ("l", "l_range_km", (0.0, 120.0))):
        for bad in (math.inf, -math.inf, math.nan):
            for axis in ((bad, hi, 5), (lo, bad, 5)):
                with pytest.raises(ValueError, match=f"^{name} range needs finite ends"):
                    GridSpec(**{field: axis})


def test_sweep_row_flag_invariant():
    kw = dict(mu=0.3, t_db=65.0, length_km=10.0, qber=0.02, i_e=0.4,
              r_sec_per_pulse=0.01, r_sec_hz=5e4)
    SweepRow(delta=0.7, flags=("grey-region",), **kw)
    with pytest.raises(ValueError, match="grey-region"):
        SweepRow(delta=0.7, flags=(), **kw)
    with pytest.raises(ValueError, match="grey-region"):
        SweepRow(delta=0.02, flags=("grey-region",), **kw)


def test_sweep_grid_order_and_reproducibility(detector):
    grid = GridSpec(mu_range=(0.1, 0.5, 3), t_range_db=(55.0, 75.0, 3))
    rows = sweep_mu_t(10.0, grid, detector)
    assert len(rows) == 9
    # mu-major ordering, t fastest.
    assert [r.mu for r in rows[:3]] == [pytest.approx(0.1)] * 3
    assert [r.t_db for r in rows[:3]] == [55.0, 65.0, 75.0]
    # Each row is exactly what a direct evaluation of that point returns.
    mu_mid = grid.mu_values()[1]
    setup = SetupConfig(protocol=Protocol.B92_SR, mu=mu_mid, t_db=65.0,
                        length_km=10.0, pulse_rate_hz=5e6)
    assert rows[4] == evaluate_sr_point(setup, detector)


def test_delta_separates_over_grid(detector):
    # delta = (per-(t,L) constant)/mu, bit-exactly, by construction.
    grid = GridSpec(mu_range=(0.05, 0.8, 4), t_range_db=(50.0, 80.0, 3))
    rows = sweep_mu_t(25.0, grid, detector)
    for row in rows:
        unit = 0.5 * grey_region_mu_floor(25.0, row.t_db, detector)
        assert row.delta == unit / row.mu


def test_grey_floor_is_bit_exact(detector):
    floor = grey_region_mu_floor(10.0, 55.0, detector)
    at_floor = SetupConfig(protocol=Protocol.B92_SR, mu=floor, t_db=55.0,
                           length_km=10.0, pulse_rate_hz=5e6)
    assert derive_channel(at_floor, detector).delta == 0.5
    below = SetupConfig(protocol=Protocol.B92_SR, mu=0.99 * floor, t_db=55.0,
                        length_km=10.0, pulse_rate_hz=5e6)
    assert derive_channel(below, detector).delta > 0.5


def test_evaluate_sr_point_grey_flags(detector):
    setup = SetupConfig(protocol=Protocol.B92_SR, mu=0.05, t_db=40.0,
                        length_km=50.0, pulse_rate_hz=5e6)
    row = evaluate_sr_point(setup, detector)
    assert row.delta > 0.5
    assert "grey-region" in row.flags
    assert "attack-infeasible" in row.flags


def test_optimize_mu_is_local_maximum(detector):
    opt = optimize_mu(10.0, 65.0, detector, mu_range=COARSE_MU)
    assert opt.found
    assert 0.01 <= opt.mu_opt <= 1.0
    assert opt.per_pulse == pytest.approx(opt.r_sec_hz / 5e6, rel=1e-15)

    def rate(mu):
        setup = SetupConfig(protocol=Protocol.B92_SR, mu=mu, t_db=65.0,
                            length_km=10.0, pulse_rate_hz=5e6)
        return evaluate_sr_point(setup, detector).r_sec_hz

    assert opt.r_sec_hz >= rate(opt.mu_opt * 1.01) - 1e-6
    assert opt.r_sec_hz >= rate(opt.mu_opt * 0.99) - 1e-6


def test_optimize_mu_floor_above_range(detector):
    opt = optimize_mu(10.0, 65.0, detector, mu_range=COARSE_MU, mu_floor=2.0)
    assert not opt.found
    assert math.isnan(opt.mu_opt)
    assert opt.r_sec_hz == 0.0


def test_optimize_mu_does_not_depend_on_the_pulse_rate(detector):
    # The pulse rate f only scales the rate: the search scores per-pulse
    # rates, so mu_opt, found and per_pulse are the same floats at any f,
    # subnormal or huge, and r_sec_hz is per_pulse*f.
    searches = [(protocol, length, None) for protocol in Protocol for length in (10.0, 40.0)]
    searches += [(protocol, length, grey_region_mu_floor(length, 65.0, detector))
                 for protocol in (Protocol.B92_SR, Protocol.BB84_SR) for length in (10.0, 40.0)]
    for protocol, length, floor in searches:
        results = []
        for f in (1e-322, 1.0, 5e6, 1e300):
            opt = optimize_mu(length, 65.0, detector, protocol=protocol, pulse_rate_hz=f,
                              mu_range=COARSE_MU, mu_floor=floor)
            assert opt.found and opt.r_sec_hz == opt.per_pulse * f, (protocol, length, f)
            results.append((opt.mu_opt, opt.found, opt.per_pulse))
        assert results == results[:1] * 4, (protocol, length, floor)


def test_sweep_summaries_do_not_depend_on_the_pulse_rate(detector):
    # Every summary compares per-pulse rates, so rounding at a subnormal or
    # huge f picks no threshold: rate_vs_t's three summaries, both
    # min_srp_photons criteria and rate_vs_distance's crossover are the same
    # floats at any f, and each rate in Hz is the 1 Hz rate times f.
    t_grid = sweeps._axis(40.0, 90.0, 21)
    l_grid = sweeps._axis(0.0, 120.0, 13)
    results = []
    for f in (1.0, 1e-322, 5e6, 1e300):
        curve = rate_vs_t(10.0, 0.3, t_grid, detector, pulse_rate_hz=f)
        srp = [min_srp_photons(10.0, detector, t_grid=t_grid, criterion=criterion,
                               pulse_rate_hz=f)
               for criterion in ("positive-rate", "0.99-of-max")]
        comparison = rate_vs_distance([Protocol.B92_SR, Protocol.BB84_DECOY], detector,
                                      l_grid, pulse_rate_hz=f, mu_range=COARSE_MU)
        results.append(((curve.t_sat_db, curve.onset_t_db, curve.onset_nu),
                        [(r.nu_threshold, r.mu_at, r.t_db_at) for r in srp],
                        comparison.crossover_km))
        hz = [r.r_sec_hz for r in srp]
        if f == 1.0:
            at_1_hz = hz
        assert hz == [rate * f for rate in at_1_hz], f
    assert results == results[:1] * 4
    (t_sat, onset_t, _), _, crossover = results[0]
    assert (t_sat, onset_t) == (60.0, 52.5) and crossover is not None


def test_floored_optimize_mu_matches_dense_scan():
    # Above the grey floor r_sec has one peak, so one Brent search between
    # the two ends finds it: no point of a dense log scan (both ends exact)
    # beats it by more than rel 1e-9, and the scan rises to its top, then
    # falls. A draw with a second peak fails; none is left out.
    rng = np.random.default_rng(20261022)
    draws = 0
    while draws < 13:
        detector = DetectorConfig(eta=0.2 * rng.uniform(0.5, 1.5),
                                  p_dc=2e-5 * 10.0 ** rng.uniform(-1.0, 1.0),
                                  p_opt=rng.uniform(0.0, 0.04),
                                  nep=25e-12 * rng.uniform(0.5, 1.5))
        protocol = (Protocol.B92_SR, Protocol.BB84_SR)[draws % 2]
        length, t_db = rng.uniform(0.0, 120.0), rng.uniform(40.0, 90.0)
        floor = grey_region_mu_floor(length, t_db, detector)
        if floor >= 1.0:
            continue
        draws += 1
        opt = optimize_mu(length, t_db, detector, protocol=protocol, mu_floor=floor)
        rates = [sweeps.secret_rate(SetupConfig(protocol=protocol, mu=mu, t_db=t_db,
                                                length_km=length, pulse_rate_hz=5e6),
                                    detector).per_pulse * 5e6
                 for mu in sweeps._axis(max(0.01, floor), 1.0, 2001, log=True)]
        top = max(rates)
        case = (protocol, length, t_db, detector)
        assert opt.r_sec_hz >= top - 1e-9 * top, case
        k, noise = rates.index(top), 1e-12 * top
        assert all(b >= a - noise for a, b in zip(rates[:k], rates[1:k + 1])), case
        assert all(b <= a + noise for a, b in zip(rates[k:], rates[k + 1:])), case


def test_floored_optimize_mu_finds_a_stretch_between_zero_rates():
    # r_sec > 0 only for mu in about 0.045-0.5: the floor (0.0015), hi and
    # the first search point (0.039) all rate 0, and Brent's search on a
    # flat zero walks to an end. The fallback grid finds the stretch.
    detector = DetectorConfig(eta=0.0923, p_dc=7.9e-4, p_opt=5.0e-4)
    floor = grey_region_mu_floor(23.52, 77.31, detector)
    opt = optimize_mu(23.52, 77.31, detector, mu_range=(1e-6, 1.0), mu_floor=floor)
    assert opt.found
    assert opt.r_sec_hz == pytest.approx(6749.92, rel=1e-6)
    assert opt.mu_opt == pytest.approx(0.2435, rel=1e-3)


def test_floored_optimize_mu_matches_dense_scan_wide_detectors():
    # Noisy detectors and low range ends leave r_sec > 0 only on a stretch
    # flanked by zero rates. No point of a 401-point log scan of
    # [max(lo, floor), 1] beats the floored search by more than rel 1e-9,
    # and a draw with a positive point is found.
    rng = np.random.default_rng(20261023)
    draws = positive = 0
    while draws < 30:
        detector = DetectorConfig(eta=rng.uniform(0.05, 1.0),
                                  p_dc=10.0 ** rng.uniform(-7.0, -2.0),
                                  p_opt=rng.uniform(0.0, 0.1))
        protocol = (Protocol.B92_SR, Protocol.BB84_SR)[draws % 2]
        length, t_db = rng.uniform(0.0, 120.0), rng.uniform(40.0, 90.0)
        lo = 10.0 ** rng.uniform(-6.0, -2.0)
        floor = grey_region_mu_floor(length, t_db, detector)
        if floor >= 1.0:
            continue
        draws += 1
        opt = optimize_mu(length, t_db, detector, protocol=protocol, mu_floor=floor,
                          mu_range=(lo, 1.0))
        top = max(sweeps.secret_rate(SetupConfig(protocol=protocol, mu=mu, t_db=t_db,
                                                 length_km=length, pulse_rate_hz=5e6),
                                     detector).per_pulse * 5e6
                  for mu in sweeps._axis(max(lo, floor), 1.0, 401, log=True))
        positive += top > 0.0
        case = (protocol, length, t_db, lo, detector)
        assert opt.r_sec_hz >= top - 1e-9 * top, case
    assert positive >= 12, positive


def test_optimize_mu_refuses_nan_floor(detector):
    # max(lo, nan) is lo: a nan floor would quietly run the unfloored
    # search, whose optimum can be grey.
    with pytest.raises(ValueError, match="mu_floor"):
        optimize_mu(10.0, 65.0, detector, mu_range=COARSE_MU, mu_floor=math.nan)
    # An infinite floor lies above every range.
    assert not optimize_mu(10.0, 65.0, detector, mu_floor=math.inf).found


def test_optimize_mu_rejects_bad_mu_range(detector, address_space_cap):
    with pytest.raises(ValueError, match="lo > 0"):
        optimize_mu(10.0, 65.0, detector, mu_range=(0.0, 1.0, 10))
    with pytest.raises(ValueError, match="lo > 0"):
        optimize_mu(10.0, 65.0, detector, mu_range=(0.0, 1.0), mu_floor=0.0)
    # Refused before the floor is applied: a floor above lo does not hide
    # lo <= 0, nor a pair the unfloored grid cannot lay out, nor an
    # infinite end.
    with pytest.raises(ValueError, match="lo > 0 on its log scale"):
        optimize_mu(10.0, 65.0, detector, mu_range=(-1.0, 0.5), mu_floor=0.01)
    with pytest.raises(ValueError, match=re.escape("needs mu_range = (lo, hi, points)")):
        optimize_mu(10.0, 65.0, detector, mu_range=(0.01, 1.0))
    for bad in ((0.01, math.inf), (0.01, math.nan), (-math.inf, 1.0)):
        for floor in (None, 0.01):
            with pytest.raises(ValueError, match="mu range needs finite ends"):
                optimize_mu(10.0, 65.0, detector, mu_range=bad + (21,), mu_floor=floor)
    # A one-point grid is no search.
    with pytest.raises(ValueError, match="at least 2 points"):
        optimize_mu(10.0, 65.0, detector, mu_range=(0.01, 1.0, 1))
    # Nor is one too large to lay out: refused, not a MemoryError.
    with pytest.raises(ValueError, match="at most 1000000 points"):
        optimize_mu(10.0, 65.0, detector, mu_range=(0.01, 1.0, 10**12))


def test_optimize_mu_refuses_inverted_range(detector):
    # An inverted or collapsed range is an input error, not a range with no
    # key in it, and it is refused before the floor is applied; a fixed mu
    # is rate_vs_t's question.
    for mu_range in ((1.0, 0.01, 21), (0.3, 0.3, 21)):
        for floor in (None, 0.001, 2.0):
            with pytest.raises(ValueError, match="lo < hi"):
                optimize_mu(10.0, 65.0, detector, mu_range=mu_range, mu_floor=floor)
        with pytest.raises(ValueError, match="lo < hi"):
            rate_vs_distance([Protocol.B92_SR], detector, [10.0], mu_range=mu_range)
        with pytest.raises(ValueError, match="lo < hi"):
            min_srp_photons(10.0, detector, t_grid=[60.0], mu_bounds=mu_range[:2])


def test_optimize_mu_hopeless_detector():
    # p_opt = 1/2: every conclusive bit is a coin toss, no key anywhere.
    bad = DetectorConfig(p_opt=0.5)
    opt = optimize_mu(10.0, 65.0, bad, mu_range=(0.05, 0.8, 7))
    assert not opt.found
    assert math.isnan(opt.mu_opt)


def test_rate_vs_t_saturation(detector):
    sat = rate_vs_t(10.0, 0.3, np.linspace(40.0, 90.0, 26), detector)
    assert len(sat.rows) == 26
    assert sat.onset_t_db is not None and sat.t_sat_db is not None
    assert sat.onset_t_db <= sat.t_sat_db
    # The reference-pulse threshold at a fixed mu: the onset row is not
    # grey, and onset_nu is mu*10^(t/10) at it, bit for bit.
    (onset,) = [r for r in sat.rows if r.t_db == sat.onset_t_db]
    assert "grey-region" not in onset.flags and onset.r_sec_hz > 0.0
    assert sat.onset_nu == 0.3 * 10.0 ** (onset.t_db / 10.0)
    # The universal operating point t=65 sits in the saturated region.
    top = [r for r in sat.rows if r.t_db == 90.0][0].r_sec_hz
    at_65 = [r for r in sat.rows if abs(r.t_db - 66.0) < 1.5][0].r_sec_hz
    assert at_65 >= 0.99 * top
    # Nondecreasing beyond onset, over trustworthy (non-grey) rows.
    usable = [r.r_sec_hz for r in sat.rows
              if "grey-region" not in r.flags and r.t_db >= sat.onset_t_db]
    assert all(b >= a * (1.0 - 1e-9) for a, b in zip(usable, usable[1:]))


def test_rate_vs_distance_rows_and_crossover(detector):
    comp = rate_vs_distance([Protocol.B92_SR, Protocol.BB84_DECOY], detector,
                            l_grid=[50.0, 60.0, 70.0, 80.0], mu_range=COARSE_MU)
    assert len(comp.rows) == 8
    b92 = {r.length_km: r.r_sec_hz for r in comp.rows if r.protocol == "b92-sr"}
    dec = {r.length_km: r.r_sec_hz for r in comp.rows if r.protocol == "bb84-decoy"}
    # SR wins short, decoy wins long; crossover sits between the grid points.
    assert b92[50.0] > dec[50.0]
    assert b92[80.0] < dec[80.0]
    assert 50.0 < comp.crossover_km < 80.0


def test_rate_vs_distance_honours_decoy_config(detector):
    decoy = DecoyConfig(nu1_ratio=0.1, p_mu=0.9)
    comp = rate_vs_distance([Protocol.BB84_DECOY], detector, l_grid=[20.0],
                            mu_range=(0.01, 1.0, 11), decoy=decoy)
    (row,) = comp.rows
    setup = SetupConfig(protocol=Protocol.BB84_DECOY, mu=row.mu, t_db=0.0,
                        length_km=20.0, pulse_rate_hz=5e6)
    assert row.per_pulse == bb84_secret_rate(setup, detector, decoy=decoy).per_pulse
    assert row.r_sec_hz == row.per_pulse * 5e6
    default = rate_vs_distance([Protocol.BB84_DECOY], detector, l_grid=[20.0],
                               mu_range=(0.01, 1.0, 11))
    assert default.rows[0].r_sec_hz != row.r_sec_hz


@pytest.mark.parametrize("protocols", [
    [],
    [Protocol.B92_SR, Protocol.B92_SR],
    [Protocol.B92_SR, Protocol.BB84_DECOY, Protocol.B92_SR],
], ids=["empty", "repeated", "repeated-apart"])
def test_rate_vs_distance_rejects_bad_protocol_list(detector, monkeypatch, protocols):
    # Rejected before any rate is computed.
    def no_search(*args, **kwargs):
        raise AssertionError("optimize_mu called")

    monkeypatch.setattr(sweeps, "optimize_mu", no_search)
    names = str([p.value for p in protocols])
    with pytest.raises(ValueError, match=re.escape(names)):
        rate_vs_distance(protocols, detector, l_grid=[10.0, 20.0], mu_range=COARSE_MU)


def test_optimize_mu_bb84_matches_rate_vs_distance(detector):
    for protocol in (Protocol.BB84_STANDARD, Protocol.BB84_DECOY):
        opt = optimize_mu(20.0, 65.0, detector, protocol=protocol, mu_range=COARSE_MU)
        (row,) = rate_vs_distance([protocol], detector, l_grid=[20.0],
                                  mu_range=COARSE_MU).rows
        assert opt.found
        assert (opt.mu_opt, opt.r_sec_hz, opt.per_pulse) == (row.mu, row.r_sec_hz,
                                                             row.per_pulse)


def test_crossover_interpolation_properties():
    lengths = [0.0, 1.0, 2.0]
    a = [math.e ** 2, math.e, 1.0]
    b = [1.0, math.e, math.e ** 2]
    assert crossover_distance(lengths, a, b) == pytest.approx(1.0, abs=1e-12)
    assert crossover_distance(lengths, b, a) == pytest.approx(1.0, abs=1e-12)
    # Log-linear interpolation between nodes.
    assert crossover_distance([0.0, 2.0], [4.0, 1.0], [1.0, 4.0]) == pytest.approx(1.0)
    # No crossing, or dead segments, give None.
    assert crossover_distance(lengths, a, [x * 2 for x in a]) is None
    assert crossover_distance(lengths, [1.0, 0.0, 1.0], [2.0, 0.0, 0.5]) is None
    # An exact tie at the last point is a crossing there.
    assert crossover_distance([0, 1, 2], [1, 2, 3], [2, 3, 3]) == 2.0


@pytest.mark.parametrize("lengths", [[0.0, 1.0], [0.0, 1.0, 2.0, 3.0]])
def test_crossover_rejects_length_mismatch(lengths):
    with pytest.raises(ValueError):
        crossover_distance(lengths, [4.0, 2.0, 1.0], [1.0, 2.0, 4.0])


def test_min_srp_monotone_in_distance(detector):
    t_grid = np.linspace(40.0, 90.0, 11)
    near = min_srp_photons(0.0, detector, t_grid=t_grid)
    far = min_srp_photons(10.0, detector, t_grid=t_grid)
    assert near.nu_threshold < far.nu_threshold
    for res in (near, far):
        assert res.nu_threshold == pytest.approx(
            res.mu_at * 10 ** (res.t_db_at / 10.0), rel=1e-12)
        assert res.r_sec_hz > 0.0
        assert res.criterion == "positive-rate"


def test_min_srp_fixed_policy(detector):
    # The threshold at a fixed mu comes from rate_vs_t: its onset t has a
    # grey floor at or below mu, and onset_nu is mu*10^(t/10). min-srp's
    # one policy optimizes mu within bounds that hold the fixed mu, so at
    # that t it rates at least what the fixed mu does.
    t_grid = np.linspace(40.0, 90.0, 11)
    sat = rate_vs_t(10.0, 0.3, t_grid, detector)
    assert sat.onset_t_db is not None
    assert grey_region_mu_floor(10.0, sat.onset_t_db, detector) <= 0.3
    assert sat.onset_nu == pytest.approx(0.3 * 10 ** (sat.onset_t_db / 10.0), rel=1e-12)
    (onset,) = [r for r in sat.rows if r.t_db == sat.onset_t_db]
    res = min_srp_photons(10.0, detector, t_grid=[sat.onset_t_db], mu_bounds=(0.01, 1.0))
    assert res.t_db_at == sat.onset_t_db
    assert res.r_sec_hz >= onset.r_sec_hz * (1.0 - 1e-9)


def test_rate_vs_t_thresholds_read_the_top_rows():
    # The non-grey rows are a suffix of the t grid, and the saturation
    # point taken against the top row is the one taken against the best
    # non-grey row: the rate at a fixed mu does not fall with t there.
    rng = np.random.default_rng(20261024)
    saturated = 0
    for protocol in (Protocol.B92_SR, Protocol.BB84_SR) * 60:
        detector = DetectorConfig(eta=rng.uniform(0.05, 1.0),
                                  p_dc=10.0 ** rng.uniform(-7.0, -3.0),
                                  p_opt=rng.uniform(0.0, 0.08),
                                  nep=rng.uniform(5e-12, 60e-12))
        length, mu = rng.uniform(0.0, 100.0), 10.0 ** rng.uniform(-2.0, math.log10(2.0))
        t_lo = rng.uniform(40.0, 80.0)
        t_grid = np.linspace(t_lo, t_lo + rng.uniform(5.0, 30.0), int(rng.integers(6, 32)))
        sat = rate_vs_t(length, mu, t_grid, detector, protocol=protocol)
        grey = ["grey-region" in row.flags for row in sat.rows]
        case = (protocol, length, mu, t_grid[0], t_grid[-1], detector)
        assert grey == sorted(grey, reverse=True), case
        ok = [row.r_sec_hz for row in sat.rows if "grey-region" not in row.flags]
        t_ok = [row.t_db for row in sat.rows if "grey-region" not in row.flags]
        best = max(ok, default=0.0)
        t_best = None
        if best > 0.0:
            t_best = next(t for t, r in zip(t_ok, ok) if r >= 0.99 * best)
            saturated += 1
        assert sat.t_sat_db == t_best, case
    assert saturated >= 30, saturated


def test_min_srp_validation(detector):
    with pytest.raises(ValueError, match="criterion"):
        min_srp_photons(10.0, detector, criterion="half-max")
    # The mu bounds must be usable on mu's log scale; the grey floor lies
    # above lo <= 0 and does not hide it.
    for bad, message in ((-1.0, "lo > 0 on its log scale"), (0.0, "lo > 0 on its log scale"),
                         (math.nan, "finite ends"), (math.inf, "finite ends")):
        with pytest.raises(ValueError, match=message):
            min_srp_photons(10.0, detector, mu_bounds=(bad, 0.5))
    # Checked before any rate is computed: a BB84 baseline has no SRP.
    with pytest.raises(ValueError, match="min_srp_photons needs an SR protocol, "
                                         "got bb84-decoy"):
        min_srp_photons(10.0, detector, protocol=Protocol.BB84_DECOY)


@pytest.mark.parametrize("protocol", [Protocol.BB84_DECOY, Protocol.BB84_STANDARD])
def test_sr_sweeps_reject_bb84_before_maximizing(monkeypatch, detector, protocol):
    calls = []
    maximize = sweeps.maximize_eve_information

    def counting(*args, **kwargs):
        calls.append(args)
        return maximize(*args, **kwargs)

    monkeypatch.setattr(sweeps, "maximize_eve_information", counting)
    grid = GridSpec(mu_range=(0.1, 0.5, 2), t_range_db=(60.0, 70.0, 2))
    with pytest.raises(ValueError, match=f"sweep_mu_t needs an SR protocol, got {protocol.value}"):
        sweep_mu_t(10.0, grid, detector, protocol=protocol)
    with pytest.raises(ValueError, match=f"rate_vs_t needs an SR protocol, got {protocol.value}"):
        rate_vs_t(10.0, 0.3, [60.0, 70.0], detector, protocol=protocol)
    assert calls == []


def test_sweeps_refuse_a_grid_over_the_cap(monkeypatch, detector):
    # Each axis is capped, and so is the number of points a sweep rates:
    # a larger grid is refused before any rate is computed. An attack call
    # (a maximizer or a bound) is counted and stops the sweep, which would
    # not finish.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the sweep rated a point before refusing its grid")

    monkeypatch.setattr(sweeps, "maximize_eve_information", counting)
    monkeypatch.setattr(sweeps, "edge_information", counting)
    grid = GridSpec(mu_range=(0.1, 0.5, 1000), t_range_db=(60.0, 70.0, 1001))
    with pytest.raises(ValueError, match="^sweep_mu_t would rate 1001000 points, over the "
                                         "cap of 1000000$"):
        sweep_mu_t(10.0, grid, detector)
    with pytest.raises(ValueError, match="^rate_vs_distance would rate 1000200 points, over "
                                         "the cap of 1000000$"):
        rate_vs_distance([Protocol.B92_SR, Protocol.BB84_DECOY], detector,
                         sweeps._axis(0.0, 120.0, 5001), mu_range=(0.01, 1.0, 100))
    # min-srp runs one floored mu search per t, and each may rate its
    # fallback grid: 2494 t points could rate 2494 * 401 mu.
    with pytest.raises(ValueError, match="^min_srp_photons would rate 1000094 points, over "
                                         "the cap of 1000000$"):
        min_srp_photons(10.0, detector, t_grid=sweeps._axis(40.0, 90.0, 2494))
    assert calls == []
    sweeps._check_grid("sweep_mu_t", sweeps.MAX_GRID_POINTS)  # the cap itself is allowed
    sweeps._check_grid("min_srp_photons", 2493 * sweeps.MAX_FALLBACK_POINTS)


def test_min_srp_no_positive_rate():
    # No positive rate anywhere in the scan is a result: a row without a threshold.
    bad = DetectorConfig(p_opt=0.5)
    result = min_srp_photons(10.0, bad, t_grid=[60.0, 70.0], mu_bounds=(0.1, 0.5))
    assert (result.length_km, result.criterion, result.r_sec_hz) == (10.0, "positive-rate", 0.0)
    assert all(math.isnan(v) for v in (result.nu_threshold, result.mu_at, result.t_db_at))


def test_train_capacity_values():
    assert train_capacity(10.0, 5e6) == 245
    assert train_capacity(20.0, 5e6) == 490
    assert train_capacity(0.0, 5e6) == 0
    # Agreement with the defining expression.
    assert train_capacity(37.0, 2.5e6) == math.floor(37.0e3 * 1.47 * 2.5e6 / constants.c)
    # Integers and NumPy scalars are read as the floats they convert to.
    assert train_capacity(np.int64(10), 5_000_000, n_fib=np.float32(1.47)) == 245
    with pytest.raises(ValueError):
        train_capacity(-1.0, 5e6)
    with pytest.raises(ValueError):
        train_capacity(10.0, 0.0)


def _exact_capacity(storage_km, pulse_rate_hz, n_fib=1.47):
    return math.floor(Fraction(storage_km) * 1000 * Fraction(n_fib) * Fraction(pulse_rate_hz)
                      / Fraction(constants.c))


def test_train_capacity_out_of_float_range_is_refused():
    # Finite inputs whose capacity overflows a float: refused by name, not an
    # OverflowError from math.floor(inf).
    with pytest.raises(ValueError, match="storage_km=.*pulse_rate_hz=.*n_fib="):
        train_capacity(1e308, 1e308)
    # A capacity in float range is the exact floor, even where storage_km*1e3
    # overflows (1e306 km) or the float expression does (1e300 km at 1e10 Hz).
    for storage_km, pulse_rate_hz in ((1e306, 1e-10), (1e300, 1e10)):
        assert math.isinf(storage_km * 1e3 * 1.47 * pulse_rate_hz)
        capacity = train_capacity(storage_km, pulse_rate_hz)
        assert capacity == _exact_capacity(storage_km, pulse_rate_hz)
        assert float(capacity) == pytest.approx(
            storage_km * (1e3 / constants.c) * 1.47 * pulse_rate_hz, rel=1e-14)
    # Near the top of float range the float expression's floor is off by far
    # more than 1 (its ulp is about 1e278); the exact floor is not.
    near_top = math.floor(1e290 * 1e3 * 1.47 * 1e10 / constants.c)
    assert train_capacity(1e290, 1e10) == _exact_capacity(1e290, 1e10) != near_top
