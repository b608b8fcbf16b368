"""Metamorphic relations of the SR rate model where the SRP monitor is trusted.

Each relation compares two evaluations whose inputs differ in one way, and
whose outputs must then move in a known direction:

- I_E does not fall when the monitor's NEP rises by 1%;
- r_sec does not rise with p_dc, p_opt or f_ec;
- at L + 0.5 km, I_E does not fall and r_sec does not rise;
- at t + 0.5 dB, r_sec does not fall;
- B92-SR's r_sec is exactly twice BB84-SR's;
- optimize_mu's rate is no less than the rate at any point of its mu grid;
- optimize_mu's rate does not rise from L to L + 0.5 km.

In the first five relations both points of each pair have delta <= 0.5,
the grey-region bound. Beyond it the model is not monotone, and nothing
here asserts it there: past delta = 1 the fail-branch intensity
mu'(1 - delta) goes negative, and I_E can fall as NEP rises (by up to about
0.2 bits in random draws, each such maximum confirmed by a dense scan);
r_sec can fall as t grows, and rise as L grows, once either point is grey.
"""

import dataclasses
import math

import numpy as np

from srqkd import (DetectorConfig, Protocol, SetupConfig, grey_region_mu_floor,
                   monitoring_unacceptable, sweeps)
from srqkd.sweeps import evaluate_sr_point, optimize_mu, secret_rate


def _no_less(low, high):
    # high >= low, up to rounding: rel 1e-9 plus abs 1e-13.
    return high >= low - (1e-9 * abs(low) + 1e-13)


def test_metamorphic_relations():
    rng = np.random.default_rng(20261019)
    checks = dict.fromkeys(("nep", "p_dc", "p_opt", "f_ec", "length", "t", "b92_bb84"), 0)
    for _ in range(2000):
        detector = DetectorConfig(eta=rng.uniform(0.05, 1.0),
                                  p_dc=10.0 ** rng.uniform(-7.0, -2.0),
                                  p_opt=rng.uniform(0.0, 0.1),
                                  nep=rng.uniform(1e-12, 100e-12))
        setup = SetupConfig(protocol=Protocol.B92_SR,
                            mu=10.0 ** rng.uniform(math.log10(0.003), math.log10(2.0)),
                            t_db=rng.uniform(40.0, 90.0), length_km=rng.uniform(0.0, 100.0),
                            pulse_rate_hz=5e6)
        base = evaluate_sr_point(setup, detector)
        if monitoring_unacceptable(base.delta):
            continue

        def at(setup=setup, **changes):
            row = evaluate_sr_point(setup, dataclasses.replace(detector, **changes))
            return None if monitoring_unacceptable(row.delta) else row

        row = at(nep=detector.nep * 1.01)
        if row:
            checks["nep"] += 1
            assert _no_less(base.i_e, row.i_e), (setup, detector)
        for key, value in (("p_dc", detector.p_dc * 1.1),
                           ("p_opt", detector.p_opt + 0.005),
                           ("f_ec", detector.f_ec + 0.05)):
            checks[key] += 1
            assert _no_less(at(**{key: value}).r_sec_per_pulse, base.r_sec_per_pulse), (
                key, setup, detector)
        row = at(dataclasses.replace(setup, length_km=setup.length_km + 0.5))
        if row:
            checks["length"] += 1
            assert _no_less(base.i_e, row.i_e), (setup, detector)
            assert _no_less(row.r_sec_per_pulse, base.r_sec_per_pulse), (setup, detector)
        row = at(dataclasses.replace(setup, t_db=setup.t_db + 0.5))
        if row:
            checks["t"] += 1
            assert _no_less(base.r_sec_per_pulse, row.r_sec_per_pulse), (setup, detector)
        bb84 = at(dataclasses.replace(setup, protocol=Protocol.BB84_SR))
        checks["b92_bb84"] += 1
        assert base.r_sec_per_pulse == 2.0 * bb84.r_sec_per_pulse, (setup, detector)
    assert min(checks.values()) > 700, checks


def test_optimize_mu_beats_its_grid(monkeypatch):
    # optimize_mu searches in log10 mu. Unfloored, the grid is the one it
    # searched, mapped back to mu with both ends exact. A floored search's
    # grid is its two ends, so it is held to the grid it would have
    # searched: the log grid from max(lo, floor) to hi. A floored search
    # that finds no positive rate searches once more on its fallback grid
    # (40 points per decade), which is held to as well. Each grid rate is
    # recomputed, and every grid the search scored is bounded: each of its
    # mu has a per-pulse rate at most the bound that let the search leave it
    # unrated.
    grids, bounds, search = [], [], sweeps.grid_then_golden_max

    def recording(f, xs, bound=None):
        grids.append(xs)
        bounds.append(bound)
        return search(f, xs, bound)

    monkeypatch.setattr(sweeps, "grid_then_golden_max", recording)
    rng = np.random.default_rng(20261020)
    checks = {False: 0, True: 0}  # by whether the search had a floor
    bounded = {False: 0, True: 0}  # by whether the protocol is SR
    for protocol in list(Protocol) * 15:
        detector = DetectorConfig(eta=rng.uniform(0.05, 1.0),
                                  p_dc=10.0 ** rng.uniform(-7.0, -3.0),
                                  p_opt=rng.uniform(0.0, 0.05))
        length, t_db = rng.uniform(0.0, 120.0), rng.uniform(40.0, 90.0)
        floor = grey_region_mu_floor(length, t_db, detector) if rng.random() < 0.5 else None
        lo, hi, points = 0.01, 1.0, int(rng.choice((11, 21, 81)))
        grids.clear()
        bounds.clear()
        opt = optimize_mu(length, t_db, detector, protocol=protocol, mu_floor=floor,
                          mu_range=(lo, hi, points))
        assert len(bounds) == len(grids) and None not in bounds
        if floor is None:
            (ys,) = grids
            grid = [lo] + [10.0 ** y for y in ys[1:-1]] + [hi]
            assert grid == sweeps._axis(lo, hi, points, log=True)
            at = [(bounds[0], y) for y in ys]
        elif floor <= hi:
            ends = [math.log10(max(lo, floor)), math.log10(hi)]
            assert grids[0] == ends
            grid = sweeps._axis(max(lo, floor), hi, points, log=True)
            at = [(bounds[0], ends[0])] + [None] * (len(grid) - 2) + [(bounds[0], ends[1])]
            if len(grids) == 2:
                assert not opt.found and floor < hi
                ys = grids[1]
                assert ys[0] == ends[0] and ys[-1] == ends[1] and 2 <= len(ys) <= 401
                grid += [max(lo, floor)] + [10.0 ** y for y in ys[1:-1]] + [hi]
                at += [(bounds[1], y) for y in ys]
            else:
                assert len(grids) == 1 and (opt.found or floor == hi)
        else:
            assert not grids
            grid = at = []
        for mu, bound_at in zip(grid, at, strict=True):
            setup = SetupConfig(protocol=protocol, mu=mu, t_db=t_db, length_km=length,
                                pulse_rate_hz=5e6)
            checks[floor is not None] += 1
            rate = secret_rate(setup, detector)
            assert _no_less(rate.r_sec, opt.r_sec_hz), (protocol, length, t_db, floor, mu)
            if bound_at is not None:
                bound, y = bound_at
                bounded[protocol.uses_reference_pulse] += 1
                assert rate.per_pulse <= bound(y), (protocol, length, t_db, floor, mu)
    assert min(bounded.values()) > 400, bounded
    assert min(checks.values()) > 500, checks


def test_optimized_rate_does_not_rise_with_distance():
    # The mu-optimized curve of rate_vs_distance, grey optima included: a
    # longer fiber loses light at every mu, so its best mu does no better.
    rng = np.random.default_rng(20261021)
    detector = DetectorConfig()
    checks = dict.fromkeys(Protocol, 0)  # pairs with a positive rate at L + 0.5 km
    for protocol in list(Protocol) * 18:
        length, t_db = rng.uniform(0.0, 120.0), rng.uniform(40.0, 90.0)
        near, far = (optimize_mu(l, t_db, detector, protocol=protocol, mu_range=(0.01, 1.0, 21))
                     for l in (length, length + 0.5))
        checks[protocol] += far.r_sec_hz > 0.0
        assert _no_less(far.r_sec_hz, near.r_sec_hz), (protocol, length, t_db)
    assert min(checks.values()) > 5, checks
