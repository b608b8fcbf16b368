"""Brent's parabolic-golden search, the one helper built on it, and its callers."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srqkd import (
    DecoyConfig,
    DetectorConfig,
    Protocol,
    SetupConfig,
    derive_channel,
    grey_region_mu_floor,
    maximize_eve_information,
    optimize,
    optimize_mu,
    physics,
    secret_rate,
    sr_secret_rate,
    sweeps,
)
from srqkd.attack import edge_information
from srqkd.optimize import (
    GOLDEN_MAX_ITER,
    GOLDEN_REL,
    golden_max,
    grid_then_golden_max,
)
from srqkd.rates import bb84_rate_bound

from oracles import b_interval

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _stop_width(a, b):
    # The narrowest final bracket golden_max asks for on [a, b].
    return max(GOLDEN_REL * abs(b - a), 4.0 * math.ulp(max(abs(a), abs(b))))


def _golden_section_max(f, a, b, start=None):
    # Oracle: the plain golden-section loop that Brent's search replaced,
    # with the same stop rule and the bracket midpoint as its result. It
    # takes golden_max's start point and ignores it.
    if b < a:
        a, b = b, a
    stop = _stop_width(a, b)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= stop:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def test_golden_max_quadratic():
    x, v = golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=5e-8)
    assert v == pytest.approx(0.0, abs=1e-15)


def test_golden_max_cosine():
    x, v = golden_max(math.cos, -1.5, 2.0)
    assert x == pytest.approx(0.0, abs=5e-8)
    assert v == pytest.approx(1.0, abs=1e-14)


def test_golden_max_swapped_bracket():
    x, _ = golden_max(lambda x: -(x - 0.3) ** 2, 1.0, 0.0)
    assert x == pytest.approx(0.3, abs=5e-8)


def test_grid_then_golden_interior():
    f = lambda x: -(x - 0.41) ** 2
    xs = np.linspace(0.0, 1.0, 100)
    x, v = grid_then_golden_max(f, xs)
    assert x == pytest.approx(0.41, abs=5e-8)
    assert v == pytest.approx(0.0, abs=1e-14)


def test_grid_then_golden_endpoint_optimum():
    # Monotone objective: the optimum sits on the boundary and must be
    # returned exactly, not a refined near-boundary point.
    f = lambda x: x
    xs = np.linspace(0.0, 2.0, 50)
    x, v = grid_then_golden_max(f, xs)
    assert x == 2.0
    assert v == 2.0


def test_grid_then_golden_log_spacing():
    f = lambda x: -(math.log10(x) + 1.0) ** 2  # peak at x = 0.1
    xs = np.logspace(-3.0, 0.0, 200)
    xs[0], xs[-1] = 1e-3, 1.0
    x, _ = grid_then_golden_max(f, xs)
    assert x == pytest.approx(0.1, rel=1e-6)


def test_grid_then_golden_degenerate_interval():
    f, calls = _counted(lambda x: -(x - 0.3) ** 2)
    xs = np.linspace(0.7, 0.7, 100)
    assert grid_then_golden_max(f, xs) == (0.7, -(0.7 - 0.3) ** 2)
    assert calls == [0.7]  # a collapsed grid is scored once
    xs = np.linspace(1.0, 0.0, 10)
    with pytest.raises(ValueError, match="empty"):
        grid_then_golden_max(f, xs)


def test_grid_then_golden_no_finite_cell():
    # No finite grid value: the search still runs, between the first grid
    # point's neighbours, and with nothing finite there either the first
    # grid point is returned at -inf.
    f, calls = _counted(lambda x: math.nan)
    xs = np.linspace(0.2, 1.0, 11)
    x, v = grid_then_golden_max(f, xs)
    assert (x, v) == (0.2, -math.inf)
    assert calls[:len(xs)] == list(xs)  # each grid point once, then the search
    assert len(calls) > len(xs)
    assert all(xs[0] <= c <= xs[1] for c in calls[len(xs):])


def test_grid_then_golden_unbounded_scores_grid_in_order():
    # Without a bound every grid point is scored once, in index order, also
    # after the first best (index 1, tied at index 3); then the search runs
    # between that point's neighbours and does not score it again.
    xs = [0.0, 0.25, 0.5, 0.75, 1.0]
    at_grid = dict(zip(xs, [0.0, 1.0, -math.inf, 1.0, 0.5]))
    f, calls = _counted(lambda x: at_grid.get(x, 1.0 - (x - 0.25) ** 2))
    assert grid_then_golden_max(f, xs) == (0.25, 1.0)
    assert calls[:len(xs)] == xs and len(calls) > len(xs)
    assert all(0.0 <= c <= 0.5 and c != 0.25 for c in calls[len(xs):])


def test_grid_then_golden_finds_peak_between_infeasible_ends():
    # Both ends infeasible, the interior finite: only the search finds the
    # peak (as for an attack interval whose two edges are both infeasible).
    def f(x):
        return -(x - 0.45) ** 2 if 0.3 <= x <= 0.6 else -math.inf

    x, v = grid_then_golden_max(f, (0.0, 1.0))
    assert x == pytest.approx(0.45, abs=5e-8)
    assert v == f(x) and math.isfinite(v)


def test_grid_then_golden_skips_invalid_cells():
    # -inf marks infeasible points; the scan must land on the feasible peak.
    def f(x):
        return -math.inf if x < 0.5 else -(x - 0.8) ** 2

    xs = np.linspace(0.0, 1.0, 101)
    x, v = grid_then_golden_max(f, xs)
    assert x == pytest.approx(0.8, abs=5e-8)
    assert v == pytest.approx(0.0, abs=1e-14)


def _seeded_attack_setups(n, rng):
    # The sweep-grid plane: both sides of the grey boundary, L = 0 included.
    detector = DetectorConfig()
    out = []
    while len(out) < n:
        setup = SetupConfig(protocol=Protocol.B92_SR, mu=10.0 ** rng.uniform(-2.0, 0.0),
                            t_db=rng.uniform(40.0, 90.0),
                            length_km=float(rng.choice([0.0, 5.0, 10.0, 25.0, 30.0])),
                            pulse_rate_hz=5e6)
        b_lo, b_hi = b_interval(setup, detector)
        if b_lo < b_hi:
            out.append(setup)
    return out


def test_brent_matches_golden_section_on_attack(monkeypatch, information_rounding):
    # At L = 0 and t above about 72 dB, I_E (1e-8 to 1e-6 bits) loses up to
    # 1e-6 of its value to cancellation; there both searches land on
    # rounding noise, which information_rounding bounds at each b.
    detector = DetectorConfig()
    setups = _seeded_attack_setups(200, np.random.default_rng(8))
    brent = [maximize_eve_information(s, detector).best for s in setups]
    # The attack searches through optimize.grid_then_golden_max, which
    # calls optimize's golden_max: patch that binding, and check that the
    # oracle ran for every setup.
    oracle_runs = []

    def oracle(f, a, b, start=None):
        oracle_runs.append((a, b))
        return _golden_section_max(f, a, b)

    monkeypatch.setattr(optimize, "golden_max", oracle)
    for setup, new in zip(setups, brent):
        old = maximize_eve_information(setup, detector).best
        channel = derive_channel(setup, detector)
        args = (setup.mu, detector.eta, channel.mu_prime, channel.delta)
        noise = information_rounding(new.b, *args) + information_rounding(old.b, *args)
        assert abs(new.i_e - old.i_e) <= 1e-10 * old.i_e + noise, setup
        if old.i_e < 1.0:  # I_E clamped at 1 is a plateau, every b on it a maximizer
            assert new.b == pytest.approx(old.b, rel=2e-6, abs=0.0), setup
    assert len(oracle_runs) == len(setups)


@pytest.mark.parametrize("protocol", [Protocol.B92_SR, Protocol.BB84_SR, Protocol.BB84_DECOY])
def test_brent_matches_golden_section_on_mu(monkeypatch, protocol):
    detector = DetectorConfig()
    rng = np.random.default_rng(9)
    points = [(float(rng.choice([0.0, 10.0, 25.0, 40.0])), rng.uniform(55.0, 85.0))
              for _ in range(3)]
    mu_range = (0.01, 1.0, 21)
    brent = [optimize_mu(l, t, detector, protocol=protocol, mu_range=mu_range)
             for l, t in points]
    monkeypatch.setattr(optimize, "golden_max", _golden_section_max)
    for (l, t), new in zip(points, brent):
        old = optimize_mu(l, t, detector, protocol=protocol, mu_range=mu_range)
        assert new.found and old.found
        assert new.r_sec_hz == pytest.approx(old.r_sec_hz, rel=1e-10, abs=0.0), (l, t)
        assert new.mu_opt == pytest.approx(old.mu_opt, rel=2e-6, abs=0.0), (l, t)


def test_brent_evaluation_budget():
    f, calls = _counted(lambda x: -(x - 0.3) ** 2)
    x, _ = golden_max(f, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=5e-8)
    assert len(calls) <= 10
    # The golden-section oracle needs more than three times as many.
    f_old, calls_old = _counted(lambda x: -(x - 0.3) ** 2)
    _golden_section_max(f_old, 0.0, 1.0)
    assert len(calls_old) > 3 * 10


def test_brent_final_bracket_within_tolerance():
    # Every point tried after the best one brackets it: the last evaluations
    # on both sides of x lie at most GOLDEN_REL of the first bracket apart.
    f, calls = _counted(lambda x: -(x - 0.41) ** 2 + 0.1 * (x - 0.41) ** 3)
    x, v = golden_max(f, 0.2, 0.9)
    assert v == f(x)
    left = max(c for c in calls if c < x)
    right = min(c for c in calls if c > x)
    assert right - left <= GOLDEN_REL * (0.9 - 0.2)


def test_brent_known_start_is_not_rescored():
    # A start point with its value replaces the midpoint and is not scored again.
    f, calls = _counted(lambda x: -(x - 0.3) ** 2)
    x, v = golden_max(f, 0.0, 1.0, start=(0.4, -(0.4 - 0.3) ** 2))
    assert x == pytest.approx(0.3, abs=5e-8) and v == f(x)
    assert 0.4 not in calls and 0.5 not in calls


def test_brent_zero_width_bracket():
    f, calls = _counted(lambda x: -(x - 0.3) ** 2)
    x, v = golden_max(f, 0.75, 0.75)
    assert calls == [0.75]
    assert (x, v) == (0.75, -(0.75 - 0.3) ** 2)


@pytest.mark.parametrize("width", [5e-11, 1e-13, 1e-15])
def test_brent_searches_narrow_bracket(width):
    # However narrow the bracket, the search steps inside it and finds a
    # peak away from its middle: the stop is relative to the bracket,
    # floored at 4 ulp of its ends.
    a, b = 0.75, 0.75 + width
    peak = a + 0.85 * (b - a)
    f, calls = _counted(lambda x: -(x - peak) ** 2)
    x, v = golden_max(f, a, b)
    assert len(calls) > 1
    assert a <= min(calls) and max(calls) <= b
    assert abs(x - peak) <= max(0.01 * (b - a), _stop_width(a, b))
    assert v == f(x)
    assert golden_max(f, b, a) == (x, v)


@pytest.mark.parametrize("feasible, peak", [
    ((0.45, 1.0), 0.8),
    ((0.0, 0.55), 0.52),
    ((0.49, 0.51), 0.5),       # -inf at every golden-section point of the bracket
    ((0.499, 0.8), 0.499),     # the peak on the feasibility edge
    ((0.0, 0.5000001), 0.5),   # the peak 1e-7 inside the feasible part
])
def test_brent_partly_infeasible_bracket(feasible, peak):
    # As in a grid refinement, the bracket's middle is feasible.
    def f(x):
        if not feasible[0] <= x <= feasible[1]:
            return -math.inf
        return -(x - peak) ** 2

    x, v = golden_max(f, 0.0, 1.0)
    assert math.isfinite(v)
    assert v == f(x)
    assert x == pytest.approx(peak, abs=1e-6)


def _rate_bound(protocol, mu, length_km, t_db, detector):
    # The bound optimize_mu hands the helper at a grid mu, times the pulse
    # rate: in Hz, as rate_row forms r_sec_hz from per_pulse.
    if not protocol.uses_reference_pulse:
        return bb84_rate_bound(protocol, mu, length_km, detector) * 5e6
    setup = SetupConfig(protocol=protocol, mu=mu, t_db=t_db, length_km=length_km,
                        pulse_rate_hz=5e6)
    i_e, channel = edge_information(setup, detector)
    return sr_secret_rate(protocol, channel, detector, i_e).per_pulse * 5e6


def test_optimize_mu_scores_each_mu_once(monkeypatch, detector):
    scored = []
    secret_rate = sweeps.secret_rate

    def recording(setup, detector, decoy):
        scored.append(setup.mu)
        return secret_rate(setup, detector, decoy=decoy)

    monkeypatch.setattr(sweeps, "secret_rate", recording)
    grid = sweeps._axis(0.01, 1.0, 21, log=True)
    for protocol in (Protocol.B92_SR, Protocol.BB84_DECOY):
        scored.clear()
        opt = optimize_mu(10.0, 65.0, detector, protocol=protocol,
                          mu_range=(0.01, 1.0, 21))
        assert opt.found
        assert len(scored) == len(set(scored))
        assert opt.mu_opt in scored
        # A grid mu is left unrated only where its rate bound is below the result.
        unrated = set(grid) - set(scored)
        assert len(unrated) > 10
        for mu in unrated:
            assert _rate_bound(protocol, mu, 10.0, 65.0, detector) < opt.r_sec_hz, mu
    # A floored search lays out no grid: one Brent search between the two
    # ends, each rated exactly unless its bound is below the result.
    floor = grey_region_mu_floor(10.0, 65.0, detector)
    scored.clear()
    opt = optimize_mu(10.0, 65.0, detector, mu_floor=floor)
    assert opt.found
    for mu in (max(0.01, floor), 1.0):
        assert mu in scored or _rate_bound(Protocol.B92_SR, mu, 10.0, 65.0,
                                           detector) < opt.r_sec_hz, mu
    assert len(scored) == len(set(scored)) <= 40
    assert opt.mu_opt in scored
    # A grey floor at the top of the mu range leaves a single mu to rate.
    scored.clear()
    opt = optimize_mu(10.0, 65.0, detector, mu_floor=1.0)
    assert scored == [1.0] and opt.mu_opt == 1.0


def test_each_sr_rating_derives_its_channel_once(monkeypatch, b92_setup, detector):
    # The attack derives a setup's channel and the SR rate reads that one:
    # one derive_channel per evaluate_sr_point, per SR secret_rate, and per
    # grid bound and rating of an SR mu search.
    counts = dict.fromkeys(("derive", "bound", "rating"), 0)

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        return wrapper

    derive = physics.derive_channel
    for name, module in list(sys.modules.items()):
        if name.startswith("srqkd") and getattr(module, "derive_channel", None) is derive:
            monkeypatch.setattr(module, "derive_channel", counted("derive", derive))
    monkeypatch.setattr(sweeps, "edge_information",
                        counted("bound", sweeps.edge_information))
    monkeypatch.setattr(sweeps, "maximize_eve_information",
                        counted("rating", sweeps.maximize_eve_information))

    def run(call) -> tuple[int, int, int]:
        counts.update(dict.fromkeys(counts, 0))
        call()
        return counts["derive"], counts["bound"], counts["rating"]

    assert run(lambda: sweeps.evaluate_sr_point(b92_setup, detector)) == (1, 0, 1)
    assert run(lambda: secret_rate(b92_setup, detector)) == (1, 0, 1)
    # The default unfloored search at L = 0: 81 grid bounds and 21 ratings.
    assert run(lambda: optimize_mu(0.0, 65.0, detector)) == (102, 81, 21)
    floor = grey_region_mu_floor(10.0, 65.0, detector)
    derived, bounds, ratings = run(lambda: optimize_mu(10.0, 65.0, detector, mu_floor=floor))
    assert derived == bounds + ratings and ratings > 0
    assert run(lambda: optimize_mu(10.0, 65.0, detector, protocol=Protocol.BB84_DECOY)) == (
        0, 0, 0)


def test_grid_then_golden_two_point_grid():
    # On the grid (a, b) an end optimum is returned exactly, an interior
    # one by the search.
    assert grid_then_golden_max(lambda x: x, (0.2, 0.9)) == (0.9, 0.9)
    assert grid_then_golden_max(lambda x: -x, (0.2, 0.9)) == (0.2, -0.2)
    x, v = grid_then_golden_max(lambda x: -(x - 0.41) ** 2, (0.2, 0.9))
    assert x == pytest.approx(0.41, abs=5e-8) and v == pytest.approx(0.0, abs=1e-14)
    # Ties go to a, then b, then the search's point.
    assert grid_then_golden_max(lambda x: 1.0, (0.2, 0.9)) == (0.2, 1.0)
    assert grid_then_golden_max(lambda x: min(x, 0.5), (0.2, 0.9)) == (0.9, 0.5)
    # A collapsed interval is scored once.
    f, calls = _counted(lambda x: -(x - 0.3) ** 2)
    assert grid_then_golden_max(f, (0.75, 0.75)) == (0.75, -(0.75 - 0.3) ** 2)
    assert calls == [0.75]


@st.composite
def _bounded_grids(draw):
    # A grid's values (ties and -inf among them), a peak off the grid, and a
    # bound per point: the value plus a slack (0 for an exact bound, inf),
    # or nan, which means no bound.
    n = draw(st.integers(3, 12))
    value = st.one_of(st.sampled_from([-math.inf, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))
    values = draw(st.lists(value, min_size=n, max_size=n))
    slack = st.one_of(st.sampled_from([0.0, 0.0, 0.5, math.inf, math.nan]), st.floats(0.0, 2.0))
    bounds = [v + s for v, s in zip(values, draw(st.lists(slack, min_size=n, max_size=n)))]
    peak, height = draw(st.floats(0.0, 1.0)), draw(st.floats(-1.0, 2.0))
    return values, bounds, peak, height


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=_bounded_grids())
# Ties of bound and value: before the first best (point 0 ties the best found
# at point 1, so it must still be scored), after it (every bound ties the
# best of point 0, so nothing more is scored), and both.
@example(case=([1.0, 1.0, 0.0], [1.0, 2.0, 0.0], 0.5, 0.0))
@example(case=([0.0] * 6, [0.0] * 6, 0.5, 0.0))
@example(case=([0.5, 1.0, 0.5, 1.0, 1.0], [1.0] * 5, 0.5, 2.0))
@example(case=([0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 2.0], 0.2, -1.0))
def test_grid_bound_changes_nothing(case):
    # A bound only spares grid points that cannot win: the result is the
    # unbounded call's, bit for bit. No point is scored twice, and the grid
    # is scored from the highest bound down, nan first and ties by index.
    # Each grid point scored could still become the first best: its bound
    # is above the best so far, or ties it at an index not after the first
    # best (an unscored point counts as -inf).
    values, bounds, peak, height = case
    xs = [i / (len(values) - 1) for i in range(len(values))]
    at_grid, bound_at = dict(zip(xs, values)), dict(zip(xs, bounds))

    def f(x):
        return at_grid[x] if x in at_grid else height - (x - peak) ** 2

    counted, calls = _counted(f)
    assert grid_then_golden_max(counted, xs, bound_at.__getitem__) == grid_then_golden_max(f, xs)
    on_grid = [x for x in calls if x in at_grid]
    assert len(on_grid) == len(set(on_grid))
    assert on_grid == sorted(on_grid, key=lambda x: (-bound_at[x] if bound_at[x] == bound_at[x]
                                                      else -math.inf, x))
    best, first = -math.inf, 0
    for x in calls:
        if x not in at_grid:
            break  # the search has begun
        i, bound = xs.index(x), bound_at[x]
        assert bound != bound or bound > best or (bound == best and i <= first), (x, calls)
        value = f(x) if math.isfinite(f(x)) else -math.inf
        if value > best or (value == best and i < first):
            best, first = value, i


def _unbounded(f, xs, bound=None):
    # The helper as it runs without a bound.
    return grid_then_golden_max(f, xs)


def test_optimize_mu_bound_changes_nothing(monkeypatch):
    # Seeded draws of every protocol and both mu policies, from the sweep
    # plane out to zero-rate and refused setups: the bounded search returns,
    # or raises, what the unbounded one does.
    rng = np.random.default_rng(20261020)
    cases = []
    for _ in range(40):
        detector = DetectorConfig(eta=rng.uniform(0.05, 1.0),
                                  p_dc=10.0 ** rng.uniform(-7.0, math.log10(0.03)),
                                  p_opt=rng.uniform(0.0, 0.3))
        lo = 10.0 ** rng.uniform(-4.0, -1.0)
        mu_range = (lo, lo * 10.0 ** rng.uniform(0.5, 3.0), int(rng.choice((11, 21, 81))))
        cases.append((rng.uniform(0.0, 150.0), rng.uniform(20.0, 95.0), detector,
                      Protocol.B92_SR if rng.random() < 0.5 else Protocol.BB84_SR,
                      dict(mu_range=mu_range)))
    # The BB84 baselines, many of them past standard BB84's cutoff, with
    # any decoy ratios.
    for _ in range(40):
        detector = DetectorConfig(eta=rng.uniform(0.05, 0.99),
                                  p_dc=10.0 ** rng.uniform(-8.0, math.log10(0.03)),
                                  p_opt=rng.uniform(0.0, 0.1))
        nu2_ratio = rng.uniform(0.0, 0.3)
        decoy = DecoyConfig(nu1_ratio=rng.uniform(nu2_ratio, 1.0 - nu2_ratio),
                            nu2_ratio=nu2_ratio, p_mu=rng.uniform(0.05, 1.0))
        lo = 10.0 ** rng.uniform(-4.0, -0.5)
        mu_range = (lo, lo * 10.0 ** rng.uniform(0.5, 4.0), int(rng.choice((11, 21, 81))))
        length_km = rng.uniform(0.0, 40.0) if rng.random() < 0.5 else rng.uniform(40.0, 250.0)
        cases.append((length_km, 65.0, detector,
                      Protocol.BB84_STANDARD if rng.random() < 0.5 else Protocol.BB84_DECOY,
                      dict(mu_range=mu_range, decoy=decoy)))
    # Floored searches, each at the grey floor: with a positive rate, and
    # with none, which searches the fallback grid too.
    for length_km, t_db, p_opt in ((10.0, 65.0, 0.02), (30.0, 75.0, 0.02), (10.0, 65.0, 0.5),
                                   (60.0, 60.0, 0.02), (5.0, 80.0, 0.3)):
        detector = DetectorConfig(p_opt=p_opt)
        floor = grey_region_mu_floor(length_km, t_db, detector)
        for protocol in Protocol:
            cases.append((length_km, t_db, detector, protocol,
                          dict(mu_range=(0.01, 1.0), mu_floor=floor)))
    default = DetectorConfig()
    # SR searches whose rates are all 0.
    cases += [(90.0, 65.0, default, Protocol.B92_SR, {}),
              (120.0, 65.0, default, Protocol.BB84_SR, {}),
              (10.0, 65.0, DetectorConfig(p_opt=0.5), Protocol.B92_SR, {})]
    # A positive rate that underflows at a subnormal pulse rate.
    cases += [(10.0, 65.0, default, protocol, dict(pulse_rate_hz=1e-322))
              for protocol in Protocol]
    # Refused: delta overflows at mu = 1, and at the lowest grid mu; standard
    # BB84 with a lossless detector; and a bad length.
    cases += [(15600.0, 65.0, default, Protocol.B92_SR, dict(mu_range=(0.01, 1.0, 21))),
              (10.0, 65.0, default, Protocol.BB84_SR, dict(mu_range=(1e-320, 1.0, 41))),
              (10.0, 65.0, DetectorConfig(eta=1.0), Protocol.BB84_STANDARD, {}),
              (10.0, 65.0, DetectorConfig(eta=1.0), Protocol.BB84_STANDARD,
               dict(mu_range=(0.01, 1.0), mu_floor=0.1))]
    cases += [(length_km, 65.0, default, protocol, {})
              for length_km in (-1.0, math.nan) for protocol in Protocol]

    def run(length_km, t_db, detector, protocol, kwargs):
        try:
            return repr(optimize_mu(length_km, t_db, detector, protocol=protocol, **kwargs))
        except ValueError as exc:
            return f"ValueError: {exc}"

    bounded = [run(*case) for case in cases]
    monkeypatch.setattr(sweeps, "grid_then_golden_max", _unbounded)
    assert bounded == [run(*case) for case in cases]
    found = sum("found=True" in out for out in bounded)
    refused = sum(out.startswith("ValueError") for out in bounded)
    assert found > 35 and len(cases) - found - refused > 50 and refused == 12
    assert sum("found=True" in out for out in bounded[40:80]) > 10  # BB84


def test_optimize_mu_maximizer_budget(monkeypatch, detector):
    # The default unfloored B92-SR search rates 81 grid mu without a bound,
    # about 100 maximizer calls; the bound leaves about 15.
    calls = []
    maximize = sweeps.maximize_eve_information

    def counting(setup, detector):
        calls.append(setup.mu)
        return maximize(setup, detector)

    monkeypatch.setattr(sweeps, "maximize_eve_information", counting)
    assert optimize_mu(10.0, 65.0, detector).found
    assert len(calls) <= 30


@pytest.mark.parametrize("protocol, length_km, parent_cost", [
    (Protocol.BB84_DECOY, 10.0, 105),
    (Protocol.BB84_STANDARD, 100.0, 121),  # every rate is 0
    (Protocol.B92_SR, 90.0, 121),  # every rate is 0
])
def test_optimize_mu_rating_budget(monkeypatch, detector, protocol, length_km, parent_cost):
    # The default unfloored search (65 dB) rates about 40 mu: each BB84 grid
    # mu is bounded too, and a bound that ties the best above the first best
    # mu ends the grid. Rating every grid mu took parent_cost.
    rated, maximized = [], []
    secret_rate, maximize = sweeps.secret_rate, sweeps.maximize_eve_information

    def rating(setup, detector, decoy):
        rated.append(setup.mu)
        return secret_rate(setup, detector, decoy=decoy)

    def counting(setup, detector):
        maximized.append(setup.mu)
        return maximize(setup, detector)

    monkeypatch.setattr(sweeps, "secret_rate", rating)
    monkeypatch.setattr(sweeps, "maximize_eve_information", counting)
    optimize_mu(length_km, 65.0, detector, protocol=protocol)
    assert len(rated) <= 50 < parent_cost
    assert len(maximized) == (len(rated) if protocol.uses_reference_pulse else 0)
