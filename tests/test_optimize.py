"""Golden-section and grid-then-refine maximizers."""

import math

import numpy as np
import pytest

from srqkd.optimize import golden_max, grid_then_golden_max


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
    x, v = grid_then_golden_max(lambda xs: f(xs), f, np.linspace(0.0, 1.0, 100))
    assert x == pytest.approx(0.41, abs=5e-8)
    assert v == pytest.approx(0.0, abs=1e-14)


def test_grid_then_golden_endpoint_optimum():
    # Monotone objective: the optimum sits on the boundary and must be
    # returned exactly, not a refined near-boundary point.
    f = lambda x: x
    x, v = grid_then_golden_max(lambda xs: np.asarray(xs, dtype=float), f,
                                np.linspace(0.0, 2.0, 50))
    assert x == 2.0
    assert v == 2.0


def test_grid_then_golden_log_spacing():
    f = lambda x: -(np.log10(x) + 1.0) ** 2  # peak at x = 0.1
    xs = np.logspace(-3.0, 0.0, 200)
    xs[0], xs[-1] = 1e-3, 1.0
    x, _ = grid_then_golden_max(f, lambda s: float(f(s)), xs)
    assert x == pytest.approx(0.1, rel=1e-6)


def test_grid_then_golden_degenerate_interval():
    f = lambda x: -(x - 0.3) ** 2
    x, v = grid_then_golden_max(lambda xs: f(xs), f, np.linspace(0.7, 0.7, 100))
    assert (x, v) == (0.7, f(0.7))
    with pytest.raises(ValueError, match="empty"):
        grid_then_golden_max(lambda xs: f(xs), f, np.linspace(1.0, 0.0, 10))


def test_grid_then_golden_no_finite_cell():
    calls = []

    def f_scalar(x):
        calls.append(x)
        return 0.0

    x, v = grid_then_golden_max(lambda xs: np.full(len(xs), np.nan), f_scalar,
                                np.linspace(0.2, 1.0, 11))
    assert (x, v) == (0.2, -math.inf)
    assert calls == []  # no golden search, no endpoint scoring


def test_grid_then_golden_scores_grid_cell_with_scalar():
    # The grid pass only picks the cell: the value returned for it is the
    # scalar objective's, here -inf where the array form said 1.
    def f_scalar(x):
        return -math.inf if x == 0.5 else -abs(x - 0.5)

    x, v = grid_then_golden_max(lambda xs: np.where(xs == 0.5, 1.0, -np.abs(xs - 0.5)),
                                f_scalar, np.linspace(0.0, 1.0, 3))
    assert x != 0.5 and math.isfinite(v)


def test_grid_then_golden_skips_invalid_cells():
    # -inf marks infeasible points; the scan must land on the feasible peak.
    def f_grid(xs):
        xs = np.asarray(xs, dtype=float)
        out = -(xs - 0.8) ** 2
        return np.where(xs < 0.5, -np.inf, out)

    def f_scalar(x):
        return -math.inf if x < 0.5 else -(x - 0.8) ** 2

    x, v = grid_then_golden_max(f_grid, f_scalar, np.linspace(0.0, 1.0, 101))
    assert x == pytest.approx(0.8, abs=5e-8)
    assert v == pytest.approx(0.0, abs=1e-14)
