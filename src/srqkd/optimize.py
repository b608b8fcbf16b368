"""Scalar maximization helpers shared by the attack and sweep modules."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The golden-section search stops once its bracket is this narrow (absolute,
# in x), or after this many steps.
GOLDEN_TOL = 1e-10
GOLDEN_MAX_ITER = 200


def golden_max(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Golden-section search for the maximum of f on [a, b].

    Assumes f is unimodal on the bracket; on multimodal functions it
    converges to some local maximum, which is why callers first locate the
    best cell of a dense grid. Returns (x, f(x)).
    """
    if b < a:
        a, b = b, a
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= GOLDEN_TOL:
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


def grid_then_golden_max(f_grid: Callable[[np.ndarray], np.ndarray],
                         f_scalar: Callable[[float], float],
                         xs: np.ndarray) -> tuple[float, float]:
    """Scan of the increasing grid xs, then golden-section refinement of the best cell.

    f_grid evaluates the objective on an array (non-finite values mark
    invalid points); f_scalar evaluates a single point. The search interval
    is [xs[0], xs[-1]]. The best of {grid optimum, refined optimum, both
    interval endpoints} is returned, every one scored by f_scalar, so exact
    endpoint optima are never lost to the local search. With no finite grid
    value the result is (xs[0], -inf).
    """
    lo, hi = float(xs[0]), float(xs[-1])
    if hi < lo:
        raise ValueError("empty search interval")
    if hi == lo:
        return lo, f_scalar(lo)
    values = np.asarray(f_grid(xs), dtype=float)
    k = int(np.argmax(np.where(np.isfinite(values), values, -np.inf)))
    if not math.isfinite(values[k]):
        return lo, -math.inf
    bracket_lo = xs[max(k - 1, 0)]
    bracket_hi = xs[min(k + 1, len(xs) - 1)]
    x_ref, v_ref = golden_max(f_scalar, float(bracket_lo), float(bracket_hi))

    candidates = [(float(xs[k]), f_scalar(float(xs[k]))), (x_ref, v_ref)]
    for edge in (lo, hi):
        candidates.append((edge, f_scalar(edge)))
    best = max(candidates, key=lambda pair: pair[1] if math.isfinite(pair[1]) else -math.inf)
    return best
