"""Scalar maximization shared by the attack and sweep modules.

Brent's parabolic-golden search runs behind two maximizers. On an interval
where the objective has one peak (the attack's search over b, and the mu
search above the grey floor) it runs once, with both ends scored as well.
The unfloored mu search, whose objective can have two peaks, first scans
its grid for the best cell, which the same search then refines.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

# Fraction of the larger bracket part that a golden-section step covers.
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
# The search stops once its bracket is this fraction of the first (about
# sqrt(eps), below which a smooth maximum is flat to rounding), or after
# this many steps.
GOLDEN_REL = 1e-8
GOLDEN_MAX_ITER = 200


def golden_max(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Brent's parabolic-golden search for the maximum of f on [a, b].

    The maximizing form of Brent's ``localmin`` (Algorithms for Minimization
    without Derivatives, 1973, ch. 5): each step fits a parabola through the
    three best points and falls back to a golden-section step whenever that
    fit is not trusted. It stops once the bracket around the best point is
    at most GOLDEN_REL of the first bracket (or 4 ulp of its ends, if more),
    or after GOLDEN_MAX_ITER steps. The search starts at the midpoint; when
    f is finite there and -inf (infeasible) on either side of some interval
    around it, the result is the maximum on that interval.

    Assumes f is unimodal on the bracket; on multimodal functions it
    converges to some local maximum. Returns (x, f(x)) for the best x
    evaluated.
    """
    if b < a:
        a, b = b, a
    # No step is shorter than tol (1 ulp at least, so every step moves x), and
    # the search ends once the best point lies within 2*tol of both bracket ends.
    tol = max(GOLDEN_REL * (b - a) / 4.0, math.ulp(max(abs(a), abs(b))))
    # Brent starts at a golden-section point. The middle is feasible for both
    # callers, and from a finite best point an infeasible (-inf) one only
    # cuts the bracket.
    x = w = v = (a + b) / 2.0
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(GOLDEN_MAX_ITER):
        m = (a + b) / 2.0
        if abs(x - m) <= 2.0 * tol - (b - a) / 2.0:
            break
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            # Parabolic step, kept at least 2*tol inside the bracket.
            d = p / q
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def grid_then_golden_max(f: Callable[[float], float],
                         xs: Sequence[float]) -> tuple[float, float]:
    """Best cell of the increasing grid xs, then a Brent refinement of it.

    f scores each grid point once, then the points the refinement adds; a
    grid collapsed to one point (xs[0] == xs[-1]) is scored once.
    The search interval is [xs[0], xs[-1]]. The better of the grid optimum
    and the refined optimum is returned. Ties keep the first; with no
    finite grid value the result is (xs[0], -inf).
    """
    lo, hi = float(xs[0]), float(xs[-1])
    if hi < lo:
        raise ValueError("empty search interval")
    if hi == lo:
        return lo, f(lo)
    values = [f(float(x)) for x in xs]
    # Non-finite values mark invalid points: they score -inf.
    scores = [v if math.isfinite(v) else -math.inf for v in values]
    k = scores.index(max(scores))
    if scores[k] == -math.inf:
        return lo, -math.inf
    x_ref, v_ref = golden_max(f, float(xs[max(k - 1, 0)]), float(xs[min(k + 1, len(xs) - 1)]))
    candidates = [(float(xs[k]), values[k]), (x_ref, v_ref)]
    return max(candidates, key=lambda pair: pair[1] if math.isfinite(pair[1]) else -math.inf)


def edges_then_golden_max(f: Callable[[float], float], a: float,
                          b: float) -> tuple[float, float]:
    """Both ends of [a, b] scored, then one Brent search over it; the best of the three.

    For f unimodal on [a, b], so that an optimum at an end is returned
    exactly. Ties go to a, then b, then the search's point: an end on a
    plateau is returned whatever path the search took. A collapsed interval
    (a == b) is scored once. Needs a <= b.
    """
    if a == b:
        return a, f(a)
    # max() keeps the first of equal scores: the tie order above.
    return max([(a, f(a)), (b, f(b)), golden_max(f, a, b)], key=lambda pair: pair[1])
