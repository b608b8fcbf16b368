"""Scalar maximization shared by the attack and sweep modules.

Brent's parabolic-golden search runs behind one maximizer, which scores a
grid and then searches around its best point. Where the objective has one
peak (the attack's search over b, and the mu search above the grey floor)
the grid is the interval's two ends; the unfloored mu search, whose
objective can have two peaks, hands it a log grid in mu. Every mu grid comes
with a cheap upper bound at each point, which spares the points that cannot
become the grid's first best.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

# Fraction of the larger bracket part that a golden-section step covers.
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
# The search stops once its bracket is this fraction of the first (about
# sqrt(eps), below which a smooth maximum is flat to rounding), or after
# this many steps.
GOLDEN_REL = 1e-8
GOLDEN_MAX_ITER = 200


def golden_max(f: Callable[[float], float], a: float, b: float,
               start: Optional[tuple[float, float]] = None) -> tuple[float, float]:
    """Brent's parabolic-golden search for the maximum of f on [a, b].

    The maximizing form of Brent's ``localmin`` (Algorithms for Minimization
    without Derivatives, 1973, ch. 5): each step fits a parabola through the
    three best points and falls back to a golden-section step whenever that
    fit is not trusted. It stops once the bracket around the best point is
    at most GOLDEN_REL of the first bracket (or 4 ulp of its ends, if more),
    or after GOLDEN_MAX_ITER steps. The search starts at the midpoint, or
    at start = (x, f(x)), a point of the bracket whose value is known and
    so not scored again; when f is finite there and -inf (infeasible) on
    either side of some interval around it, the result is the maximum on
    that interval.

    Assumes f is unimodal on the bracket; on multimodal functions it
    converges to some local maximum. Returns (x, f(x)) for the best x
    evaluated.
    """
    if b < a:
        a, b = b, a
    # No step is shorter than tol (1 ulp at least, so every step moves x), and
    # the search ends once the best point lies within 2*tol of both bracket ends.
    tol = max(GOLDEN_REL * (b - a) / 4.0, math.ulp(max(abs(a), abs(b))))
    # Brent starts at a golden-section point; any point of the bracket serves
    # as well, and from a finite best point an infeasible (-inf) one only
    # cuts the bracket.
    if start is None:
        mid = (a + b) / 2.0
        start = mid, f(mid)
    x = w = v = start[0]
    fx = fw = fv = start[1]
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


def grid_then_golden_max(f: Callable[[float], float], xs: Sequence[float],
                         bound: Optional[Callable[[float], float]] = None
                         ) -> tuple[float, float]:
    """Best point of the increasing grid xs, then one Brent search around it.

    f scores each grid point at most once; a non-finite value scores -inf. The
    search runs between the neighbours of the first best point, starting from
    it, so it is not scored again and a flat stretch (a zero rate) in the middle
    of a wide cell does not lead it away from the peak (a two-point grid's
    search starts in the middle). It runs even when no grid value is finite: the
    peak may lie between infeasible grid points. The better of the grid point
    and the search's point is returned, and a tie goes to the grid point. So a
    two-point grid (a, b) returns a, then b, then the search's point: an optimum
    at an end, or an end on a plateau, comes back exactly. A grid collapsed to
    one point (xs[0] == xs[-1]) is scored once.

    bound, when given, is an upper bound on f at each grid point (nan: no
    bound), cheaper than f. Every grid point's bound is computed first; then
    f scores the points from the highest bound down (ties by index) and stops
    at the first bound below the best score so far, or equal to it at an index
    after the first best point (Tuy's monotonic branch and bound, SIAM J.
    Optim. 11, 2000, over a grid). No point left unscored can beat that best,
    or tie it at an earlier index, so the first best point, the search and the
    result are those of the same call without bound, which scores every grid
    point in index order.
    """
    lo, hi = float(xs[0]), float(xs[-1])
    if hi < lo:
        raise ValueError("empty search interval")

    def score(v: float) -> float:
        return v if math.isfinite(v) else -math.inf

    if hi == lo:
        return lo, score(f(lo))
    # -bound sorts the highest bound first; a nan bound, like no bound at all,
    # sorts before all, and ties keep index order.
    keys = ([-math.inf] * len(xs) if bound is None
            else [-v if v == v else -math.inf for v in (bound(float(x)) for x in xs)])
    # k is the first best index of the scores so far, an unscored point
    # counting as -inf (its f is at most its bound, which is below best or
    # ties it at a later index, so it cannot become the first best).
    k, best = 0, -math.inf
    for i in sorted(range(len(xs)), key=keys.__getitem__):
        if -keys[i] < best or (-keys[i] == best and i > k):
            break
        v = score(f(float(xs[i])))
        if v > best or (v == best and i < k):
            k, best = i, v
    grid_best = float(xs[k]), best
    # Two ends tell the search nothing of the inside: it starts in the middle.
    x_ref, v_ref = golden_max(f, float(xs[max(k - 1, 0)]), float(xs[min(k + 1, len(xs) - 1)]),
                              start=grid_best if len(xs) > 2 else None)
    return (x_ref, v_ref) if score(v_ref) > grid_best[1] else grid_best
