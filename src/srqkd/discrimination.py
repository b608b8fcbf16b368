"""Unambiguous discrimination of two non-orthogonal coherent states.

The receiver in a B92-style protocol distinguishes |alpha> from |-alpha>
with a three-outcome POVM {M0, M1, M?}: M0/M1 announce the bit with
certainty, M? is inconclusive. The POVM acts on the 2-dimensional span of
the two signal states, so it is built directly in an orthonormal basis of
that span, as three 2x2 real matrices in plain ``math``; a truncated
Fock-basis construction is also provided as an independent cross-check of
the outcome probabilities.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

Matrix = tuple[tuple[float, float], tuple[float, float]]  # rows ((a, b), (c, d))


@dataclass(frozen=True)
class PovmSet:
    """Three-outcome USD measurement on the span of the two signal states.

    Matrices are expressed in an orthonormal basis {|e0>, |e1>} of that
    span, with |psi0> = (1, 0) and |psi1> = (cos_gamma, sin_gamma).
    """

    m0: Matrix
    m1: Matrix
    m_inc: Matrix

    def completeness_residual(self) -> float:
        """Max-norm deviation of M0 + M1 + M? from the identity."""
        return max(abs(self.m0[i][j] + self.m1[i][j] + self.m_inc[i][j] - (i == j))
                   for i in range(2) for j in range(2))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue over all three operators (>= -1e-10 when valid)."""
        # The smaller eigenvalue of a symmetric ((a, b), (b, d)), in closed form.
        return min((a + d) / 2.0 - math.hypot((a - d) / 2.0, b)
                   for (a, b), (_, d) in (self.m0, self.m1, self.m_inc))


def overlap(mu: float) -> float:
    """Overlap <alpha|-alpha> = exp(-2*mu) of the two signal states."""
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    return math.exp(-2.0 * mu)


def span_states(cos_gamma: float) -> tuple[tuple[float, float], tuple[float, float]]:
    sin_gamma = math.sqrt((1.0 - cos_gamma) * (1.0 + cos_gamma))
    return (1.0, 0.0), (cos_gamma, sin_gamma)


def build_povm(cos_gamma: float) -> PovmSet:
    """USD POVM for two pure states with real overlap cos_gamma.

    M0 = (1 - |psi1><psi1|)/(1 + cos_gamma), M1 likewise with psi0, and
    M? = 1 - M0 - M1, all on the 2-dimensional span. cos_gamma = 1 is
    rejected: indistinguishable states make the measurement degenerate.
    """
    if not 0 <= cos_gamma < 1:
        raise ValueError(f"cos_gamma must be in [0, 1), got {cos_gamma}")
    psi0, psi1 = span_states(cos_gamma)

    def complement(psi) -> Matrix:
        return tuple(tuple(((i == j) - psi[i] * psi[j]) / (1.0 + cos_gamma) for j in range(2))
                     for i in range(2))

    m0, m1 = complement(psi1), complement(psi0)
    m_inc = tuple(tuple((i == j) - m0[i][j] - m1[i][j] for j in range(2)) for i in range(2))
    return PovmSet(m0=m0, m1=m1, m_inc=m_inc)


def outcome_probabilities(povm: PovmSet, state) -> tuple[float, float, float]:
    """(p0, p1, p?) for a pure state (x, y) in the POVM's basis."""
    x, y = map(float, state)
    return tuple((x * m[0][0] + y * m[1][0]) * x + (x * m[0][1] + y * m[1][1]) * y
                 for m in (povm.m0, povm.m1, povm.m_inc))


# -- Fock-basis cross-check ------------------------------------------------
#
# The span construction above is exact; the functions below rebuild the same
# measurement in a truncated photon-number basis so tests can compare the
# two routes without sharing code paths.

# Poisson weight a truncated Fock basis may discard.
FOCK_TAIL_MASS = 1e-12


def fock_dimension(mu: float) -> int:
    """Smallest Fock-space dimension whose discarded coherent tail is < FOCK_TAIL_MASS."""
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    weight = math.exp(-mu)
    if weight < sys.float_info.min:  # mu > 708: subnormal weights never sum to 1
        raise ValueError(f"mu={mu} too large for a Fock-basis construction")
    total = weight
    n = 0
    while 1.0 - total >= FOCK_TAIL_MASS:
        n += 1
        weight *= mu / n
        total += weight
    return max(n + 1, 2)  # two distinct signal states span two dimensions


def coherent_state_fock(alpha: float, dim: int) -> list[float]:
    """Amplitudes of |alpha> (real alpha) on the first ``dim`` Fock states, renormalized."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    amplitudes = [math.exp(-alpha * alpha / 2.0)]  # <n|alpha> = <n-1|alpha> * alpha/sqrt(n)
    for n in range(1, dim):
        amplitudes.append(amplitudes[-1] * alpha / math.sqrt(n))
    norm = math.hypot(*amplitudes)
    return [c / norm for c in amplitudes]


def _dot(u, v) -> float:
    return math.fsum(x * y for x, y in zip(u, v))


def povm_probabilities_fock(mu: float) -> dict[str, float]:
    """Outcome probabilities computed entirely in a truncated Fock basis.

    Returns conditional probabilities for either input state: conclusive
    correct ('ok'), cross-click ('cross'), inconclusive ('inc'). The POVM
    identity is the projector P onto the span of the two truncated states, so
    <psi|M0|psi> = (<psi|P|psi> - <psi|psi1>^2)/(1 + cos_gamma), M1 likewise
    with psi0, and M? = P - M0 - M1: inner products, no matrices.
    """
    dim = fock_dimension(mu)
    alpha = math.sqrt(mu)
    psi0 = coherent_state_fock(alpha, dim)
    psi1 = coherent_state_fock(-alpha, dim)
    cos_gamma = _dot(psi0, psi1)
    # One Gram-Schmidt step: P = |psi0><psi0| + |e1><e1|/<e1|e1>.
    e1 = [y - cos_gamma * x for x, y in zip(psi0, psi1)]
    e1_sq = _dot(e1, e1)

    def outcomes(psi) -> tuple[float, float, float]:
        on0, on1 = _dot(psi, psi0), _dot(psi, psi1)
        in_span = on0 * on0 + _dot(psi, e1) ** 2 / e1_sq
        p0 = (in_span - on1 * on1) / (1.0 + cos_gamma)
        p1 = (in_span - on0 * on0) / (1.0 + cos_gamma)
        return p0, p1, in_span - p0 - p1

    ok, cross, inc = outcomes(psi0)
    cross_1, ok_1, inc_1 = outcomes(psi1)
    return {"ok": ok, "cross": cross, "inc": inc, "ok_1": ok_1, "cross_1": cross_1,
            "inc_1": inc_1, "cos_gamma": cos_gamma}
