"""Unambiguous discrimination of two non-orthogonal coherent states.

The receiver in a B92-style protocol distinguishes |alpha> from |-alpha>
with a three-outcome POVM {M0, M1, M?}: M0/M1 announce the bit with
certainty, M? is inconclusive. The POVM acts on the 2-dimensional span of
the two signal states, so it is built directly in an orthonormal basis of
that span; a truncated Fock-basis construction is also provided as an
independent cross-check of the outcome probabilities.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PovmSet:
    """Three-outcome USD measurement on the span of the two signal states.

    Matrices are expressed in an orthonormal basis {|e0>, |e1>} of that
    span, with |psi0> = (1, 0) and |psi1> = (cos_gamma, sin_gamma).
    """

    m0: np.ndarray
    m1: np.ndarray
    m_inc: np.ndarray

    def completeness_residual(self) -> float:
        """Max-norm deviation of M0 + M1 + M? from the identity."""
        return float(np.max(np.abs(self.m0 + self.m1 + self.m_inc - np.eye(2))))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue over all three operators (>= -1e-10 when valid)."""
        return float(min(np.linalg.eigvalsh(m).min() for m in (self.m0, self.m1, self.m_inc)))


def overlap(mu: float) -> float:
    """Overlap <alpha|-alpha> = exp(-2*mu) of the two signal states."""
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    return math.exp(-2.0 * mu)


def span_states(cos_gamma: float) -> tuple[np.ndarray, np.ndarray]:
    sin_gamma = math.sqrt((1.0 - cos_gamma) * (1.0 + cos_gamma))
    psi0 = np.array([1.0, 0.0])
    psi1 = np.array([cos_gamma, sin_gamma])
    return psi0, psi1


def build_povm(cos_gamma: float) -> PovmSet:
    """USD POVM for two pure states with real overlap cos_gamma.

    M0 = (1 - |psi1><psi1|)/(1 + cos_gamma), M1 likewise with psi0, and
    M? = 1 - M0 - M1, all on the 2-dimensional span. cos_gamma = 1 is
    rejected: indistinguishable states make the measurement degenerate.
    """
    if not 0 <= cos_gamma < 1:
        raise ValueError(f"cos_gamma must be in [0, 1), got {cos_gamma}")
    psi0, psi1 = span_states(cos_gamma)
    eye = np.eye(2)
    m0 = (eye - np.outer(psi1, psi1)) / (1.0 + cos_gamma)
    m1 = (eye - np.outer(psi0, psi0)) / (1.0 + cos_gamma)
    m_inc = eye - m0 - m1
    return PovmSet(m0=m0, m1=m1, m_inc=m_inc)


def outcome_probabilities(povm: PovmSet, state: np.ndarray) -> tuple[float, float, float]:
    """(p0, p1, p?) for a pure state vector in the POVM's basis."""
    state = np.asarray(state, dtype=float)
    return tuple(float(state @ m @ state) for m in (povm.m0, povm.m1, povm.m_inc))


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


def coherent_state_fock(alpha: float, dim: int) -> np.ndarray:
    """Amplitudes of |alpha> (real alpha) on the first ``dim`` Fock states, renormalized."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    n = np.arange(dim)
    if alpha == 0.0:
        return (n == 0).astype(float)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
    log_mag = -alpha * alpha / 2.0 + n * math.log(abs(alpha)) - log_fact / 2.0
    vec = np.sign(alpha) ** n * np.exp(log_mag)
    return vec / np.linalg.norm(vec)


def povm_probabilities_fock(mu: float) -> dict[str, float]:
    """Outcome probabilities computed entirely in a truncated Fock basis.

    Returns conditional probabilities for either input state: conclusive
    correct ('ok'), cross-click ('cross'), inconclusive ('inc'). The POVM
    identity is the projector onto the span of the two truncated states.
    """
    dim = fock_dimension(mu)
    alpha = math.sqrt(mu)
    psi0 = coherent_state_fock(alpha, dim)
    psi1 = coherent_state_fock(-alpha, dim)
    cos_gamma = float(psi0 @ psi1)

    # Orthonormal span basis via Gram-Schmidt, then the projector onto it.
    e0 = psi0
    e1 = psi1 - (psi1 @ e0) * e0
    e1 /= np.linalg.norm(e1)
    p_span = np.outer(e0, e0) + np.outer(e1, e1)

    m0 = (p_span - np.outer(psi1, psi1)) / (1.0 + cos_gamma)
    m1 = (p_span - np.outer(psi0, psi0)) / (1.0 + cos_gamma)
    m_inc = p_span - m0 - m1
    return {
        "ok": float(psi0 @ m0 @ psi0),
        "cross": float(psi0 @ m1 @ psi0),
        "inc": float(psi0 @ m_inc @ psi0),
        "ok_1": float(psi1 @ m1 @ psi1),
        "cross_1": float(psi1 @ m0 @ psi1),
        "inc_1": float(psi1 @ m_inc @ psi1),
        "cos_gamma": cos_gamma,
    }
