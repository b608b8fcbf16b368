"""Test-only reference functions: the soft-filtering attack's constraints.

The attack pins p and a once b is chosen: the filter is unitary, and Bob's
conclusive-click rate is preserved (see ``srqkd.attack``). Nothing in the
package computes these residuals, nor a from (b, mu, eta, mu', delta);
tests compute them here to check the points the package returns. Arguments
are the finite values the tests pass, so nothing here validates them,
except that ``amplification`` refuses a b without a unitarity solution.
"""

import math

from srqkd.attack import _expm1, _setup_terms


def success_probability(eta: float, mu_prime: float, delta: float) -> float:
    """Filtering success probability p = 1/(1 + exp(-2*eta*mu'*delta))."""
    return 1.0 / (1.0 + math.exp(-2.0 * eta * mu_prime * delta))


def amplification(b: float, mu: float, eta: float, mu_prime: float, delta: float) -> float:
    """Amplification coefficient a solving the unitarity constraint for given b."""
    log_arg = 1.0 - math.exp(-2.0 * eta * mu_prime * delta) * _expm1(2.0 * mu * (1.0 - b))
    if not log_arg > 0.0:
        raise ValueError(f"b={b} infeasible: unitarity has no solution with a >= 1")
    return 1.0 - math.log(log_arg) / (2.0 * mu)


def unitarity_residual(p: float, a: float, b: float, mu: float) -> float:
    """|p*exp(-2*a*mu) + (1-p)*exp(-2*b*mu) - exp(-2*mu)|."""
    return abs(p * math.exp(-2.0 * a * mu) + (1.0 - p) * math.exp(-2.0 * b * mu)
               - math.exp(-2.0 * mu))


def rate_residual(p: float, beta_s_sq: float, beta_f_sq: float,
                  eta: float, mu_prime: float) -> float:
    """Deviation of Bob's conclusive-click rate under attack from the expected one."""
    under_attack = (p * -math.expm1(-2.0 * eta * beta_s_sq)
                    + (1.0 - p) * -math.expm1(-2.0 * eta * beta_f_sq))
    return abs(under_attack - -math.expm1(-2.0 * eta * mu_prime))


def b_interval(setup, detector) -> tuple[float, float]:
    """Feasible attenuation interval (b_min, b_max) of a setup's attack."""
    terms = _setup_terms(setup, detector)
    return terms.b_min, terms.b_max
