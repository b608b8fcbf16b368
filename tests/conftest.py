import math
import resource

import pytest

from srqkd import (
    DetectorConfig,
    Protocol,
    SetupConfig,
    holevo_chi,
)

from oracles import amplification, success_probability


@pytest.fixture
def detector() -> DetectorConfig:
    """Reference detector: eta=0.2, p_dc=2e-5, p_opt=0.02, NEP=25 pW/rtHz."""
    return DetectorConfig()


@pytest.fixture
def b92_setup() -> SetupConfig:
    """Workhorse operating point: mu=0.3, t=65 dB, L=10 km, f=5 MHz."""
    return SetupConfig(protocol=Protocol.B92_SR, mu=0.3, t_db=65.0,
                       length_km=10.0, pulse_rate_hz=5e6)


def _information_rounding(b: float, mu: float, eta: float, mu_prime: float,
                          delta: float) -> float:
    # Each retained intensity is a difference, eps_s = a*mu - mu'(1+delta) and
    # eps_f = b*mu - mu'(1-delta), known to a few ulp of its two terms.
    # holevo_chi turns that window into its own spread, which is steep where
    # the difference cancels to near 0 (grey-region points; L = 0 at high t).
    def spread(term: float, offset: float) -> float:
        x = max(term - offset, 0.0)
        err = 4.0 * (math.ulp(term) + math.ulp(offset))
        return holevo_chi(x + err) - holevo_chi(max(x - err, 0.0))

    conclusive = -math.expm1(-2.0 * eta * mu_prime)
    if conclusive <= 0.0:
        return 0.0
    a = amplification(b, mu, eta, mu_prime, delta)
    p = success_probability(eta, mu_prime, delta)
    mu_max, mu_min = mu_prime * (1.0 + delta), mu_prime * (1.0 - delta)
    w_s = -math.expm1(-2.0 * eta * mu_max)
    w_f = -math.expm1(-2.0 * eta * mu_min)
    return (p * abs(w_s) * spread(a * mu, mu_max)
            + (1.0 - p) * abs(w_f) * spread(b * mu, mu_min)) / conclusive


@pytest.fixture(scope="session")
def information_rounding():
    """Bound, in bits, on the rounding of Eve's information at a feasible b.

    Called as ``information_rounding(b, mu, eta, mu_prime, delta)``. Two
    evaluations of the objective whose a, products and differences each
    round within a few ulp differ by at most this much, plus a few ulp of
    the result.
    """
    return _information_rounding


@pytest.fixture
def address_space_cap():
    """Cap this process's address space at its size now plus 256 MiB for one test.

    A simulate run of 10**12 pulses needs no memory of its own; a sampler
    whose memory grows with the pulse count (10**6 spawned block streams
    alone take about 400 MiB) then fails with MemoryError instead of
    exhausting the machine or running for hours. Without /proc/self/statm
    the test runs uncapped.
    """
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + (256 << 20)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
