import resource

import pytest

from srqkd import DetectorConfig, Protocol, SetupConfig


@pytest.fixture
def detector() -> DetectorConfig:
    """Reference detector: eta=0.2, p_dc=2e-5, p_opt=0.02, NEP=25 pW/rtHz."""
    return DetectorConfig()


@pytest.fixture
def b92_setup() -> SetupConfig:
    """Workhorse operating point: mu=0.3, t=65 dB, L=10 km, f=5 MHz."""
    return SetupConfig(protocol=Protocol.B92_SR, mu=0.3, t_db=65.0,
                       length_km=10.0, pulse_rate_hz=5e6)


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
