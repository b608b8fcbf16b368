"""Unambiguous-discrimination measurement: operator identities and cross-checks."""

import math

import numpy as np
import pytest

from srqkd import (
    Protocol,
    SetupConfig,
    build_povm,
    coherent_state_fock,
    derive_channel,
    fock_dimension,
    outcome_probabilities,
    overlap,
    povm_probabilities_fock,
    span_states,
    sr_secret_rate,
)

# Frozen against an independent evaluation of xi * (1 - exp(-2*eta*mu')) with
# mu' = mu * 10**(-0.02*L) at the reference point (mu=0.3, L=10km, eta=0.2).
ACCEPT_B92_REF = 0.07291950316828034


def test_overlap():
    assert overlap(0.0) == 1.0
    assert overlap(0.25) == pytest.approx(math.exp(-0.5), rel=1e-15)
    with pytest.raises(ValueError):
        overlap(-0.1)


def test_build_povm_domain():
    with pytest.raises(ValueError):
        build_povm(1.0)  # identical states, measurement degenerate
    with pytest.raises(ValueError):
        build_povm(-0.2)


def test_povm_operator_identities_random_mu():
    rng = np.random.default_rng(2024)
    for mu in rng.uniform(0.01, 3.0, size=40):
        povm = build_povm(overlap(mu))
        assert povm.completeness_residual() < 1e-12
        assert povm.min_eigenvalue() > -1e-12
        # The closed form agrees with a numerical eigensolver.
        eigs = [np.linalg.eigvalsh(m).min() for m in (povm.m0, povm.m1, povm.m_inc)]
        assert povm.min_eigenvalue() == pytest.approx(min(eigs), abs=1e-15)


def test_povm_outcome_probabilities():
    mu = 0.25
    cg = overlap(mu)
    povm = build_povm(cg)
    psi0, psi1 = span_states(cg)
    p0, p1, p_inc = outcome_probabilities(povm, psi0)
    # USD on symmetric states: never the wrong conclusive click, and the
    # inconclusive weight equals the state overlap.
    assert p1 == pytest.approx(0.0, abs=1e-14)
    assert p_inc == pytest.approx(cg, rel=1e-13)
    assert p0 == pytest.approx(1.0 - cg, rel=1e-13)
    q0, q1, q_inc = outcome_probabilities(povm, psi1)
    assert q0 == pytest.approx(0.0, abs=1e-14)
    assert q1 == pytest.approx(p0, rel=1e-13)
    assert q_inc == pytest.approx(p_inc, rel=1e-13)


def test_inconclusive_operator_spectrum():
    # M? has eigenvalues {2 cg / (1 + cg), 0}: a single ray of failure.
    cg = math.exp(-0.5)
    povm = build_povm(cg)
    eigs = np.sort(np.linalg.eigvalsh(povm.m_inc))
    assert eigs[0] == pytest.approx(0.0, abs=1e-14)
    assert eigs[1] == pytest.approx(2.0 * cg / (1.0 + cg), rel=1e-13)


def test_fock_route_matches_span_route():
    rng = np.random.default_rng(7)
    for mu in rng.uniform(0.02, 2.5, size=25):
        probs = povm_probabilities_fock(mu)
        cg = overlap(mu)
        assert probs["cos_gamma"] == pytest.approx(cg, abs=1e-10)
        for key in ("ok", "ok_1"):
            assert probs[key] == pytest.approx(1.0 - cg, abs=1e-10)
        for key in ("cross", "cross_1"):
            assert abs(probs[key]) < 1e-10
        for key in ("inc", "inc_1"):
            assert probs[key] == pytest.approx(cg, abs=1e-10)


def test_fock_basis_helpers():
    dim = fock_dimension(0.5)
    assert dim >= 2
    vec = coherent_state_fock(math.sqrt(0.5), dim)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
    # Vacuum amplitude e^{-mu/2}, and alternating signs for -alpha.
    assert vec[0] == pytest.approx(math.exp(-0.25), rel=1e-9)
    neg = coherent_state_fock(-math.sqrt(0.5), dim)
    assert neg[1] == pytest.approx(-vec[1], rel=1e-12)
    assert coherent_state_fock(0.0, 4)[0] == 1.0


def acceptance_rate(setup, detector):
    # Per-pulse conclusive-bit probability; raw does not depend on i_e.
    return sr_secret_rate(setup.protocol, derive_channel(setup, detector), detector,
                          i_e=0.0).raw


def test_acceptance_rate_reference(b92_setup, detector):
    assert acceptance_rate(b92_setup, detector) == pytest.approx(ACCEPT_B92_REF, rel=1e-12)


def test_acceptance_rate_sifting(detector):
    kw = dict(mu=0.3, t_db=65.0, length_km=10.0, pulse_rate_hz=5e6)
    b92 = SetupConfig(protocol=Protocol.B92_SR, **kw)
    bb84 = SetupConfig(protocol=Protocol.BB84_SR, **kw)
    assert acceptance_rate(bb84, detector) == pytest.approx(
        0.5 * acceptance_rate(b92, detector), rel=1e-15
    )
    plain = SetupConfig(protocol=Protocol.BB84_STANDARD, **kw)
    with pytest.raises(ValueError):
        acceptance_rate(plain, detector)
