"""Secret-key rate modeling for strong-reference-pulse QKD.

Covers the soft-filtering eavesdropping attack on SR protocols (B92-SR and
the 4+2 BB84 variant), unambiguous-state-discrimination receiver modeling,
BB84 baselines (photon-number-splitting bounded and decoy-state GLLP),
a pulse-level Monte-Carlo cross-check, and the sweep/optimization layer
that turns all of it into datasets.
"""

from .attack import (
    attack_point,
    beam_splitting_information,
    maximize_eve_information,
)
from .discrimination import (
    build_povm,
    coherent_state_fock,
    fock_dimension,
    outcome_probabilities,
    overlap,
    povm_probabilities_fock,
    span_states,
)
from .physics import (
    ChannelDerived,
    DetectorConfig,
    Protocol,
    SetupConfig,
    binary_entropy,
    derive_channel,
    grey_region_mu_floor,
    holevo_chi,
    monitoring_unacceptable,
    qber_from_received,
    transmittance,
)
from .rates import (
    Bb84Yields,
    DecoyConfig,
    RateBreakdown,
    bb84_gain_error,
    bb84_pns_bounds,
    bb84_secret_rate,
    decoy_bounds,
    sr_secret_rate,
)
from .simulation import (
    AttackKind,
    DoubleClickPolicy,
    SimConfig,
    SimResult,
    simulate,
    wilson_interval,
)
from .sweeps import (
    GridSpec,
    SweepRow,
    crossover_distance,
    evaluate_sr_point,
    min_srp_photons,
    optimize_mu,
    rate_vs_distance,
    rate_vs_t,
    secret_rate,
    sweep_mu_t,
    train_capacity,
)

__version__ = "0.1.0"

__all__ = [
    "AttackKind",
    "Bb84Yields",
    "ChannelDerived",
    "DecoyConfig",
    "DetectorConfig",
    "DoubleClickPolicy",
    "GridSpec",
    "Protocol",
    "RateBreakdown",
    "SetupConfig",
    "SimConfig",
    "SimResult",
    "SweepRow",
    "attack_point",
    "bb84_gain_error",
    "bb84_pns_bounds",
    "bb84_secret_rate",
    "beam_splitting_information",
    "binary_entropy",
    "build_povm",
    "coherent_state_fock",
    "crossover_distance",
    "decoy_bounds",
    "derive_channel",
    "fock_dimension",
    "evaluate_sr_point",
    "grey_region_mu_floor",
    "holevo_chi",
    "maximize_eve_information",
    "min_srp_photons",
    "monitoring_unacceptable",
    "optimize_mu",
    "outcome_probabilities",
    "overlap",
    "povm_probabilities_fock",
    "qber_from_received",
    "rate_vs_distance",
    "rate_vs_t",
    "secret_rate",
    "simulate",
    "span_states",
    "sr_secret_rate",
    "sweep_mu_t",
    "train_capacity",
    "transmittance",
    "wilson_interval",
]
