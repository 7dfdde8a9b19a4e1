"""Teleportation statistics for Fock states entangled at a beam splitter.

The package computes the coefficients of the two-mode resource produced
when two number states meet at a beam splitter of arbitrary
transmissivity, the statistics of the joint photon-number and
phase-difference measurement driving the teleportation protocol, and the
resulting conditional and average fidelities, including the two standard
grid products over the splitter angle and the input imbalance.
"""

from .numerics import wigner_d_column_stable
from .oracle import (
    ResourceCheck,
    SizeLimitError,
    protocol_brute_force,
    sector_unitary,
    sector_unitary_column,
    verify_resource,
)
from .phase import (
    PhaseProfile,
    phase_argmax,
    phase_argmax_map,
    phase_profile,
)
from .protocol import (
    DEFINED_MIN,
    FidelityGrid,
    OutcomeDistribution,
    OutputState,
    UndefinedOutcomeError,
    average_fidelity,
    classical_baseline,
    fidelity_given_q,
    fidelity_sweep,
    number_sum_prob,
    outcome_distribution,
    output_state,
    split_total,
)
from .states import (
    ResourceCoeffs,
    ResourceParams,
    TargetCoeffs,
    TruncationError,
    cat_coeffs,
    coherent_coeffs,
    fock_coeffs,
    resource_coeffs,
    suggest_cutoff,
)

__version__ = "0.1.0"

__all__ = [
    "DEFINED_MIN",
    "FidelityGrid",
    "OutcomeDistribution",
    "OutputState",
    "PhaseProfile",
    "ResourceCheck",
    "ResourceCoeffs",
    "ResourceParams",
    "SizeLimitError",
    "TargetCoeffs",
    "TruncationError",
    "UndefinedOutcomeError",
    "average_fidelity",
    "cat_coeffs",
    "classical_baseline",
    "coherent_coeffs",
    "fidelity_given_q",
    "fidelity_sweep",
    "fock_coeffs",
    "number_sum_prob",
    "outcome_distribution",
    "output_state",
    "phase_argmax",
    "phase_argmax_map",
    "phase_profile",
    "protocol_brute_force",
    "resource_coeffs",
    "sector_unitary",
    "sector_unitary_column",
    "split_total",
    "suggest_cutoff",
    "verify_resource",
    "wigner_d_column_stable",
]
