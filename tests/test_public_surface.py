"""The names that README and the benchmark use stay where they look for them."""

import math

import pytest

import bsteleport
from bsteleport import cli, gridio, phase, protocol, states

# README "Library use": the example's imports and the names listed after it
README_NAMES = (
    "ResourceParams", "resource_coeffs", "cat_coeffs", "outcome_distribution",
    "average_fidelity", "classical_baseline", "fidelity_sweep", "phase_argmax_map",
    "phase_profile", "phase_argmax", "verify_resource", "protocol_brute_force",
)
# what perfbench's point queries call through the package
BENCHMARK_NAMES = (
    "cat_coeffs", "coherent_coeffs", "suggest_cutoff", "resource_coeffs",
    "ResourceParams", "average_fidelity", "classical_baseline",
)
# module attributes that perfbench's tracer replaces in place
TRACED_ATTRIBUTES = (
    (states, ("suggest_cutoff", "cat_coeffs", "coherent_coeffs", "resource_coeffs")),
    (protocol, ("average_fidelity", "fidelity_sweep")),
    (phase, ("phase_argmax", "phase_argmax_map")),
    (gridio, ("grid_to_csv_bytes", "grid_to_pgm_bytes", "atomic_write_bytes")),
    (cli, ("main",)),
)


# the whole package surface: README names, benchmark names and the types they
# take, return or raise; the cross-check routes live in tests/reference.py
PUBLIC_NAMES = (
    "DEFINED_MIN", "FidelityGrid", "OutcomeDistribution", "OutputState", "PhaseProfile",
    "ResourceCheck", "ResourceCoeffs", "ResourceParams", "SizeLimitError", "TargetCoeffs",
    "TruncationError", "UndefinedOutcomeError", "average_fidelity", "cat_coeffs",
    "classical_baseline", "coherent_coeffs", "fidelity_given_q", "fidelity_sweep",
    "fock_coeffs", "number_sum_prob", "outcome_distribution", "output_state", "phase_argmax",
    "phase_argmax_map", "phase_profile", "protocol_brute_force", "resource_coeffs",
    "sector_unitary", "sector_unitary_column", "split_total", "suggest_cutoff",
    "verify_resource", "wigner_d_column_stable",
)


def test_package_surface_is_pinned():
    assert set(bsteleport.__all__) == set(PUBLIC_NAMES)
    assert len(bsteleport.__all__) == len(PUBLIC_NAMES)
    assert all(hasattr(bsteleport, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("name", sorted(set(README_NAMES + BENCHMARK_NAMES)))
def test_package_exports(name):
    assert name in bsteleport.__all__
    assert callable(getattr(bsteleport, name))


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in TRACED_ATTRIBUTES for name in names],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_traced_module_attributes(module, name):
    assert callable(getattr(module, name))


def test_call_shapes_of_readme_and_benchmark():
    # the README example, with its printed values
    target = bsteleport.cat_coeffs(1.0, cutoff=6, tail_tol=1e-4)
    params = bsteleport.ResourceParams(n_in=3, m_in=3, beta=math.pi / 2)
    resource = bsteleport.resource_coeffs(params)
    assert bsteleport.average_fidelity(target, resource) == pytest.approx(0.8372, abs=5e-5)
    assert bsteleport.classical_baseline(target, params) == pytest.approx(0.5257, abs=5e-5)
    # the benchmark passes the tolerance positionally and the baseline one argument
    cutoff = bsteleport.suggest_cutoff(2.0, "coherent", 1e-12)
    target = bsteleport.coherent_coeffs(2.0, cutoff, 1e-12)
    assert bsteleport.classical_baseline(target) == bsteleport.classical_baseline(target, params)
    assert bsteleport.output_state(target, resource, 4, phi_minus=0.3).dim == 5
