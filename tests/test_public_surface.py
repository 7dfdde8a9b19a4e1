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
