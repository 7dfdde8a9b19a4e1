"""Checks for the measurement statistics and teleportation fidelity routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsteleport import numerics, protocol
from bsteleport.protocol import (
    DEFINED_MIN,
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
from bsteleport.states import (
    ResourceParams,
    TargetCoeffs,
    cat_coeffs,
    coherent_coeffs,
    fock_coeffs,
    resource_coeffs,
)
from reference import fidelity_given_q_double_sum, number_sum_prob_literal

BETA_GRID = (0.1, 0.5, math.pi / 2, 2.5, 3.0)


def _random_target(rng, cutoff: int) -> TargetCoeffs:
    z = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    z = z / math.sqrt(np.vdot(z, z).real)
    return TargetCoeffs(z, "random")


def _instances(rng, count: int, max_cutoff: int = 6, max_total: int = 6):
    for _ in range(count):
        cutoff = int(rng.integers(0, max_cutoff + 1))
        total = int(rng.integers(0, max_total + 1))
        n_in = int(rng.integers(0, total + 1))
        beta = float(rng.uniform(0.0, math.pi))
        target = _random_target(rng, cutoff)
        resource = resource_coeffs(ResourceParams(n_in, total - n_in, beta))
        yield target, resource


class TestNumberSumProb:
    def test_balanced_pair_fock_target(self):
        # fock |2> against the two-photon 50:50 resource: the interference
        # null removes q = 3, leaving q = 2 and q = 4 at weight 1/2
        target = fock_coeffs(2, 2)
        resource = resource_coeffs(ResourceParams(1, 1, math.pi / 2))
        assert number_sum_prob(target, resource, 2) == pytest.approx(0.5, abs=1e-14)
        assert number_sum_prob(target, resource, 4) == pytest.approx(0.5, abs=1e-14)
        assert number_sum_prob(target, resource, 3) < 1e-14

    def test_out_of_support_is_zero(self):
        target = fock_coeffs(1, 1)
        resource = resource_coeffs(ResourceParams(1, 0, 0.7))
        assert number_sum_prob(target, resource, 5) == 0.0

    def test_negative_outcome_refused(self):
        resource = resource_coeffs(ResourceParams(1, 0, 0.7))
        with pytest.raises(ValueError, match="q must be non-negative"):
            number_sum_prob(fock_coeffs(1, 1), resource, -1)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for target, resource in _instances(rng, 25):
            total_prob = sum(
                number_sum_prob(target, resource, q)
                for q in range(target.cutoff + resource.total + 1)
            )
            assert total_prob == pytest.approx(1.0, abs=1e-12)


class TestFidelityRoutes:
    def test_factored_matches_double_sum(self):
        rng = np.random.default_rng(7)
        for target, resource in _instances(rng, 20):
            for q in range(target.cutoff + resource.total + 1):
                p = number_sum_prob(target, resource, q)
                assert p == pytest.approx(number_sum_prob_literal(target, resource, q), abs=1e-14)
                if p <= DEFINED_MIN:
                    continue
                fast = fidelity_given_q(target, resource, q)
                slow = fidelity_given_q_double_sum(target, resource, q)
                assert abs(slow.imag) < 1e-13
                assert fast == pytest.approx(slow.real, abs=1e-12)

    def test_undefined_outcome_raises(self):
        target = fock_coeffs(0, 0)
        resource = resource_coeffs(ResourceParams(2, 0, 0.3))
        with pytest.raises(UndefinedOutcomeError):
            fidelity_given_q(target, resource, 10)
        with pytest.raises(UndefinedOutcomeError):
            fidelity_given_q_double_sum(target, resource, 10)

    def test_fock_target_is_perfect_exactly(self):
        # single-term numerator and denominator share every factor, so the
        # ratio must be 1.0 to the last bit, not merely close
        for k, cutoff in ((0, 0), (1, 3), (3, 3)):
            target = fock_coeffs(k, cutoff)
            for n_in, m_in, beta in ((1, 1, math.pi / 2), (4, 2, 1.1), (0, 3, 2.5)):
                resource = resource_coeffs(ResourceParams(n_in, m_in, beta))
                dist = outcome_distribution(target, resource)
                defined = dist.p > DEFINED_MIN
                assert defined.any()
                assert np.all(dist.f[defined] == 1.0)
                for q in np.nonzero(defined)[0]:
                    assert fidelity_given_q(target, resource, int(q)) == 1.0
                # the average only inherits the rounding of sum p(q)
                assert average_fidelity(target, resource) == pytest.approx(1.0, abs=1e-14)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(19)
        for target, resource in _instances(rng, 25):
            dist = outcome_distribution(target, resource)
            defined = dist.p > DEFINED_MIN
            assert np.all(dist.f[defined] <= 1.0 + 1e-12)
            assert np.all(dist.f[defined] >= 0.0)


class TestOutputState:
    def test_matches_conditional_fidelity(self):
        rng = np.random.default_rng(31)
        for target, resource in _instances(rng, 15):
            for q in range(target.cutoff + resource.total + 1):
                if number_sum_prob(target, resource, q) <= DEFINED_MIN:
                    continue
                state = output_state(target, resource, q)
                # row n of the matrix addresses the output ket |q - n>
                psi = np.zeros(state.dim, dtype=complex)
                for n in range(state.dim):
                    if 0 <= q - n <= target.cutoff:
                        psi[n] = target.coeffs[q - n]
                quad = float(np.real(np.conj(psi) @ state.matrix @ psi))
                assert quad == pytest.approx(fidelity_given_q(target, resource, q), abs=1e-13)

    def test_trace_hermiticity_positivity(self):
        rng = np.random.default_rng(43)
        for target, resource in _instances(rng, 15):
            for q in range(target.cutoff + resource.total + 1):
                if number_sum_prob(target, resource, q) <= DEFINED_MIN:
                    continue
                m = output_state(target, resource, q).matrix
                assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
                assert abs(np.trace(m).imag) < 1e-14
                # fused multiply-add in the platform's complex product leaves
                # ~1e-18 imaginary dust, so hermiticity is not bitwise
                assert np.max(np.abs(m - m.conj().T)) < 1e-15
                assert np.linalg.eigvalsh(m).min() >= -1e-10

    def test_correction_cancels_the_measured_phase(self):
        target = cat_coeffs(1.0, 6, tail_tol=1e-4)
        resource = resource_coeffs(ResourceParams(2, 2, 1.3))
        for q in (2, 4, 6):
            reference = output_state(target, resource, q, phi_minus=0.0)
            for phi in (0.3, 1.9, 5.1):
                state = output_state(target, resource, q, phi_minus=phi)
                assert np.array_equal(state.matrix, reference.matrix)

    def test_fock_target_gives_exact_projector(self):
        target = fock_coeffs(1, 3)
        resource = resource_coeffs(ResourceParams(2, 1, 0.9))
        state = output_state(target, resource, 3)
        expected = np.zeros((state.dim, state.dim), dtype=complex)
        expected[2, 2] = 1.0
        assert np.max(np.abs(state.matrix - expected)) < 1e-15

    def test_undefined_outcome_raises(self):
        target = fock_coeffs(0, 0)
        resource = resource_coeffs(ResourceParams(1, 0, 0.5))
        with pytest.raises(UndefinedOutcomeError):
            output_state(target, resource, 7)


class TestDistributionAndAverage:
    def test_matches_per_outcome_routes(self):
        rng = np.random.default_rng(57)
        for target, resource in _instances(rng, 15):
            dist = outcome_distribution(target, resource)
            assert dist.q_min == 0
            assert dist.q_max == target.cutoff + resource.total
            for q in range(dist.q_max + 1):
                assert dist.p[q] == pytest.approx(
                    number_sum_prob(target, resource, q), abs=1e-14
                )
                if dist.p[q] > DEFINED_MIN:
                    assert dist.f[q] == pytest.approx(
                        fidelity_given_q(target, resource, q), abs=1e-13
                    )
                else:
                    assert math.isnan(dist.f[q])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(61)
        for target, resource in _instances(rng, 25):
            dist = outcome_distribution(target, resource)
            assert np.sum(dist.p) == pytest.approx(1.0, abs=1e-12)
            assert np.all(dist.p >= 0.0)

    def test_average_matches_explicit_sum(self):
        rng = np.random.default_rng(71)
        for target, resource in _instances(rng, 10):
            explicit = sum(
                number_sum_prob(target, resource, q) * fidelity_given_q(target, resource, q)
                for q in range(target.cutoff + resource.total + 1)
                if number_sum_prob(target, resource, q) > DEFINED_MIN
            )
            assert average_fidelity(target, resource) == pytest.approx(explicit, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
           st.floats(0.0, math.pi), st.integers(0, 2**32 - 1))
    def test_average_fidelity_is_a_probability(self, cutoff, total, n_pick, beta, seed):
        rng = np.random.default_rng(seed)
        target = _random_target(rng, cutoff)
        n_in = min(n_pick, total)
        resource = resource_coeffs(ResourceParams(n_in, total - n_in, beta))
        avg = average_fidelity(target, resource)
        assert 0.0 <= avg <= 1.0 + 1e-12


class TestClassicalBaseline:
    def test_equals_dephased_purity(self):
        target = cat_coeffs(1.0, 14)
        w = np.abs(target.coeffs) ** 2
        assert classical_baseline(target) == pytest.approx(float(np.sum(w * w)), abs=1e-15)

    def test_fock_baseline_is_one(self):
        assert classical_baseline(fock_coeffs(2, 5)) == 1.0

    def test_unentangled_resource_reaches_the_baseline(self):
        # beta = 0 leaves the resource a product state; the protocol then
        # transmits only the number distribution
        for target in (cat_coeffs(1.0, 6, tail_tol=1e-4), coherent_coeffs(1.3, 20)):
            for n_in, m_in in ((0, 0), (3, 2), (5, 0)):
                resource = resource_coeffs(ResourceParams(n_in, m_in, 0.0))
                avg = average_fidelity(target, resource)
                assert avg == pytest.approx(classical_baseline(target), abs=1e-9)

    def test_full_reflection_reaches_the_baseline(self):
        target = cat_coeffs(1.0, 14)
        for n_in, m_in in ((2, 2), (4, 1)):
            resource = resource_coeffs(ResourceParams(n_in, m_in, math.pi))
            avg = average_fidelity(target, resource)
            assert avg == pytest.approx(classical_baseline(target), abs=1e-9)

    def test_entangled_resource_beats_the_baseline(self):
        target = cat_coeffs(1.0, 6, tail_tol=1e-4)
        resource = resource_coeffs(ResourceParams(3, 3, math.pi / 2))
        assert average_fidelity(target, resource) > classical_baseline(target) + 0.25


class TestCutoffConvergence:
    def test_average_fidelity_stabilizes(self):
        resource = resource_coeffs(ResourceParams(5, 5, 1.1))
        lo = average_fidelity(cat_coeffs(1.0, 14), resource)
        hi = average_fidelity(cat_coeffs(1.0, 18), resource)
        assert abs(hi - lo) < 1e-10


class TestSplitTotal:
    def test_round_trip(self):
        assert split_total(100, 0.0) == (50, 50)
        assert split_total(5, 0.5) == (3, 2)
        assert split_total(6, -1.0) == (2, 4)
        assert split_total(4, 2.0) == (4, 0)

    def test_incompatible_values(self):
        assert split_total(5, 0.0) is None  # parity
        assert split_total(4, 2.5) is None  # parity
        assert split_total(4, 3.0) is None  # outside the sector
        assert split_total(4, -3.0) is None
        assert split_total(4, 0.25) is None  # not half-integer

    def test_tolerates_float_dust(self):
        assert split_total(5, 0.5 + 4e-10) == (3, 2)
        assert split_total(4, 1.0 - 4e-10) == (3, 1)
        assert split_total(4, 0.5 + 2e-9) is None


class TestFidelitySweep:
    def test_values_match_single_points(self):
        target = fock_coeffs(1, 2)
        beta_axis = [0.4, math.pi / 2, 2.2]
        m_axis = [0.0, 1.0, 2.0]
        grid = fidelity_sweep(target, 4, beta_axis, m_axis)
        assert grid.values.shape == (3, 3)
        for i, m in enumerate(m_axis):
            n_in, m_in = split_total(4, m)
            for k, beta in enumerate(beta_axis):
                resource = resource_coeffs(ResourceParams(n_in, m_in, beta))
                # a row's rotation is one BLAS product over the beta axis,
                # whose rounding depends on the batch width
                assert grid.values[i, k] == pytest.approx(
                    average_fidelity(target, resource), abs=1e-14)

    def test_invalid_rows_warn_and_fill_nan(self):
        target = fock_coeffs(0, 1)
        with pytest.warns(UserWarning, match="incompatible"):
            grid = fidelity_sweep(target, 4, [0.5, 1.0], [0.0, 0.5, 1.0])
        assert np.all(np.isnan(grid.values[1]))
        assert np.all(np.isfinite(grid.values[0]))
        assert np.all(np.isfinite(grid.values[2]))

    def test_row_calls_agree_bitwise(self):
        target = cat_coeffs(1.0, 6, tail_tol=1e-4)
        beta_axis = np.pi * np.arange(1, 6) / 6.0
        m_axis = [0.0, 1.0, 0.25]
        with pytest.warns(UserWarning):
            whole = fidelity_sweep(target, 6, beta_axis, m_axis)
        with pytest.warns(UserWarning):
            rows = [fidelity_sweep(target, 6, beta_axis, [m]).values for m in m_axis]
        assert np.array_equal(whole.values, np.vstack(rows), equal_nan=True)

    def test_non_finite_axes_rejected(self):
        target = fock_coeffs(0, 0)
        for beta_axis, m_axis in (([math.nan], [0.0]), ([0.5], [math.inf]), ([0.5], [math.nan])):
            with pytest.raises(ValueError, match="finite"):
                fidelity_sweep(target, 2, beta_axis, m_axis)

    def test_grid_metadata(self):
        target = fock_coeffs(0, 0)
        grid = fidelity_sweep(target, 2, [0.5], [1.0])
        assert grid.total == 2
        assert grid.label == target.label

    def test_axis_validation(self):
        target = fock_coeffs(0, 0)
        with pytest.raises(ValueError):
            fidelity_sweep(target, 2, [], [0.0])
        with pytest.raises(ValueError):
            fidelity_sweep(target, 2, [0.5], [])
        with pytest.raises(ValueError):
            fidelity_sweep(target, 2, [-0.5], [0.0])
        with pytest.raises(ValueError):
            fidelity_sweep(target, 2, [math.pi + 0.2], [0.0])
        with pytest.raises(ValueError):
            fidelity_sweep(target, -1, [0.5], [0.0])

    def test_memory_budget_refused_before_allocation(self, monkeypatch):
        # the factor alone would need 8 TB at this total; nothing is allocated
        with pytest.raises(ValueError, match="above the 1024 MiB limit"):
            fidelity_sweep(fock_coeffs(0, 0), 10**6, [0.5], [0.0])
        # the budget counts beta samples and m rows too
        monkeypatch.setattr(numerics, "MAX_GRID_BYTES", 1000)
        fidelity_sweep(fock_coeffs(0, 0), 2, [0.5], [0.0])
        with pytest.raises(ValueError, match="a grid of 3 beta samples by 2 m rows"):
            fidelity_sweep(fock_coeffs(0, 0), 2, [0.5, 1.0, 1.5], [0.0, 1.0])
        with pytest.raises(ValueError, match="a grid of 3 beta samples by 2 m rows"):
            protocol.check_sweep_size(fock_coeffs(0, 0), 2, 3, 2)

    def test_beta_chunks_agree_with_one_block(self, monkeypatch):
        # a long beta axis is rotated and reduced in chunks; the chunk width
        # changes only the BLAS rounding
        target = cat_coeffs(1.0, 6, tail_tol=1e-4)
        beta_axis = np.pi * np.arange(1, 8) / 8.0
        whole = fidelity_sweep(target, 8, beta_axis, [0.0, 3.0])
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 3 * 64 * (2 * 9 + len(target.coeffs)))
        assert protocol._beta_chunk(8, len(beta_axis), 2, len(target.coeffs)) == 3
        chunked = fidelity_sweep(target, 8, beta_axis, [0.0, 3.0])
        assert np.max(np.abs(whole.values - chunked.values)) < 1e-14
