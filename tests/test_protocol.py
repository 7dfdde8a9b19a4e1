"""Checks for the measurement statistics and teleportation fidelity routes."""

import math
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsteleport import numerics, phase, protocol
from bsteleport.phase import phase_argmax_map
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
from bsteleport.numerics import _factor
from bsteleport.states import (
    ResourceParams,
    TargetCoeffs,
    cat_coeffs,
    coherent_coeffs,
    fock_coeffs,
    resource_coeffs,
    suggest_cutoff,
)
from bsteleport.states import _resource
from reference import fidelity_given_q_double_sum, number_sum_prob_literal
from routes import rotated_column

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

    def test_non_integer_outcome_refused(self):
        target = fock_coeffs(1, 1)
        resource = resource_coeffs(ResourceParams(1, 0, 0.7))
        for read in (number_sum_prob, fidelity_given_q, output_state):
            for q in (2.5, 1.0, "1"):
                with pytest.raises(ValueError, match="q takes integers"):
                    read(target, resource, q)
        # numpy integers are integers
        assert number_sum_prob(target, resource, np.int64(1)) == number_sum_prob(target, resource, 1)
        assert output_state(target, resource, np.int32(1)).dim == 2

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

    @pytest.mark.parametrize("total", [100, 1000, 4000, 10**4])
    def test_fock_targets_average_to_one(self, total):
        # a Fock target has one weight, so every outcome has f = 1 and
        # F = sum_q p[q] = sum_n |d_n|^2 = 1; an average that dropped the
        # outcomes of p <= DEFINED_MIN fell short by up to 1.2e-14 at 10^4
        targets = [fock_coeffs(0, 0), fock_coeffs(2, 2), fock_coeffs(0, 300), fock_coeffs(5, 40)]
        for beta in (1e-6, 0.3, math.pi / 2, 2.9):
            for n_in in {0, total // 3, total // 2, total}:
                resource = resource_coeffs(ResourceParams(n_in, total - n_in, beta))
                for target in targets:
                    assert abs(average_fidelity(target, resource) - 1.0) <= 1e-15

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

    def test_huge_and_non_finite_m(self):
        # 2m overflows above about 9e307: no sector, no exception and no numpy warning
        for m in (1e308, -1e308, math.inf, -math.inf, math.nan, np.float64(1e308), np.float64(-math.inf)):
            assert split_total(3, m) is None
        assert split_total(3, 1e307) is None

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

    def test_overflowing_m_row_warns_and_fills_nan(self):
        with pytest.warns(UserWarning, match="m=1e[+]308 incompatible") as caught:
            grid = fidelity_sweep(fock_coeffs(0, 1), 3, [0.5, 1.0], [0.5, 1e308])
        assert len(caught) == 1
        assert np.all(np.isfinite(grid.values[0])) and np.all(np.isnan(grid.values[1]))

    def test_non_integer_total_refused(self):
        target = fock_coeffs(0, 1)
        for total in (4.0, 4.5):
            with pytest.raises(ValueError, match="total takes integers"):
                fidelity_sweep(target, total, [0.5], [0.0])
            with pytest.raises(ValueError, match="total takes integers"):
                protocol.check_sweep_size(target, total, 1, 1)
        # numpy integers are integers
        assert np.array_equal(fidelity_sweep(target, np.int64(4), [0.5], [0.0]).values,
                              fidelity_sweep(target, 4, [0.5], [0.0]).values)

    def test_huge_total_refused_at_once(self):
        # the factor's budget refuses the total before the transform length is
        # searched for: near 10^18 lengths with no prime factor above 11 are sparse
        target = cat_coeffs(3.0, suggest_cutoff(3.0))
        for refuse in (partial(protocol.check_sweep_size, target, 10**18, 101, 51),
                       partial(fidelity_sweep, target, 10**18, [0.5], [0.0])):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="above the 1024 MiB limit"):
                refuse()
            assert time.perf_counter() - start < 1.0

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
        # the budget counts beta samples and m rows too: 1216 bytes for the
        # total-2 grid of one beta by one m, 1336 for three betas by two in
        # chunks of one beta, each with the 816-byte factor it builds
        needs = []
        check = protocol._check_budget
        monkeypatch.setattr(protocol, "_check_budget", lambda need, what: (needs.append(need), check(need, what)))
        monkeypatch.setattr(numerics, "MAX_GRID_BYTES", 1304)
        monkeypatch.setattr(protocol, "_kept_factor", None)
        fidelity_sweep(fock_coeffs(0, 0), 2, [0.5], [0.0])
        monkeypatch.setattr(protocol, "_kept_factor", None)
        with pytest.raises(ValueError, match="a grid of 3 beta samples by 2 m rows"):
            fidelity_sweep(fock_coeffs(0, 0), 2, [0.5, 1.0, 1.5], [0.0, 1.0])
        monkeypatch.setattr(protocol, "_kept_factor", None)
        with pytest.raises(ValueError, match="a grid of 3 beta samples by 2 m rows"):
            protocol.check_sweep_size(fock_coeffs(0, 0), 2, 3, 2)
        assert needs == [1216, 1336, 1336]
        # after a grid at total 2 the factor is kept, and the same grid builds none
        fidelity_sweep(fock_coeffs(0, 0), 2, [0.5], [0.0])
        fidelity_sweep(fock_coeffs(0, 0), 2, [0.5], [0.0])
        assert needs[-2:] == [1216, 1216 - 816] and numerics._factor_bytes(2) == 816
        fidelity_sweep(fock_coeffs(0, 0), 2, [0.5, 1.0, 1.5], [0.0, 1.0])  # refused above, fits now

    def test_beta_chunks_agree_with_one_block(self, monkeypatch):
        # a long beta axis is rotated and reduced in chunks; the chunk width
        # changes only the BLAS rounding
        target = cat_coeffs(1.0, 6, tail_tol=1e-4)
        beta_axis = np.pi * np.arange(1, 8) / 8.0
        whole = fidelity_sweep(target, 8, beta_axis, [0.0, 3.0])
        per_beta, per_chunk, _ = reduce_bytes = protocol._sweep_route(target, 8)[1]
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 3 * per_beta + per_chunk)
        assert protocol._beta_chunk(8, len(beta_axis), 2, reduce_bytes) == 3
        chunked = fidelity_sweep(target, 8, beta_axis, [0.0, 3.0])
        assert np.max(np.abs(whole.values - chunked.values)) < 1e-14

    def test_weight_build_leaves_the_chunk_as_it_is(self):
        # building the lags of 2^17 + 1 weights holds ~2 MiB once, and the two kernels at
        # total 1000 ~4 MB; counted against the chunk's room they cut the axis to 1-beta
        # chunks, which ran 8x slower on the fig-2 axes
        for target, total in ((fock_coeffs(0, 2**17), 100), (cat_coeffs(3.0, suggest_cutoff(3.0)), 1000)):
            reduce_bytes = protocol._sweep_route(target, total)[1]
            assert reduce_bytes[2] > 0.75 * protocol._CHUNK_BYTES
            assert protocol._beta_chunk(total, 101, 51, reduce_bytes) == 101


# target, total and betas of the sweep's reduction against the point route: odd and even
# totals, and weights beyond the sector, where A_p is dense
SWEEP_REDUCTIONS = {
    "total-0": (fock_coeffs(0, 3), 0, [0.5, 2.0]),
    "one-weight": (fock_coeffs(0, 0), 9, [0.3, math.pi / 2]),
    "weights-beyond-the-sector": (fock_coeffs(0, 4096), 40, [0.4, 2.5]),
    "weights-beyond-the-sector-odd": (coherent_coeffs(1.5 + 0.7j, 300), 37, [0.4, 1.9, 2.5]),
    "total-1000": (cat_coeffs(3.0, suggest_cutoff(3.0)), 1000, [0.2, 1.3, 2.9]),
    "coherent": (coherent_coeffs(2.0, 40), 30, [0.7, math.pi / 2, 2.2]),
    "delta-columns": (cat_coeffs(2.0, 25), 20, [0.0, math.pi]),
    "odd-total": (cat_coeffs(3.0, suggest_cutoff(3.0)), 101, [0.3, 1.6, 2.8]),
    "even-total": (cat_coeffs(3.0, suggest_cutoff(3.0)), 100, [0.3, 1.6, 2.8]),
    "odd-length-exact": (cat_coeffs(3.0, suggest_cutoff(3.0)), 40, [0.3, 1.6, 2.8]),
    "even-length-exact": (cat_coeffs(3.0, suggest_cutoff(3.0)), 63, [0.3, 1.6, 2.8]),
}


def _swept(target: TargetCoeffs, factor, n_in: int, betas, reduce_row=None) -> np.ndarray:
    """The sweep's cells of the row of input n_in: its quadratic form in the factor's modes."""
    reduce_row = reduce_row or protocol._sweep_route(target, len(factor[1]) - 1)[0]
    return reduce_row(factor, n_in, numerics._trig(factor, np.asarray(betas, dtype=float)))


class TestSweepReduction:
    @pytest.mark.parametrize("target, total, betas", SWEEP_REDUCTIONS.values(), ids=SWEEP_REDUCTIONS)
    def test_band_products_match_the_convolution(self, target, total, betas):
        # the sweep's cells, x K_p x + y K_q y with each kernel built from A_p's band,
        # against the sum of the points' np.convolve of the complex resource over
        # every outcome, on the grid kernel's columns; measured at most 4.4e-16
        factor = _factor(total)
        for n_in in sorted({0, 1, total // 3, total // 2, total - 1, total} & set(range(total + 1))):
            column = rotated_column(factor, n_in, np.array(betas))
            cells = _swept(target, factor, n_in, betas)
            want = protocol._outcomes(target, _resource(column, n_in))[1].sum(-1)
            assert cells.shape == want.shape == (len(betas),)
            assert np.max(np.abs(cells - want)) <= 2e-15

    @pytest.mark.parametrize("total", [1, 40, 101])
    def test_rows_of_both_parities_share_one_build(self, total, monkeypatch):
        """One reducer serves rows of either input parity, in any order, from one build of K_0 and K_1.

        A row of even input reads K_0 for its cosine part and K_1 for its sine
        part, an odd one the other way round.
        """
        target = cat_coeffs(3.0, suggest_cutoff(3.0))
        factor = _factor(total)
        betas = np.array([0.0, 0.3, math.pi / 2, 2.6, math.pi])
        builds = []
        build = protocol._sweep_kernel
        monkeypatch.setattr(protocol, "_sweep_kernel", lambda lags, v: builds.append(len(v)) or build(lags, v))
        reduce_row = protocol._sweep_route(target, total)[0]
        for n_in in (total // 2 + 1, total // 2, total // 2 + 1):
            want = protocol._outcomes(target, _resource(rotated_column(factor, n_in, betas), n_in))[1].sum(-1)
            assert np.max(np.abs(_swept(target, factor, n_in, betas, reduce_row) - want)) <= 2e-15
        assert builds == [(total + 2) // 2, (total + 1) // 2]

    def test_banded_kernel_matches_the_dense_toeplitz(self):
        # blocks of A's band against the dense matrix, across block edges and for a
        # band wider than the matrix
        rng = np.random.default_rng(5)
        for n, n_lags in ((300, 7), (300, 200), (130, 400), (5, 1), (0, 3)):
            v = rng.normal(size=(n, 9))
            lags = rng.normal(size=n_lags)
            dense = np.zeros(max(n, 1))
            dense[:min(n, n_lags)] = lags[:n]
            a = dense[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
            want = v.T @ a @ v
            assert np.max(np.abs(protocol._sweep_kernel(lags, v) - want)) <= 1e-14 * np.max(np.abs(want), initial=1.0)


class TestMirror:
    """The average fidelity at beta and pi - beta agree, for any target and total.

    For the real rotation column c and d_n = i^(n_in - n) c_n,
    F = sum_q |sum_n w[q - n] d_n|^2 = sum_{n, n'} a(n - n') i^(n' - n) c_n c_n',
    where a(k) = sum_q w[q] w[q + k] is the autocorrelation of the target
    weights, even in k.  The terms at (n, n') and (n', n) are conjugate, so
    F = c^T M c with M[n, n'] = a(n - n') cos(pi (n - n') / 2): a symmetric
    Toeplitz matrix, which the reversal R: n -> 2j - n leaves unchanged.  Since
    c(pi - beta) = +-R c(beta) (see test_phase.py's TestMirror), the form is
    unchanged.  This holds exactly only for a sum over every outcome: p[q] at
    pi - beta is a different sequence, so a mask on p would break it.  A grid
    copies the cell at pi - beta from beta's when both are on its axis, so the
    sweep's cells are compared between half axes swept on their own.
    """

    TARGETS = (cat_coeffs(3.0, suggest_cutoff(3.0)),
               coherent_coeffs(1.5 + 0.7j, suggest_cutoff(1.5 + 0.7j, "coherent")),
               fock_coeffs(2, 2))

    @pytest.mark.parametrize("total", [100, 1000, 4000])
    def test_points(self, total):
        # measured at most 5.6e-16
        for beta in (0.2, 1.0, 1.5):
            for n_in in {0, total // 3, total // 2, total}:
                here = resource_coeffs(ResourceParams(n_in, total - n_in, beta))
                there = resource_coeffs(ResourceParams(n_in, total - n_in, math.pi - beta))
                for target in self.TARGETS:
                    assert abs(average_fidelity(target, here) - average_fidelity(target, there)) <= 5e-15

    @pytest.mark.parametrize("total", [37, 100, 101])
    def test_sweep_cells(self, total):
        # on the CLI axis beta_k = pi k / 102, pi - beta_k is beta_{102 - k} to
        # an ulp; the half axes beta <= pi/2 and beta > pi/2 hold no pair each;
        # measured at most 1.3e-15
        betas = np.pi * np.arange(1, 102) / 102
        m_axis = np.arange(total // 2 + 1) + total % 2 / 2
        for target in self.TARGETS:
            low, high = (fidelity_sweep(target, total, half, m_axis).values for half in (betas[:51], betas[51:]))
            assert np.max(np.abs(high[:, ::-1] - low[:, :50])) <= 2e-14


class TestMirrorPairs:
    """The grid driver computes one beta of each pair beta, pi - beta on its axis and copies the other's cells.

    TestMirror shows that both products are invariant under the mirror; these
    check which betas are rotated and that every cell lands where it belongs.
    """

    TOTAL = 20
    M_AXIS = np.arange(6.0)
    TARGET = cat_coeffs(1.5, suggest_cutoff(1.5))
    # the CLI axis of 101 betas, where pi - beta_k is beta_{102 - k} to an ulp
    CLI_BETAS = np.pi * np.arange(1, 102) / 102

    def _grids(self, beta_axis):
        return (fidelity_sweep(self.TARGET, self.TOTAL, beta_axis, self.M_AXIS).values,
                phase_argmax_map(self.TOTAL, beta_axis, self.M_AXIS, grid_size=64).values)

    def _rotated_betas(self, monkeypatch, beta_axis) -> list:
        # every beta the two grids rotate, in order: the sweep's, then the map's
        seen = []

        def spy(factor, beta):
            seen.extend(np.atleast_1d(beta))
            return numerics._trig(factor, beta)

        monkeypatch.setattr(protocol, "_trig", spy)
        self._grids(beta_axis)
        return seen

    def test_axis_without_pairs_rotates_every_beta(self, monkeypatch):
        # no beta above pi/2 has its mirror on this axis, so each cell is the
        # row's reduction at its own beta, bit for bit
        beta_axis = np.concatenate([np.linspace(0.1, 1.4, 13), [2.0, 2.9]])
        assert [len(part) for part in protocol._mirror_pairs(beta_axis)] == [15, 0, 0]
        sweep, phase_map = self._grids(beta_axis)
        argmax = phase._map_route(self.TOTAL, 64)[0]
        factor = _factor(self.TOTAL)
        for i, m in enumerate(self.M_AXIS):
            column = rotated_column(factor, self.TOTAL // 2 + int(m), beta_axis)
            assert np.array_equal(sweep[i], _swept(self.TARGET, factor, self.TOTAL // 2 + int(m), beta_axis))
            assert np.array_equal(phase_map[i], argmax(column))
        assert len(self._rotated_betas(monkeypatch, beta_axis)) == 2 * 15

    def test_cli_axis_rotates_half_of_its_betas(self, monkeypatch):
        # beta_51 = pi/2 is its own mirror; shifting the axis by 1e-3 leaves no pair
        seen = self._rotated_betas(monkeypatch, self.CLI_BETAS)
        assert seen == 2 * list(self.CLI_BETAS[:51])
        assert len(self._rotated_betas(monkeypatch, self.CLI_BETAS + 1e-3)) == 2 * 101

    def test_partners_pair_within_two_spacings_of_pi(self):
        # pi - 2.5 is exact, and so is each partner 2 or 4 spacings from it
        mirror, ulp = math.pi - 2.5, np.spacing(np.pi)
        for shift, pairs in ((-4, False), (-2, True), (0, True), (2, True), (4, False)):
            partner = mirror + shift * ulp
            assert (math.pi - 2.5) - partner == -shift * ulp
            rotated, paired, partners = protocol._mirror_pairs(np.array([partner, 2.5]))
            if pairs:
                assert rotated.tolist() == [0] and paired.tolist() == [1] and partners.tolist() == [0]
            else:
                assert rotated.tolist() == [0, 1] and paired.size == 0 and partners.size == 0
        # pi/2 is rotated, not paired with a neighbour an ulp below, and a beta an
        # ulp above it is not its own partner, though its mirror lies within 2 spacings
        half_ulp = np.spacing(np.pi / 2)
        for beta_axis, n_rotated in (([np.pi / 2 - half_ulp, np.pi / 2], 2), ([np.pi / 2 + half_ulp], 1)):
            assert [len(part) for part in protocol._mirror_pairs(np.array(beta_axis))] == [n_rotated, 0, 0]

    def test_pi_takes_the_exact_delta_cell_of_zero(self, monkeypatch):
        # at beta = 0 the kernel gives the exact delta; the cell at pi is a copy of it
        at_zero = self._grids([0.0])
        for grid, zero in zip(self._grids([math.pi, 0.0]), at_zero):
            assert np.array_equal(grid, np.column_stack([zero, zero]))
        assert self._rotated_betas(monkeypatch, [math.pi, 0.0]) == [0.0, 0.0]

    def test_duplicated_and_unsorted_betas(self, monkeypatch):
        beta_axis = np.array([2.5, 0.3, math.pi - 0.3, math.pi - 2.5, 0.3, 2.5, math.pi / 2, math.pi - 0.3])
        rotated, paired, partner = protocol._mirror_pairs(beta_axis)
        assert rotated.tolist() == [1, 3, 4, 6] and sorted(paired.tolist()) == [0, 2, 5, 7]
        assert np.all(np.abs((math.pi - beta_axis[paired]) - beta_axis[partner]) <= 2 * np.spacing(np.pi))
        sweep, phase_map = self._grids(beta_axis)
        for k, beta in enumerate(beta_axis):
            # each cell against its beta on an axis of its own, computed where it is below pi/2
            alone = self._grids([min(beta, math.pi - beta)])
            assert np.max(np.abs(sweep[:, k] - alone[0][:, 0])) <= 1e-14
            assert np.array_equal(phase_map[:, k], alone[1][:, 0])
        assert len(self._rotated_betas(monkeypatch, beta_axis)) == 2 * 4


class TestKeptFactor:
    """One read-only grid factor, of the last total whose factor fits _CHUNK_BYTES, serves the next grid at that total."""

    TARGET = cat_coeffs(1.0, 6, tail_tol=1e-4)
    BETAS = np.pi * np.arange(1, 8) / 8.0

    def _grids(self, total):
        ms = np.arange(total % 2 / 2, 3)
        return (fidelity_sweep(self.TARGET, total, self.BETAS, ms).values,
                phase_argmax_map(total, self.BETAS, ms, grid_size=64).values)

    @pytest.fixture
    def built(self, monkeypatch):
        """Totals numerics._factor is called for; at each call the slot is already empty."""
        totals = []
        factor = numerics._factor

        def spy(total):
            assert protocol._kept_factor is None
            totals.append(total)
            return factor(total)

        monkeypatch.setattr(numerics, "_factor", spy)
        monkeypatch.setattr(protocol, "_kept_factor", None)
        return totals

    def test_a_total_is_factored_once(self, built):
        for _ in range(2):
            self._grids(10)
        assert built == [10]
        self._grids(11)
        assert built == [10, 11] and protocol._kept_factor[0] == 11
        self._grids(10)
        assert built == [10, 11, 10]

    def test_its_arrays_are_read_only(self, built):
        fidelity_sweep(self.TARGET, 10, self.BETAS, [0.0])
        w, v = protocol._kept_factor[1]
        for write in (lambda: w.__setitem__(0, 1.0), lambda: v.__setitem__((0, 0), 1.0), lambda: v.__imul__(2.0)):
            with pytest.raises(ValueError, match="read-only"):
                write()

    def test_warm_grids_equal_cold_ones_bit_for_bit(self, built):
        for total in (10, 11):
            cold = self._grids(total)
            warm = self._grids(total)
            assert built[-1] == total and len(built) == 1 + (total == 11)
            for a, b in zip(cold, warm):
                assert a.tobytes() == b.tobytes()

    def test_only_a_factor_within_the_chunk_bytes_is_kept(self, built):
        assert numerics._factor_bytes(797) <= protocol._CHUNK_BYTES < numerics._factor_bytes(798)
        assert numerics._factor_bytes(1000) == 4_268_264
        phase_argmax_map(1000, [0.5], [0.0], grid_size=16)
        phase_argmax_map(1000, [0.5], [0.0], grid_size=16)
        assert built == [1000, 1000] and protocol._kept_factor is None

    def test_a_slot_emptied_after_the_check_leaves_the_grid_its_factor(self, built, monkeypatch):
        # a grid at another total in a second thread may empty the slot between this grid's
        # budget check and its build: the grid still uses the factor its need left out
        cold = self._grids(10)
        kept = protocol._kept_factor
        pairs = protocol._mirror_pairs

        def emptied(beta_axis):
            protocol._kept_factor = None
            return pairs(beta_axis)

        monkeypatch.setattr(protocol, "_mirror_pairs", emptied)
        ms = [0.0, 1.0, 2.0]
        grids = (lambda: fidelity_sweep(self.TARGET, 10, self.BETAS, ms).values,
                 lambda: phase_argmax_map(10, self.BETAS, ms, grid_size=64).values)
        for grid, values in zip(grids, cold):
            protocol._kept_factor = kept
            assert grid().tobytes() == values.tobytes()
            assert protocol._kept_factor is None
        assert built == [10]

    def test_a_lapack_failure_keeps_nothing(self, built, monkeypatch):
        fidelity_sweep(self.TARGET, 10, self.BETAS, [0.0])
        gttrs = numerics._GTTRS
        with monkeypatch.context() as failing:
            failing.setattr(numerics, "_GTTRS", lambda *args: (gttrs(*args)[0], 1))
            with pytest.raises(np.linalg.LinAlgError, match="info=1"):
                phase_argmax_map(12, self.BETAS, [0.0], grid_size=64)
            assert protocol._kept_factor is None
        assert phase_argmax_map(12, self.BETAS, [0.0], grid_size=64).total == 12
        assert built == [10, 12, 12] and protocol._kept_factor[0] == 12
