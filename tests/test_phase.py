"""Checks for the phase-difference distribution and its argmax map."""

import math

import numpy as np
import pytest

from bsteleport import protocol
from bsteleport.phase import (
    DEFAULT_PHASE_GRID,
    MIN_PHASE_GRID,
    check_phase_map_size,
    phase_argmax,
    phase_argmax_map,
    phase_profile,
)
from bsteleport.states import ResourceCoeffs, ResourceParams, resource_coeffs
from reference import joint_phase_prob


def _balanced(total: int, beta: float) -> ResourceCoeffs:
    return resource_coeffs(ResourceParams(total // 2, total // 2, beta))


class TestProfile:
    def test_grid_matches_pointwise_evaluation(self):
        # the second case has more coefficients than grid points, so they fold
        for params, size in ((ResourceParams(3, 2, 1.1), 64), (ResourceParams(60, 40, 1.1), 16)):
            profile = phase_profile(params, grid_size=size)
            resource = resource_coeffs(params)
            for k in range(size):
                direct = joint_phase_prob(resource, float(profile.phi_axis[k]))
                assert profile.values[k] == pytest.approx(direct, abs=1e-10)

    def test_axis_and_metadata(self):
        profile = phase_profile(ResourceParams(2, 2, 0.7), grid_size=32)
        assert len(profile.phi_axis) == 32
        assert profile.phi_axis[0] == 0.0
        assert profile.phi_axis[-1] == pytest.approx(2 * math.pi * 31 / 32, abs=1e-15)
        assert profile.total == 4
        assert profile.m == 0.0
        assert profile.beta == 0.7

    def test_mean_equals_total_weight(self):
        # discrete Parseval: the grid mean recovers the coefficient norm
        # whenever the grid is longer than the coefficient vector
        for params in (ResourceParams(2, 2, 0.9), ResourceParams(7, 4, 2.1)):
            profile = phase_profile(params, grid_size=64)
            assert np.mean(profile.values) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_bound(self):
        params = ResourceParams(5, 5, math.pi / 2)
        coeffs = resource_coeffs(params).coeffs
        bound = float(np.sum(np.abs(coeffs))) ** 2
        profile = phase_profile(params)
        assert profile.values.max() <= bound * (1 + 1e-12)

    def test_identity_splitter_profile_is_flat(self):
        profile = phase_profile(ResourceParams(3, 1, 0.0), grid_size=64)
        assert np.max(np.abs(profile.values - 1.0)) < 1e-12

    def test_balanced_inputs_symmetric_about_half_pi(self):
        # reading phi and pi - phi are equally likely when both ports carry
        # the same photon number
        size = 128
        for total in (2, 10, 40):
            profile = phase_profile(ResourceParams(total // 2, total // 2, 1.0), grid_size=size)
            k = np.arange(size)
            mirrored = profile.values[(size // 2 - k) % size]
            assert np.max(np.abs(profile.values - mirrored)) < 1e-10

    def test_global_phase_invariance(self):
        params = ResourceParams(4, 2, 1.7)
        base = resource_coeffs(params)
        rotated = ResourceCoeffs(base.total, base.coeffs * np.exp(0.77j))
        for phi in (0.0, 0.4, 2.0, 5.9):
            assert joint_phase_prob(rotated, phi) == pytest.approx(
                joint_phase_prob(base, phi), abs=1e-12
            )

    def test_grid_size_floor(self):
        with pytest.raises(ValueError):
            phase_profile(ResourceParams(1, 1, 1.0), grid_size=MIN_PHASE_GRID - 1)


class TestArgmax:
    def test_balanced_splitter_peaks_at_half_pi(self):
        for total in (2, 10, 100):
            res = _balanced(total, math.pi / 2)
            phi_star, v_max = phase_argmax(res)
            assert abs(phi_star - math.pi / 2) <= 2 * math.pi / DEFAULT_PHASE_GRID
            assert v_max > 1.0

    def test_flat_profile_reports_zero(self):
        res = resource_coeffs(ResourceParams(2, 1, 0.0))
        phi_star, v_max = phase_argmax(res)
        assert phi_star == 0.0
        assert v_max == pytest.approx(1.0, abs=1e-12)

    def test_peak_value_grows_with_mixing(self):
        # the peak sharpens monotonically as the splitter approaches 50:50
        for total in (10, 40):
            values = []
            for beta in (math.pi / 2, 1.2, 0.9, 0.6, 0.3, 0.05):
                values.append(phase_argmax(_balanced(total, beta))[1])
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_grid_shorter_than_resource(self):
        res = resource_coeffs(ResourceParams(60, 40, 1.1))
        direct = [joint_phase_prob(res, 2 * math.pi * k / 16) for k in range(16)]
        assert int(np.argmax(direct)) == 4
        assert phase_argmax(res, grid_size=16)[0] == math.pi / 2

    def test_peak_location_is_grid_resolved(self):
        res = _balanced(10, math.pi / 2)
        coarse = phase_argmax(res, grid_size=256)[0]
        fine = phase_argmax(res, grid_size=4096)[0]
        assert abs(coarse - fine) <= 2 * math.pi / 256

    def test_grid_size_floor(self):
        res = _balanced(2, 1.0)
        with pytest.raises(ValueError):
            phase_argmax(res, grid_size=8)

    def test_memory_budget_refused_before_allocation(self):
        # a 2**36-point grid would need over 1 TiB; nothing is allocated
        with pytest.raises(ValueError, match="MiB limit"):
            phase_argmax(_balanced(2, 1.0), grid_size=2**36)
        with pytest.raises(ValueError, match="MiB limit"):
            phase_profile(ResourceParams(1, 1, 1.0), grid_size=2**36)

    def test_reads_any_coefficients_and_ignores_a_global_phase(self):
        # coefficients need not come from resource_coeffs: the reading is the
        # first largest grid value of the pointwise probability
        res = ResourceCoeffs(2, np.array([1.0, 1.0j, 1.0 + 1.0j]))
        direct = [joint_phase_prob(res, 2 * math.pi * k / 16) for k in range(16)]
        phi_star, v_max = phase_argmax(res, grid_size=16)
        assert phi_star == 2 * math.pi * int(np.argmax(direct)) / 16
        assert v_max == pytest.approx(max(direct), rel=1e-12)
        # a resource times a global phase is the same state and reads the same
        for base in (_balanced(4, 1.0), resource_coeffs(ResourceParams(4, 2, 1.7))):
            rotated = ResourceCoeffs(base.total, base.coeffs * np.exp(0.77j))
            assert phase_argmax(rotated)[0] == phase_argmax(base)[0]
            assert phase_argmax(rotated)[1] == pytest.approx(phase_argmax(base)[1], rel=1e-12)


class TestArgmaxMap:
    def test_cells_match_single_points(self):
        beta_axis = [0.6, math.pi / 2]
        m_axis = [0.0, 2.0]
        grid = phase_argmax_map(6, beta_axis, m_axis, grid_size=128)
        assert grid.label == "phase-argmax"
        assert grid.total == 6
        for i, m in enumerate(m_axis):
            n_in = int(3 + m)
            for k, beta in enumerate(beta_axis):
                res = resource_coeffs(ResourceParams(n_in, 6 - n_in, beta))
                assert grid.values[i, k] == phase_argmax(res, grid_size=128)[0]

    def test_invalid_rows_warn_and_fill_nan(self):
        with pytest.warns(UserWarning, match="incompatible"):
            grid = phase_argmax_map(5, [0.5, 1.0], [0.5, 1.0, 1.5], grid_size=64)
        assert np.all(np.isfinite(grid.values[0]))
        assert np.all(np.isnan(grid.values[1]))
        assert np.all(np.isfinite(grid.values[2]))

    def test_row_calls_agree_bitwise(self):
        beta_axis = np.pi * np.arange(1, 5) / 5.0
        whole = phase_argmax_map(4, beta_axis, [0.0, 1.0], grid_size=64)
        rows = [phase_argmax_map(4, beta_axis, [m], grid_size=64).values for m in (0.0, 1.0)]
        assert np.array_equal(whole.values, np.vstack(rows))

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_argmax_map(4, [], [0.0])
        with pytest.raises(ValueError):
            phase_argmax_map(4, [0.5], [0.0], grid_size=4)
        with pytest.raises(ValueError):
            phase_argmax_map(4, [4.0], [0.0])
        # every row incompatible: no row reaches the point check, the map's own floor refuses
        with pytest.raises(ValueError, match="at least"):
            phase_argmax_map(4, [0.5], [0.25], grid_size=8)

    def test_memory_budget_refused_before_allocation(self):
        with pytest.raises(ValueError, match="MiB limit"):
            phase_argmax_map(4, [0.5], [0.0], grid_size=2**40)
        with pytest.raises(ValueError, match="MiB limit"):
            check_phase_map_size(4, 1, 1, grid_size=2**40)

    def test_long_beta_axis_is_not_refused(self):
        # a row is worked in chunks of the beta axis, so its length costs only
        # the output grid: 4000 or 10**6 beta samples on the fig-3 grid fit
        check_phase_map_size(100, 4000, 51)
        check_phase_map_size(100, 10**6, 51)
        with pytest.raises(ValueError, match="MiB limit"):
            check_phase_map_size(100, 10**7, 51)

    def test_beta_chunks_agree_with_one_block(self, monkeypatch):
        beta_axis = np.pi * np.arange(1, 8) / 8.0
        whole = phase_argmax_map(10, beta_axis, [0.0, 2.0], grid_size=64)
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 1)  # one beta sample per chunk
        assert protocol._beta_chunk(10, len(beta_axis), 2, 64) == 1
        chunked = phase_argmax_map(10, beta_axis, [0.0, 2.0], grid_size=64)
        assert np.array_equal(whole.values, chunked.values)
