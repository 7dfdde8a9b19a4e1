"""Checks for the phase-difference distribution and its argmax map."""

import math
import tracemalloc

import numpy as np
import pytest

from bsteleport import numerics, phase, protocol
from bsteleport.phase import (
    DEFAULT_PHASE_GRID,
    MIN_PHASE_GRID,
    check_phase_map_size,
    phase_argmax,
    phase_argmax_map,
    phase_profile,
)
from bsteleport.states import ResourceCoeffs, ResourceParams, _resource, resource_coeffs
from reference import full_profile_argmax, joint_phase_prob
from routes import rotated_column


# shapes (total, K) of test_half_spectrum_cells_match_point_readings that take the bounded route
BOUNDED_SHAPES = {(99, 4096), (100, 4096), (126, 4096), (127, 4096), (101, 4095)}
# the CLI's beta axis: N interior samples pi k / (N + 1)
CLI_BETAS = np.pi * np.arange(1, 102) / 102


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

    def test_non_integer_sizes_refused(self):
        resource = resource_coeffs(ResourceParams(2, 2, 1.0))
        for grid_size in (4096.0, 16.5, "64"):
            for call in (lambda: phase_argmax(resource, grid_size),
                         lambda: phase_profile(ResourceParams(2, 2, 1.0), grid_size),
                         lambda: phase_argmax_map(4, [0.5], [0.0], grid_size=grid_size),
                         lambda: check_phase_map_size(4, 1, 1, grid_size=grid_size)):
                with pytest.raises(ValueError, match="grid_size takes integers"):
                    call()
        with pytest.raises(ValueError, match="total takes integers"):
            phase_argmax_map(4.0, [0.5], [0.0])
        # numpy integers are integers
        assert phase_argmax(resource, np.int64(64)) == phase_argmax(resource, 64)
        assert np.array_equal(phase_argmax_map(np.int64(4), [0.5], [0.0], grid_size=np.int32(64)).values,
                              phase_argmax_map(4, [0.5], [0.0], grid_size=64).values)

    def test_size_check_refuses_a_grid_below_the_floor(self):
        # refused before any chunk is sized, so negative sizes neither pass nor divide by zero
        for grid_size in (-100, -4, 0, MIN_PHASE_GRID - 1):
            with pytest.raises(ValueError, match=f"grid_size must be at least {MIN_PHASE_GRID}"):
                check_phase_map_size(1, 3, 1, grid_size=grid_size)
        check_phase_map_size(1, 3, 1, grid_size=MIN_PHASE_GRID)

    @pytest.mark.parametrize("total, grid_size", [
        (30, 17), (30, 33),  # odd grid sizes: no Nyquist bin in the half spectrum
        (37, 16), (200, 128),  # more coefficients than grid points: they fold
        (37, 64), (99, 4096),  # odd totals: half-integer m
        (100, 4096),
        (0, 256), (0, 257),  # one level
        (15, 256), (16, 256),
        (0, 128), (7, 128),
        (63, 1026), (64, 1026), (100, 4094), (0, 258),  # K = 2 mod 4: no k = K/4 point; no stride of 8
        (126, 4096), (127, 4096),  # the largest columns with Kc = 256
        (101, 4095),
    ])
    def test_half_spectrum_cells_match_point_readings(self, total, grid_size):
        # the map reads half of the profile of the rotation block, by the bounded
        # or the full-FFT route, the point route the whole complex inverse FFT of
        # the resource coefficients; the rows at beta = 0 and pi are flat
        # profiles that must read phi = 0
        assert (phase._coarse_length(total + 1, grid_size) is not None) == ((total, grid_size) in BOUNDED_SHAPES)
        beta_axis = np.concatenate([[0.0], np.pi * np.arange(1, 8) / 8.0, [np.pi]])
        m_axis = np.arange(-total, total + 1, 2) / 2.0
        grid = phase_argmax_map(total, beta_axis, m_axis, grid_size=grid_size)
        for i, m in enumerate(m_axis):
            n_in = int(total / 2 + m)
            for k, beta in enumerate(beta_axis):
                res = resource_coeffs(ResourceParams(n_in, total - n_in, float(beta)))
                assert grid.values[i, k] == phase_argmax(res, grid_size=grid_size)[0], (m, beta)
        assert np.all(grid.values[:, [0, -1]] == 0.0)

    @pytest.mark.parametrize("total, grid_size", [(0, 256), (3, 258), (40, 1024), (100, 4096), (126, 4096)])
    def test_table_half_profile_matches_the_fft(self, total, grid_size):
        # the bounded route's fine points, from its fine and modulation tables, against the
        # length-K real FFT, at the smallest coarse length from 2D - 1 whatever the route
        # rule takes; an odd Kc (43 at K = 258) has a last interval past K/2, read as -1
        dim = total + 1
        coarse = next(n for n in range(2 * dim - 1, grid_size) if grid_size % n == 0)
        stride, intervals = grid_size // coarse, (coarse + 1) // 2
        tables = phase._bounded_tables(dim, grid_size, coarse)
        betas = np.concatenate([[0.0, 1e-9], np.linspace(0.05, np.pi - 0.05, 9), [np.pi]])
        cols, js = np.divmod(np.arange(len(betas) * intervals), intervals)
        k = (stride * np.arange(intervals)[:, None] + np.arange(1, stride)).ravel()
        inside = k <= grid_size // 2
        factor = numerics._factor(total)
        for col in sorted({0, total // 3, total // 2, total}):
            column = rotated_column(factor, col, betas)
            fft = phase._half_profile(column, grid_size)
            rows = phase._refined(column, cols, js, grid_size, tables).reshape(len(betas), -1)
            assert np.all(rows[:, ~inside] == -1.0) and inside.sum() == grid_size // 2 - grid_size // 2 // stride
            assert np.all(np.abs(rows[:, inside] - fft[:, k[inside]]) <= 1e-13 * fft.max(axis=-1, keepdims=True)), col

    @pytest.mark.parametrize("total", [1, 40, 101])
    @pytest.mark.parametrize("grid_size", [4096, 4095])
    def test_rows_of_both_parities_profile_in_one_stack(self, total, grid_size):
        # the bounded route's argmax over one stack of rows from inputs of both parities,
        # against each row's whole half profile and its point reading of the complex resource
        assert phase._coarse_length(total + 1, grid_size) is not None
        argmax = phase._map_route(total, grid_size)[0]
        factor = numerics._factor(total)
        betas = np.array([0.0, 0.3, math.pi / 2, 2.6, math.pi])
        n_ins = (total // 2, total // 2 + 1)
        stack = np.stack([rotated_column(factor, n_in, betas) for n_in in n_ins])
        cells = argmax(stack)
        assert cells.shape == (2, len(betas))
        for i, n_in in enumerate(n_ins):
            assert np.array_equal(cells[i], full_profile_argmax(stack[i], grid_size)), n_in
            for k in range(len(betas)):
                assert cells[i, k] == phase_argmax(ResourceCoeffs(total, _resource(stack[i, k], n_in)), grid_size)[0]

    @pytest.mark.parametrize("total", [0, 1, 2, 3, 10, 37, 100, 101, 400])
    @pytest.mark.parametrize("grid_size", [16, 17, 256, 4095, 4096, 4097, 16384])
    def test_cells_match_the_whole_profile_bit_for_bit(self, total, grid_size):
        # every cell against the first maximum of its whole half profile; beta = 0 gives
        # flat profiles, total 0 a profile tied everywhere, and the CLI-like betas up to
        # pi/2 peaks whose neighbours the curvature bound must keep: the route without
        # its B h^2 / 8 term moved cells at totals 37, 100, 101 and 400
        betas = np.concatenate([[0.0], np.pi * np.arange(1, 52) / 102])
        n_ins = range(0, total + 1, max(1, total // 50))
        grid = phase_argmax_map(total, betas, [n_in - total / 2 for n_in in n_ins], grid_size=grid_size)
        factor = numerics._factor(total)
        for i, n_in in enumerate(n_ins):
            want = full_profile_argmax(rotated_column(factor, n_in, betas), grid_size)
            assert np.array_equal(grid.values[i], want), n_in
        assert np.all(grid.values[:, 0] == 0.0)

    @pytest.mark.parametrize("total, grid_size", [(100, 4096), (126, 4096), (127, 4096), (100, 4095), (100, 16),
                                                  (400, 4096), (100, 4093), (4, 2**25)])
    def test_size_check_counts_what_the_map_counts(self, total, grid_size, monkeypatch):
        # both take one route, so a size check passes exactly the needs the map would pass: the
        # bounded route, or the full FFT at K = 16, at a stride of 4 (total 400) and at a prime K
        bounded = (total, grid_size) in {(100, 4096), (126, 4096), (127, 4096), (100, 4095), (4, 2**25)}
        assert (phase._coarse_length(total + 1, grid_size) is not None) == bounded
        needs = []
        monkeypatch.setattr(phase, "_check_budget", lambda need, what: needs.append(need))
        monkeypatch.setattr(protocol, "_check_budget", lambda need, what: needs.append(need))
        check_phase_map_size(total, 7, 3, grid_size=grid_size)
        checked = list(needs)
        needs.clear()
        phase_argmax_map(total, np.linspace(0.3, 2.0, 7), np.arange(3) + total % 2 / 2, grid_size=grid_size)
        assert needs == checked

    def test_totals_are_checked_before_the_route_rule(self):
        # the rule would read a negative or fractional total as a short column
        for total in (-1, -0.5, 0.5, 4.0, math.nan):
            for call in (lambda: phase_argmax_map(total, [0.5], [0.0], grid_size=4096),
                         lambda: check_phase_map_size(total, 1, 1, grid_size=4096)):
                with pytest.raises(ValueError, match="total"):
                    call()

    def test_memory_budget_refused_before_allocation(self):
        with pytest.raises(ValueError, match="MiB limit"):
            phase_argmax_map(4, [0.5], [0.0], grid_size=2**40)
        with pytest.raises(ValueError, match="MiB limit"):
            check_phase_map_size(4, 1, 1, grid_size=2**40)

    def test_huge_grid_builds_no_table_before_its_refusal(self):
        # at K = 2^36 a fine table of 11 x (S - 1) points fits a chunk only at strides whose
        # coarse transform does not, so the map falls back to the full FFT, which is refused;
        # a route that built its fine table first asked for 512 GiB here
        assert phase._coarse_length(11, 2**36) is None
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MiB limit"):
                phase_argmax_map(10, [0.5], [0.0], 2**36)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

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
        assert protocol._beta_chunk(10, len(beta_axis), 2, (*phase._half_profile_bytes(11, 64), 0)) == 1
        chunked = phase_argmax_map(10, beta_axis, [0.0, 2.0], grid_size=64)
        assert np.array_equal(whole.values, chunked.values)

    def test_bounded_route_chunks_agree_with_one_block(self, monkeypatch):
        # one beta sample per chunk, and one kept interval per product, on the bounded route
        beta_axis = np.concatenate([[0.0], np.pi * np.arange(1, 8) / 8.0])
        whole = phase_argmax_map(10, beta_axis, [0.0, 2.0])
        monkeypatch.setattr(phase, "_REFINED", 1)
        per_beta, per_chunk, _ = phase._map_route(10, DEFAULT_PHASE_GRID)[1]
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", per_beta + per_chunk)
        assert phase._coarse_length(11, DEFAULT_PHASE_GRID) == 32
        assert protocol._beta_chunk(10, len(beta_axis), 2, phase._map_route(10, DEFAULT_PHASE_GRID)[1]) == 1
        assert np.array_equal(whole.values, phase_argmax_map(10, beta_axis, [0.0, 2.0]).values)


class TestMirror:
    """Readings at beta and pi - beta agree, at any total.

    In the real frame the rotation column c(beta) of input col is the
    eigenvector of T(beta) = cos(beta) (n - j) + sin(beta) G for the exact
    eigenvalue col - j (see numerics._column).  The reversal R: n -> 2j - n
    negates n - j and leaves G, whose couplings sqrt((n + 1)(2j - n)) are
    symmetric about j, unchanged; so R T(beta) R = T(pi - beta), and
    c(pi - beta) = +-R c(beta).  The profile of a real column is
    P(phi) = |sum_n c_n e^{i n phi}|^2 = P(-phi), so reversing the column
    gives P_{pi - beta}(phi) = |e^{2ij phi} sum_n c_n e^{-i n phi}|^2
    = P_beta(-phi) = P_beta(phi).  This is the reflection
    d^j_{m'm}(pi - beta) = (-1)^{j+m'} d^j_{m',-m}(beta) (Varshalovich et
    al., Quantum Theory of Angular Momentum, 4.4) composed with
    d^j_{m'm} = (-1)^{m-m'} d^j_{-m',-m}.  On the CLI axis
    beta_k = pi k / (N + 1), pi - beta_k is beta_{N+1-k} to an ulp, so the
    map's cells at beta_k and beta_{N+1-k} match.  A grid copies such a
    cell from its partner, so the cells are compared between the half axes
    beta <= pi/2 and beta > pi/2, each mapped on its own, with no pair inside.
    """

    @pytest.mark.parametrize("n_in, m_in, beta", [(7, 3, 0.4), (50, 50, 1.1), (60, 41, 2.0), (0, 5, 0.7)])
    def test_profile(self, n_in, m_in, beta):
        for size in (64, 4096):
            here = phase_profile(ResourceParams(n_in, m_in, beta), size).values
            there = phase_profile(ResourceParams(n_in, m_in, math.pi - beta), size).values
            assert np.max(np.abs(here - there)) <= 1e-13 * here.max()

    @pytest.mark.parametrize("total", [40, 100, 101])
    @pytest.mark.parametrize("grid_size", [4096, 4095])
    def test_map_cells(self, total, grid_size):
        assert phase._coarse_length(total + 1, grid_size) is not None
        m_axis = np.arange(total // 2 + 1) + total % 2 / 2
        low, high = (phase_argmax_map(total, half, m_axis, grid_size=grid_size).values
                     for half in (CLI_BETAS[:51], CLI_BETAS[51:]))
        assert np.array_equal(high[:, ::-1], low[:, :50])
