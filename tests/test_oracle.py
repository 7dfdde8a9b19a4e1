"""Checks for the brute-force reference routes and the self-verification."""

import math

import numpy as np
import pytest

from bsteleport import oracle
from bsteleport.numerics import _factor, _rotated_column
from bsteleport.oracle import (
    MAX_BRUTE_CUTOFF,
    MAX_BRUTE_TOTAL,
    MAX_VERIFY_TOTAL,
    SizeLimitError,
    _couplings,
    protocol_brute_force,
    sector_unitary,
    sector_unitary_column,
    verify_resource,
)
from bsteleport.protocol import (
    DEFINED_MIN,
    UndefinedOutcomeError,
    number_sum_prob,
    output_state,
)
from bsteleport.states import ResourceParams, _resource, cat_coeffs, fock_coeffs, resource_coeffs

BETA_GRID = (0.1, 0.5, math.pi / 2, 2.5, 3.0)


class TestSectorHamiltonian:
    def test_couplings(self):
        # six couplings join the seven levels of the total-6 sector
        off = _couplings(6)
        assert len(off) == 6
        n = np.arange(6, dtype=float)
        assert np.array_equal(off, 0.5 * np.sqrt((n + 1.0) * (6.0 - n)))

    def test_couplings_are_mirror_symmetric(self):
        off = _couplings(9)
        assert np.max(np.abs(off - off[::-1])) < 1e-15

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            _couplings(-1)


class TestSectorUnitary:
    def test_unitarity(self):
        for total in (0, 1, 2, 7, 25, 60):
            for beta in (0.5, math.pi / 2, 3.0):
                u = sector_unitary(total, beta)
                eye = u @ u.conj().T
                assert np.max(np.abs(eye - np.eye(total + 1))) < 1e-12

    def test_two_level_closed_form(self):
        for beta in BETA_GRID:
            u = sector_unitary(1, beta)
            c, s = math.cos(beta / 2), math.sin(beta / 2)
            expected = np.array([[c, 1j * s], [1j * s, c]])
            assert np.max(np.abs(u - expected)) < 1e-14

    def test_interference_null(self):
        # |1,1> at a 50:50 splitter: no amplitude for one photon per port
        u = sector_unitary(2, math.pi / 2)
        assert abs(u[1, 1]) < 1e-14

    def test_column_selector(self):
        params = ResourceParams(3, 2, 1.3)
        u = sector_unitary(5, 1.3)
        col = sector_unitary_column(params)
        assert np.max(np.abs(col - u[:, 3])) < 1e-14

    def test_caller_owns_a_writable_copy(self):
        # each call exponentiates afresh; what a caller gets is its own
        u = sector_unitary(5, 1.3)
        col = sector_unitary_column(ResourceParams(3, 2, 1.3))
        expected = u.copy()
        u[:] = 0.0
        col[:] = 0.0
        assert np.array_equal(sector_unitary(5, 1.3), expected)
        assert np.array_equal(sector_unitary_column(ResourceParams(3, 2, 1.3)), expected[:, 3])

    def test_calls_keep_nothing(self):
        # only verify_resource reads the kept sectors; these compute each call afresh
        oracle._kept_sector.cache_clear()
        verify_resource(ResourceParams(3, 2, 1.3))
        kept = oracle._kept_sector.cache_info()
        for total, beta in ((5, 1.3), (5, np.array(1.3)), (MAX_VERIFY_TOTAL + 1, 0.5), (70, np.array(2.0))):
            for _ in range(3):
                sector_unitary(total, beta)
                sector_unitary_column(ResourceParams(total, 0, beta))
                sector_unitary_column(ResourceParams(0, total, beta))
        assert oracle._kept_sector.cache_info() == kept

    def test_trivial_sector(self):
        assert np.array_equal(sector_unitary(0, 1.0), np.ones((1, 1), dtype=complex))
        assert np.array_equal(sector_unitary_column(ResourceParams(0, 0, 1.0)), [1.0 + 0.0j])

    def test_matches_extended_precision_exponential(self):
        # a 20-digit mpmath.expm; at beta = 3 the real-block exponential the
        # oracle once used was off by 6e-14 (total 20) and 1e-13 (total 40).
        # With phases s_n = i^n, s^-1 (i beta H) s is the real matrix beta K,
        # K[n+1, n] = -K[n, n+1] = H[n, n+1], so mpmath works in real arithmetic
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 20
        beta = 3.0
        for total in (20, 40):
            off = _couplings(total)
            real = mp.expm(mp.matrix((beta * (np.diag(off, -1) - np.diag(off, 1))).tolist()))
            phases = np.array([1, 1j, -1, -1j])[np.arange(total + 1) % 4]
            reference = phases[:, None] * np.array(real.tolist(), dtype=float) / phases
            assert np.max(np.abs(sector_unitary(total, beta) - reference)) < 1e-14, total


class TestVerifyResource:
    def test_known_inputs_pass(self):
        for n_in, m_in, beta in ((1, 0, math.pi / 2), (1, 1, math.pi / 2), (30, 30, 1.0)):
            report = verify_resource(ResourceParams(n_in, m_in, beta))
            assert report.passed
            assert 1.0 - report.overlap_modulus < 1e-10
            assert report.max_deviation < 1e-10
            assert abs(report.residual_phase) < 1e-7

    def test_dense_small_scan(self):
        for total in range(9):
            for n_in in range(total + 1):
                for beta in BETA_GRID:
                    report = verify_resource(ResourceParams(n_in, total - n_in, beta))
                    assert report.passed, (n_in, total - n_in, beta)

    def test_each_sector_is_exponentiated_once(self):
        # a 0-d array beta keys the same kept sector as its float
        oracle._kept_sector.cache_clear()
        for beta in (1.3, np.array(1.3), np.float64(1.3)):
            for n_in in range(6):
                assert verify_resource(ResourceParams(n_in, 5 - n_in, beta)).passed
        info = oracle._kept_sector.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 17, 1)
        assert not oracle._kept_sector(5, 1.3).flags.writeable

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            verify_resource(ResourceParams(40, MAX_VERIFY_TOTAL - 39, 1.0))
        verify_resource(ResourceParams(40, MAX_VERIFY_TOTAL - 40, 1.0))

    def test_invalid_tolerance_rejected(self):
        params = ResourceParams(1, 1, 1.0)
        for tol in (math.nan, -1.0, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                verify_resource(params, tol=tol)
        # zero is a valid, if unreachable, tolerance
        assert verify_resource(params, tol=0.0).overlap_modulus == pytest.approx(1.0, abs=1e-12)

    def test_detects_a_wrong_vector(self):
        # flipping one sign must drag the overlap well away from one
        params = ResourceParams(3, 1, 1.1)
        good = verify_resource(params)
        assert good.passed
        broken = resource_coeffs(params).coeffs.copy()
        broken[0] = -broken[0]
        column = sector_unitary_column(params)
        overlap = abs(complex(np.vdot(column, broken)))
        assert 1.0 - overlap > 1e-3


class TestGridRoute:
    def test_matches_the_sector_unitary(self):
        # the grid route (one factor per total, every column rotated from it)
        # against the exponential, for every column up to total 40; worst seen 1.7e-14
        worst = 0.0
        for total in range(41):
            factor = _factor(total)
            unitaries = [sector_unitary(total, beta) for beta in BETA_GRID]  # one exponential per sector
            for col in range(total + 1):
                columns = _rotated_column(factor, col, np.array(BETA_GRID))
                for unitary, column in zip(unitaries, columns):
                    worst = max(worst, np.max(np.abs(_resource(column, col) - unitary[:, col])))
        assert worst < 1e-13


class TestProtocolBruteForce:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(5)
        target = cat_coeffs(1.0, 6, tail_tol=1e-4)
        for total in (2, 5):
            for beta in (0.7, math.pi / 2, 2.9):
                n_in = int(rng.integers(0, total + 1))
                params = ResourceParams(n_in, total - n_in, beta)
                resource = resource_coeffs(params)
                for q in range(target.cutoff + total + 1):
                    p_fast = number_sum_prob(target, resource, q)
                    if p_fast <= DEFINED_MIN:
                        continue
                    p_brute, state_brute = protocol_brute_force(target, params, q, phi_minus=0.7)
                    state_fast = output_state(target, resource, q)
                    assert p_brute == pytest.approx(p_fast, abs=1e-12)
                    assert np.max(np.abs(state_brute.matrix - state_fast.matrix)) < 1e-12

    def test_probability_ignores_the_phase_reading(self):
        target = cat_coeffs(1.0, 4, tail_tol=1e-2)
        params = ResourceParams(2, 1, 1.2)
        for q in (2, 3, 4):
            values = [protocol_brute_force(target, params, q, phi_minus=phi)[0]
                      for phi in (0.0, 0.7, 2.1, 5.5)]
            assert max(values) - min(values) < 1e-12

    def test_output_state_is_physical(self):
        target = cat_coeffs(1.0, 6, tail_tol=1e-4)
        params = ResourceParams(3, 3, math.pi / 2)
        for q in (2, 4, 6, 8):
            p, state = protocol_brute_force(target, params, q, phi_minus=1.9)
            m = state.matrix
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(m - m.conj().T)) < 1e-14
            assert np.linalg.eigvalsh(m).min() >= -1e-10

    def test_probabilities_sum_to_one(self):
        target = cat_coeffs(1.0, 6, tail_tol=1e-4)
        params = ResourceParams(2, 2, 1.0)
        total_prob = 0.0
        for q in range(target.cutoff + params.total + 1):
            try:
                total_prob += protocol_brute_force(target, params, q)[0]
            except UndefinedOutcomeError:
                continue
        assert total_prob == pytest.approx(1.0, abs=1e-10)

    def test_fock_target_projector(self):
        target = fock_coeffs(2, 4)
        params = ResourceParams(1, 2, 0.8)
        p, state = protocol_brute_force(target, params, 3)
        expected = np.zeros((state.dim, state.dim), dtype=complex)
        expected[1, 1] = 1.0
        assert np.max(np.abs(state.matrix - expected)) < 1e-14
        resource = resource_coeffs(params)
        assert p == pytest.approx(number_sum_prob(target, resource, 3), abs=1e-14)

    def test_size_caps(self):
        with pytest.raises(SizeLimitError):
            protocol_brute_force(fock_coeffs(0, MAX_BRUTE_CUTOFF + 1), ResourceParams(1, 1, 1.0), 1)
        with pytest.raises(SizeLimitError):
            protocol_brute_force(fock_coeffs(0, 0), ResourceParams(MAX_BRUTE_TOTAL, 1, 1.0), 1)

    def test_invalid_outcomes_rejected(self):
        with pytest.raises(ValueError):
            protocol_brute_force(fock_coeffs(0, 0), ResourceParams(1, 1, 1.0), -1)
        with pytest.raises(UndefinedOutcomeError):
            protocol_brute_force(fock_coeffs(0, 0), ResourceParams(1, 1, 1.0), 9)
