"""Checks for the log-factorial array and both rotation-coefficient routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsteleport import numerics
from bsteleport.numerics import (
    _cumlog_factorials,
    _factor,
    _log_factorials,
    _rotated_column,
    wigner_d_column_stable,
)
from bsteleport.oracle import sector_unitary_column
from bsteleport.phase import phase_argmax
from bsteleport.protocol import check_sweep_size
from bsteleport.states import ResourceParams, fock_coeffs, resource_coeffs
from reference import wigner_d_direct

BETA_GRID = (0.1, 0.5, math.pi / 2, 2.5, 3.0)

# column (j=50, m=0, beta=pi/2): reference entries from a 60-digit
# evaluation of the defining factorial sum, keyed by the row index m'
J50_COLUMN_REFERENCE = {
    -50: 0.28211564541368272278,
    0: -0.11227517265921704848,
    2: 0.11231922805532458944,
    10: 0.11340324547756349474,
    50: 0.28211564541368272278,
}


def _direct_mp(two_j: int, two_mr: int, two_mc: int, beta: float, dps: int = 60):
    """The defining factorial sum in dps-digit arithmetic (test oracle)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = dps
    j = mp.mpf(two_j) / 2
    mr = mp.mpf(two_mr) / 2
    mc = mp.mpf(two_mc) / 2
    pref = mp.sqrt(mp.factorial(j + mr) * mp.factorial(j - mr)
                   * mp.factorial(j + mc) * mp.factorial(j - mc))
    c = mp.cos(mp.mpf(beta) / 2)
    s = mp.sin(mp.mpf(beta) / 2)
    rml = (two_mr - two_mc) // 2
    s_lo = max(0, -rml)
    s_hi = min((two_j + two_mc) // 2, (two_j - two_mr) // 2)
    acc = mp.mpf(0)
    for t in range(s_lo, s_hi + 1):
        num = (-1) ** (rml + t) * c ** (two_j - rml - 2 * t) * s ** (rml + 2 * t)
        den = (mp.factorial((two_j + two_mc) // 2 - t) * mp.factorial(t)
               * mp.factorial(rml + t) * mp.factorial((two_j - two_mr) // 2 - t))
        acc += num / den
    return float(pref * acc)


def _valid_rows(two_j: int):
    return range(-two_j, two_j + 1, 2)


class TestLogFactorialTable:
    def test_first_values(self):
        values = _log_factorials(10)
        assert len(values) == 11
        assert values[0] == 0.0
        assert values[1] == 0.0
        assert values[10] == pytest.approx(math.log(3628800), rel=1e-15)

    def test_increments_are_log_n(self):
        values = _log_factorials(800)
        for n in range(1, 801):
            assert values[n] - values[n - 1] == pytest.approx(math.log(n), abs=1e-11)

    def test_matches_lgamma(self):
        values = _log_factorials(4096)
        for n in (2, 17, 100, 777, 4096):
            ref = math.lgamma(n + 1)
            assert values[n] == pytest.approx(ref, rel=1e-13)

    def test_module_function_grows_on_demand(self):
        # beyond the shared array the sum is built afresh; being sequential,
        # it repeats the shared values bit for bit
        values = _log_factorials(5000)
        assert values[5000] == pytest.approx(math.lgamma(5001), rel=1e-13)
        assert np.array_equal(values[:4097], _log_factorials(4096))
        assert not _log_factorials(4096).flags.writeable

    def test_continued_sum_equals_sum_from_one(self):
        # beyond 4096 the shared sum resumes from its carry instead of from 1
        assert np.array_equal(_log_factorials(5000), _cumlog_factorials(5000)[0])


class TestWignerIndex:
    """Index refusals of the direct route; the stable route shares them."""

    def test_parity_mismatch_raises(self):
        with pytest.raises(ValueError):
            wigner_d_direct(1, 0.5, 0, 0.3)
        with pytest.raises(ValueError):
            wigner_d_column_stable(1, 0.5, 0.3)

    def test_row_out_of_range_raises(self):
        with pytest.raises(ValueError):
            wigner_d_direct(1, 2, 0, 0.3)
        with pytest.raises(ValueError):
            wigner_d_direct(1, 0, -2, 0.3)
        with pytest.raises(ValueError):
            wigner_d_column_stable(1, -2, 0.3)

    def test_negative_j_raises(self):
        with pytest.raises(ValueError):
            wigner_d_direct(-1, 0, 0, 0.3)
        with pytest.raises(ValueError):
            wigner_d_column_stable(-1, 0, 0.3)

    def test_non_half_integer_rejected(self):
        with pytest.raises(ValueError):
            wigner_d_direct(0.3, 0.3, 0.3, 0.3)
        with pytest.raises(ValueError):
            wigner_d_direct(1, 0.3, 0, 0.3)
        with pytest.raises(ValueError):
            wigner_d_column_stable(0.3, 0.3, 0.3)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="not integer or half-integer"):
                wigner_d_column_stable(bad, 0, 0.3)
            with pytest.raises(ValueError, match="not integer or half-integer"):
                wigner_d_direct(1, bad, 0, 0.3)


class TestDirectRoute:
    def test_identity_at_beta_zero_is_exact(self):
        for two_j in (0, 1, 2, 5, 12):
            for two_mr in _valid_rows(two_j):
                for two_mc in _valid_rows(two_j):
                    val = wigner_d_direct(two_j / 2, two_mr / 2, two_mc / 2, 0.0)
                    expected = 1.0 if two_mr == two_mc else 0.0
                    assert val == expected

    def test_two_dimensional_closed_form(self):
        # j = 1/2 block is [[cos, -sin], [sin, cos]] in (m', m) = (+-1/2)
        for beta in BETA_GRID:
            c, s = math.cos(beta / 2), math.sin(beta / 2)
            assert wigner_d_direct(0.5, 0.5, 0.5, beta) == pytest.approx(c, abs=1e-15)
            assert wigner_d_direct(0.5, -0.5, 0.5, beta) == pytest.approx(s, abs=1e-15)
            assert wigner_d_direct(0.5, 0.5, -0.5, beta) == pytest.approx(-s, abs=1e-15)
            assert wigner_d_direct(0.5, -0.5, -0.5, beta) == pytest.approx(c, abs=1e-15)

    def test_three_dimensional_closed_form(self):
        for beta in BETA_GRID:
            c, s = math.cos(beta), math.sin(beta)
            cases = {
                (1, 1): (1 + c) / 2,
                (1, 0): -s / math.sqrt(2),
                (1, -1): (1 - c) / 2,
                (0, 0): c,
                (0, 1): s / math.sqrt(2),
                (-1, 1): (1 - c) / 2,
            }
            for (mr, mc), expected in cases.items():
                got = wigner_d_direct(1, mr, mc, beta)
                assert got == pytest.approx(expected, abs=1e-14)

    def test_half_pi_quarter_spin_value(self):
        got = wigner_d_direct(0.5, 0.5, 0.5, math.pi / 2)
        assert got == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_middle_null_j1(self):
        assert abs(wigner_d_direct(1, 0, 0, math.pi / 2)) < 1e-14

    def test_matches_extended_precision_small_j(self):
        rng = np.random.default_rng(11)
        for two_j in (1, 3, 6, 9, 12):
            rows = list(_valid_rows(two_j))
            for _ in range(4):
                two_mr = int(rng.choice(rows))
                two_mc = int(rng.choice(rows))
                beta = float(rng.uniform(0.05, math.pi - 0.05))
                ref = _direct_mp(two_j, two_mr, two_mc, beta)
                got = wigner_d_direct(two_j / 2, two_mr / 2, two_mc / 2, beta)
                assert got == pytest.approx(ref, abs=5e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 24), st.data(), st.floats(0.0, math.pi))
    def test_bounded_by_one(self, two_j, data, beta):
        two_mr = data.draw(st.sampled_from(list(_valid_rows(two_j))) if two_j else st.just(0))
        two_mc = data.draw(st.sampled_from(list(_valid_rows(two_j))) if two_j else st.just(0))
        val = wigner_d_direct(two_j / 2, two_mr / 2, two_mc / 2, beta)
        assert abs(val) <= 1 + 1e-12


class TestStableRoute:
    def test_identity_at_beta_zero_is_exact(self):
        for j, m_col in ((0.5, 0.5), (3, -1), (7.5, 2.5)):
            col = wigner_d_column_stable(j, m_col, 0.0)
            expected = np.zeros(int(2 * j) + 1)
            expected[int(m_col + j)] = 1.0
            assert np.array_equal(col, expected)

    def test_identity_example_shape(self):
        assert np.array_equal(wigner_d_column_stable(0.5, 0.5, 0.0), [0.0, 1.0])

    def test_middle_null_column(self):
        col = wigner_d_column_stable(1, 0, math.pi / 2)
        assert abs(col[1]) < 1e-14
        assert abs(col[0]) == pytest.approx(math.sqrt(0.5), abs=1e-14)
        assert abs(col[2]) == pytest.approx(math.sqrt(0.5), abs=1e-14)

    def test_column_normalization(self):
        for two_j in (0, 1, 4, 15, 30):
            j = two_j / 2
            for beta in BETA_GRID:
                for two_mc in (-two_j, 0 if two_j % 2 == 0 else 1, two_j):
                    col = wigner_d_column_stable(j, two_mc / 2, beta)
                    assert abs(np.dot(col, col) - 1.0) < 1e-12

    def test_orthogonality(self):
        for j in (1, 4.5, 15):
            two_j = int(2 * j)
            for beta in BETA_GRID:
                cols = np.column_stack(
                    [wigner_d_column_stable(j, two_mc / 2, beta) for two_mc in _valid_rows(two_j)]
                )
                gram = cols.T @ cols
                assert np.max(np.abs(gram - np.eye(two_j + 1))) < 1e-12

    def test_j50_reference_entries(self):
        col = wigner_d_column_stable(50, 0, math.pi / 2)
        for m_row, ref in J50_COLUMN_REFERENCE.items():
            assert col[m_row + 50] == pytest.approx(ref, abs=1e-13)

    def test_direct_sum_degrades_at_j50(self):
        # the factorial sum loses ~all precision here; this pins down why
        # the eigendecomposition route exists
        worst = max(
            abs(wigner_d_direct(50, m_row, 0, math.pi / 2) - ref)
            for m_row, ref in J50_COLUMN_REFERENCE.items()
        )
        assert worst > 1e-6

    def test_cross_agreement_j_le_20(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for two_j in range(0, 41, 4):
            j = two_j / 2
            rows = list(_valid_rows(two_j))
            for beta in BETA_GRID:
                two_mc = int(rng.choice(rows))
                col = wigner_d_column_stable(j, two_mc / 2, beta)
                for two_mr in rng.choice(rows, size=min(5, len(rows)), replace=False):
                    direct = wigner_d_direct(two_j / 2, int(two_mr) / 2, two_mc / 2, beta)
                    worst = max(worst, abs(direct - col[(int(two_mr) + two_j) // 2]))
        assert worst < 1e-9

    def test_unitary_column_phase_relation(self):
        # the complex rotation column equals the real column twisted by
        # exact quarter-turn phases
        for two_j, col_idx, beta in ((2, 1, 0.7), (9, 3, 2.0), (20, 0, math.pi / 2)):
            ucol = sector_unitary_column(ResourceParams(col_idx, two_j - col_idx, beta))
            j = two_j / 2
            m_col = col_idx - j
            dcol = wigner_d_column_stable(j, m_col, beta)
            rows = np.arange(two_j + 1)
            phase = np.array([1.0, -1.0j, -1.0, 1.0j])[(rows - col_idx) % 4]
            assert np.max(np.abs(ucol - phase * dcol)) < 1e-13

    def test_unitary_column_norm(self):
        ucol = sector_unitary_column(ResourceParams(5, 9, 1.1))
        assert abs(np.vdot(ucol, ucol).real - 1.0) < 1e-13

    @pytest.mark.parametrize("total, picks", [
        (1000, ((0, 1000), (377, 621), (850, 700))),
        (2000, ((1999, 3), (1500, 1000), (1800, 1500))),
    ])
    def test_large_total_entries_match_extended_precision(self, total, picks):
        # the factorial sum cancels down from ~10^(total/2), so its digits
        # must exceed that; corner picks are tiny entries, checked absolutely
        betas = np.array([0.7, 2.0])
        factor = _factor(total)
        for k, (row, col) in enumerate(picks):
            got = _rotated_column(factor, col, betas)[k % 2, row]
            ref = _direct_mp(total, 2 * row - total, 2 * col - total, float(betas[k % 2]),
                             dps=total // 2 + 60)
            assert got == pytest.approx(ref, abs=1e-13)

    def test_beta_batch_matches_single_columns(self):
        # one block over a beta axis, beta = 0 included, against one call per beta
        factor = _factor(61)
        betas = np.array([0.0, 0.4, math.pi / 2, 2.9, math.pi])
        for col in (0, 30, 61):
            block = _rotated_column(factor, col, betas)
            assert block.shape == (len(betas), 62)
            assert np.array_equal(block[0], np.eye(1, 62, col)[0])
            for k, beta in enumerate(betas):
                assert np.max(np.abs(block[k] - _rotated_column(factor, col, beta))) < 1e-15

    def test_beta_out_of_range_raises(self):
        with pytest.raises(ValueError):
            wigner_d_column_stable(1, 0, -0.1)
        with pytest.raises(ValueError):
            wigner_d_direct(1, 0, 0, math.pi + 0.1)


class TestMemoryBudget:
    def test_one_budget_for_points_and_grids(self, monkeypatch):
        # the total-2 factor takes 96 bytes, the smallest total-2 grid 552 and a
        # 16-point phase reading of its 3 coefficients 1216
        resource = resource_coeffs(ResourceParams(1, 1, 1.0))
        checks = (lambda: resource_coeffs(ResourceParams(1, 1, 1.0)),
                  lambda: check_sweep_size(fock_coeffs(0, 0), 2, 1, 1),
                  lambda: phase_argmax(resource, grid_size=16))
        for check in checks:
            check()
        monkeypatch.setattr(numerics, "MAX_GRID_BYTES", 95)
        for check in checks:
            with pytest.raises(ValueError, match="MiB limit"):
                check()

    def test_refused_need_reads_above_the_limit(self):
        # total 11584 needs 1073790480 bytes, 1024.04 MiB: rounded up, not to the limit
        with pytest.raises(ValueError, match="about 1025 MiB, above the 1024 MiB limit"):
            _factor(11584)
