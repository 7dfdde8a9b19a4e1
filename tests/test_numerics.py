"""Checks for the log-factorial array and the rotation-coefficient routes."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsteleport import numerics, protocol, states
from bsteleport.numerics import (
    _column,
    _cumlog_factorials,
    _factor,
    _log_factorials,
    wigner_d_column_stable,
)
from bsteleport.oracle import sector_unitary_column
from bsteleport.phase import phase_argmax
from bsteleport.protocol import check_sweep_size
from bsteleport.states import ResourceParams, fock_coeffs, resource_coeffs
from reference import column_by_bisection, positive_pivots, stevd_factor, wigner_d_direct
from routes import grid_column, over_routes, rotated_column

BETA_GRID = (0.1, 0.5, math.pi / 2, 2.5, 3.0)
# angles where the point solve's splitting and sign are hardest: stebz splits T
# at couplings negligible against their diagonal neighbours (from beta ~1e-15),
# and next to its zero diagonal entry once sin(beta)^2 underflows (below
# ~1e-154); a column is nearly a delta near 0 and pi, and pi/2 has zero pivots
SOLVE_BETAS = (5e-324, 1e-300, 1e-154, 1e-150, 1e-100, 1e-17, 1e-12, math.pi / 2,
               math.nextafter(math.pi, 0.0), math.pi)

# column (j=50, m=0, beta=pi/2): reference entries from a 60-digit
# evaluation of the defining factorial sum, keyed by the row index m'
J50_COLUMN_REFERENCE = {
    -50: 0.28211564541368272278,
    0: -0.11227517265921704848,
    2: 0.11231922805532458944,
    10: 0.11340324547756349474,
    50: 0.28211564541368272278,
}

# (row, col, beta) entries of d at large totals; the first two cases alternate
# beta between 0.7 and 2.0, the others sit near 0 and near pi, where a column
# is nearly a delta and its far entries are tiny
EXTENDED_PICKS = {
    "1000-picks0": (1000, ((0, 1000, 0.7), (377, 621, 2.0), (850, 700, 0.7))),
    "2000-picks1": (2000, ((1999, 3, 0.7), (1500, 1000, 2.0), (1800, 1500, 0.7))),
    "1000-edges": (1000, ((500, 500, 1e-3), (10, 0, 0.02), (600, 400, math.pi - 1e-3),
                          (0, 1000, math.pi - 0.02))),
    "2000-edges": (2000, ((999, 1000, 1e-3), (1990, 1995, 0.02), (1003, 1000, math.pi - 1e-3),
                          (1999, 3, math.pi - 0.02))),
}


@functools.lru_cache(maxsize=None)
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

    @over_routes("column, total, picks", EXTENDED_PICKS)
    def test_large_total_entries_match_extended_precision(self, column, total, picks):
        # the factorial sum cancels down from ~10^(total/2), so its digits
        # must exceed that; corner picks are tiny entries, checked absolutely
        for row, col, beta in picks:
            ref = _direct_mp(total, 2 * row - total, 2 * col - total, beta, dps=total // 2 + 60)
            assert column(total, col, beta)[row] == pytest.approx(ref, abs=1e-13), (row, col, beta)

    def test_point_solve_matches_grid_kernel_on_every_column(self):
        # every column up to total 40, at angles where the point solve's sign
        # is hardest to fix: beta = pi/2 has exactly zero entries and Sturm
        # pivots, and near 0 and pi the column is nearly a delta
        betas = np.array([0.0, 1e-9, 0.3, math.pi / 2, 2.0, math.pi - 1e-6, math.pi])
        worst = 0.0
        for total in range(41):
            for col in range(total + 1):
                block = grid_column(total, col, betas)
                for k, beta in enumerate(betas):
                    got = _column(total, col, float(beta))
                    worst = max(worst, float(np.max(np.abs(got - block[k]))))
        assert worst < 1e-13

    @staticmethod
    def _solve_cases():
        """(total, col, beta): every column up to total 60 at SOLVE_BETAS, then seeded large totals."""
        for total in range(61):
            for col in range(total + 1):
                for beta in SOLVE_BETAS:
                    yield total, col, beta
        rng = np.random.default_rng(10)
        for total in rng.integers(61, 4001, size=12).tolist():
            col = int(rng.integers(0, total + 1))
            for beta in SOLVE_BETAS + (float(rng.uniform(0.0, math.pi)),):
                yield total, col, beta

    def test_point_solve_matches_bisection_route(self):
        # inverse iteration at the exact eigenvalue, on one block or stebz's, against
        # the earlier route that bisects for the eigenvalue first
        worst = max(float(np.max(np.abs(_column(*case) - column_by_bisection(*case))))
                    for case in self._solve_cases())
        assert worst < 1e-13

    def test_sign_count_parity_matches_pivot_loop(self, monkeypatch):
        # the LAPACK count at the k each solve uses, against the literal loop
        seen = []
        count_above = numerics._count_above

        def spy(d, e, lam, k):
            count = count_above(d, e, lam, k)
            seen.append((count, positive_pivots(d, e, lam, k)))
            return count

        monkeypatch.setattr(numerics, "_count_above", spy)
        for case in self._solve_cases():
            _column(*case)
        assert len(seen) > 19000 and sum(count % 2 for count, _ in seen) > 2000
        assert [c for c in seen if c[0] % 2 != c[1] % 2] == []

    def test_lapack_failures_raise_linalg_error(self, monkeypatch):
        # the solve and the factorization on the one-block route (beta = 1.1), and stebz's
        # window on a split sector (beta = 1e-300)
        stebz, gttrf, gttrs = numerics._STEBZ, numerics._GTTRF, numerics._GTTRS
        with monkeypatch.context() as failing:
            failing.setattr(numerics, "_GTTRS", lambda *args: (gttrs(*args)[0], 1))
            with pytest.raises(np.linalg.LinAlgError, match="info=1"):
                _column(40, 20, 1.1)
        with monkeypatch.context() as failing:
            failing.setattr(numerics, "_GTTRF", lambda *args: gttrf(*args)[:-1] + (-2,))
            with pytest.raises(np.linalg.LinAlgError, match="info=-2"):
                _column(40, 20, 1.1)
        monkeypatch.setattr(numerics, "_STEBZ", lambda *args: (2,) + stebz(*args)[1:])
        with pytest.raises(np.linalg.LinAlgError, match="2 eigenvalues near 0.0"):
            _column(40, 20, 1e-300)

    def test_refused_certificate_raises_linalg_error(self, monkeypatch):
        # a solve that returns its input never grows, so no certificate passes
        calls = []

        def stalled(*args):
            calls.append(1)
            return args[-1].copy(), 0

        monkeypatch.setattr(numerics, "_GTTRS", stalled)
        with pytest.raises(np.linalg.LinAlgError, match="left a residual of 1.0e[+]00 after 5 solves"):
            _column(40, 20, 1.1)
        assert len(calls) == numerics._MAX_SOLVES

    def test_total_zero_calls_no_lapack(self, monkeypatch):
        # f2py's stebz refuses the empty coupling array of a 1 x 1 sector
        def refuse(*args):
            raise AssertionError("the total-0 point reached LAPACK")

        for routine in ("_STEBZ", "_GTTRF", "_GTTRS"):
            monkeypatch.setattr(numerics, routine, refuse)
        for beta in (0.0, 1e-300, 1.1, math.pi):
            assert np.array_equal(_column(0, 0, beta), [1.0])
        w, v = _factor(0)
        assert np.array_equal(w, [0.0]) and np.array_equal(v, [[1.0]])

    def test_point_route_never_factors(self, monkeypatch):
        def refuse(two_j):
            raise AssertionError("a point reached the grid factor")

        for module in (numerics, protocol, states):
            if hasattr(module, "_factor"):
                monkeypatch.setattr(module, "_factor", refuse)
        resource_coeffs(ResourceParams(600, 400, 1.1))
        wigner_d_column_stable(500, 100, 1.1)

    def test_beta_batch_matches_single_columns(self):
        # one block over a beta axis, beta = 0 included, against one call per beta
        factor = _factor(61)
        betas = np.array([0.0, 0.4, math.pi / 2, 2.9, math.pi])
        for col in (0, 30, 61):
            block = rotated_column(factor, col, betas)
            assert block.shape == (len(betas), 62)
            assert np.array_equal(block[0], np.eye(1, 62, col)[0])
            for k, beta in enumerate(betas):
                assert np.max(np.abs(block[k] - rotated_column(factor, col, beta))) < 1e-15

    def test_beta_out_of_range_raises(self):
        with pytest.raises(ValueError):
            wigner_d_column_stable(1, 0, -0.1)
        with pytest.raises(ValueError):
            wigner_d_direct(1, 0, 0, math.pi + 0.1)


EPS = np.finfo(float).eps


def _point_matrix(total: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The rotated generator's diagonal and couplings, formed as _column forms them."""
    return (math.cos(beta) * (np.arange(total + 1) - 0.5 * total),
            math.sin(beta) * numerics._offdiagonal(total))


class TestCertificate:
    @pytest.mark.parametrize("total", [10**4, 10**5])
    def test_explicit_residual_is_bounded(self, total):
        # ||(T - lam) v|| against j eps: the certificate holds it to 16 eps (j + |lam|) on T
        # as stored, and forming T and the product here add a few eps j; measured at most
        # 0.71 j eps at total 10^4 and 0.84 j eps at 10^5
        j = total / 2
        for beta in (1e-6, 1e-3, math.pi / 2 - 1e-3, math.pi / 2, math.pi / 2 + 1e-3,
                     math.pi - 1e-3, math.pi - 1e-6):
            d, e = _point_matrix(total, beta)
            for col in (0, 1, total // 3, total // 2, total - 1, total):
                v = _column(total, col, beta)
                r = (d - (col - j)) * v
                r[:-1] += e * v[1:]
                r[1:] += e * v[:-1]
                assert np.linalg.norm(r) <= 2.0 * j * EPS, (total, col, beta)

    @pytest.mark.parametrize("trip", ["perturbed entry", "wrong lambda"])
    def test_a_matrix_without_the_eigenvalue_trips_the_certificate(self, trip):
        # a diagonal entry 1e-9 off at the column's peak moves the eigenvalue by ~1e-11, and
        # lam 1e-9 off leaves a residual of 1e-9: both far above the bound 2.5e-12
        total, lam = 1000, -200.0
        d, e = _point_matrix(total, 1.1)
        v = numerics._eigenvector(d, e, lam, whole=True)
        if trip == "perturbed entry":
            d = d + 1e-9 * np.eye(1, total + 1, int(np.argmax(np.abs(v))))[0]
        else:
            lam += 1e-9
        with pytest.raises(np.linalg.LinAlgError, match="left a residual of .* above its bound 2.5e-12"):
            numerics._eigenvector(d, e, lam, whole=True)

    def test_edge_column_converges_in_two_solves(self, monkeypatch):
        # the alternating edge column at total 10^5 from the sawtooth start, and from a
        # smooth ramp, which overlaps it by about 1e-11: two solves leave a residual
        # of about 2e-7 there, which the certificate refuses, and a third passes
        solves = []
        gttrs = numerics._GTTRS

        def counted(*args):
            solves.append(1)
            return gttrs(*args)

        monkeypatch.setattr(numerics, "_GTTRS", counted)
        v = _column(100000, 0, 0.3)
        assert len(solves) == 2
        solves.clear()
        monkeypatch.setattr(numerics, "_start", lambda n: np.arange(1.0, n + 1))
        assert np.max(np.abs(_column(100000, 0, 0.3) - v)) < 1e-13
        assert len(solves) > 2

    @pytest.mark.parametrize("total", [2, 100, 4000])
    def test_one_block_only_where_stebz_marks_no_split(self, total, monkeypatch):
        # beta from a quarter to four times the closed-form test's edge, eps sqrt(2 total),
        # from 0 and from pi: where _column takes one block, stebz over the whole spectrum
        # marks no split, and every column matches the bisection route on both sides
        picks = []
        eigenvector = numerics._eigenvector

        def spy(d, e, lam, whole=False):
            picks.append(whole)
            return eigenvector(d, e, lam, whole)

        monkeypatch.setattr(numerics, "_eigenvector", spy)
        edge = EPS * math.sqrt(2.0 * total)
        betas = [x for f in np.geomspace(0.25, 4.0, 17) for x in (f * edge, math.pi - f * edge)]
        cols = sorted({0, total // 3, total // 2, total})
        seen = set()
        for beta in betas:
            d, e = _point_matrix(total, beta)
            for col in cols:
                picks.clear()
                got = _column(total, col, beta)
                assert np.max(np.abs(got - column_by_bisection(total, col, beta))) < 1e-13, (col, beta)
            seen.add(picks[0])
            if picks[0]:
                m, _, _, isplit, info = numerics._STEBZ(d, e, 1, -total, total, 0, 0, 1e300, "B")
                assert info == 0 and m == total + 1 and isplit[0] == total + 1, beta
        assert seen == {False, True}


# totals whose every column the half factor rotates as the full stevd eigensystem does, and
# totals where six picked columns do; measured at most 1.25e-14 and 5.7e-14
EVERY_COLUMN_TOTALS = (0, 1, 2, 3, 37, 100, 101)
PICKED_COLUMN_TOTALS = (1000, 1001)
FACTOR_BETAS = np.array([0.0, 1e-9, 0.3, math.pi / 2, 2.0, math.pi - 1e-6, math.pi])


class TestGridFactor:
    @pytest.mark.parametrize("total", EVERY_COLUMN_TOTALS + PICKED_COLUMN_TOTALS)
    def test_half_factor_rotates_as_the_full_eigensystem(self, total):
        # the parity fold over modes w >= 0 against every eigenpair from LAPACK stevd
        half, full = _factor(total), stevd_factor(total)
        if total in EVERY_COLUMN_TOTALS:
            cols, tol = range(total + 1), 1e-13
        else:
            cols, tol = (0, 1, total // 3, total // 2, total - 1, total), 2e-13
        for col in cols:
            got = rotated_column(half, col, FACTOR_BETAS)
            assert np.max(np.abs(got - rotated_column(full, col, FACTOR_BETAS))) < tol

    @pytest.mark.parametrize("total", EVERY_COLUMN_TOTALS + PICKED_COLUMN_TOTALS)
    def test_eigenvalues_are_the_exact_half_spectrum(self, total):
        # 0 or 1/2, then steps of 1 up to total / 2, bit for bit
        want = np.array([k / 2 for k in range(total % 2, total + 1, 2)])
        assert _factor(total)[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("total", [1, 2, 37, 100, 101, 1000, 1001, 4000])
    def test_generator_is_one_block(self, total):
        # stebz splits where e_k^2 <= eps^2 |d_k d_{k+1}|; G's diagonal is zero, so
        # it never does, and the factor solves the one block stebz would find;
        # a window past the whole spectrum at a huge tolerance splits without bisecting
        d, e = np.zeros(total + 1), numerics._offdiagonal(total)
        m, _, iblock, isplit, info = numerics._STEBZ(d, e, 1, -total, total, 0, 0, 1e300, "B")
        assert info == 0 and m == total + 1
        assert np.all(iblock[:m] == 1) and isplit[0] == total + 1

    @pytest.mark.parametrize("total", EVERY_COLUMN_TOTALS + PICKED_COLUMN_TOTALS)
    def test_factor_is_the_per_mode_point_solve(self, total):
        # each mode by _eigenvector with its own stebz split, bit for bit
        d, e = np.zeros(total + 1), numerics._offdiagonal(total)
        w, v = _factor(total)
        want = np.column_stack([numerics._eigenvector(d, e, lam) * (math.sqrt(2.0) if lam > 0.0 else 1.0)
                                for lam in w])
        assert v.tobytes() == want.tobytes()


class TestMemoryBudget:
    def test_one_budget_for_points_and_grids(self, monkeypatch):
        # the total-2 point solve takes 384 bytes, the smallest total-2 grid 1244
        # and a 16-point phase reading of its 3 coefficients 1424
        resource = resource_coeffs(ResourceParams(1, 1, 1.0))
        checks = (lambda: resource_coeffs(ResourceParams(1, 1, 1.0)),
                  lambda: check_sweep_size(fock_coeffs(0, 0), 2, 1, 1),
                  lambda: phase_argmax(resource, grid_size=16))
        for check in checks:
            check()
        monkeypatch.setattr(numerics, "MAX_GRID_BYTES", 383)
        for check in checks:
            with pytest.raises(ValueError, match="MiB limit"):
                check()

    def test_refused_need_reads_above_the_limit(self):
        # total 16352, the first refused, needs 1073934216 bytes, 1024.18 MiB: rounded up, not to the limit
        with pytest.raises(ValueError, match="about 1025 MiB, above the 1024 MiB limit"):
            _factor(16352)
