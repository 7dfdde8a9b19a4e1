"""Physical invariants of the rotation kernels at totals beyond the oracle's reach.

The expm oracle stops at MAX_VERIFY_TOTAL; these identities of the real
rotation matrix d^j(beta) hold at every j, so they check both routes,
the grid kernel and the point solve, up to total 2000.  Entries are
indexed by a = j + m' (row) and b = j + m (column), which is the sender
photon number of the resource.
"""

import math

import numpy as np
import pytest

from bsteleport.numerics import _I_POW
from routes import factored, over_routes, rotated_column

LARGE_TOTALS = {str(t): (t,) for t in (1, 2, 7, 100, 501, 2000)}
BETAS = (0.4, 2.3)
# entries of d are at most 1; this leaves ~1e3 eps of room at total 2000
ENTRY_TOL = 1e-12


def _picks(total: int, count: int = 2) -> list[int]:
    """Both edge columns, the middle one and a seeded few others."""
    rng = np.random.default_rng(total)
    extra = rng.integers(0, total + 1, size=count).tolist()
    return sorted({0, total // 2, total, *extra})


def _columns(column, total: int, cols, beta: float) -> np.ndarray:
    return np.column_stack([column(total, c, beta) for c in cols])


@over_routes("column, total", LARGE_TOTALS)
def test_transpose_symmetry(column, total):
    # d_{m'm}(beta) = (-1)^{m'-m} d_{mm'}(beta)
    cols = _picks(total)
    for beta in BETAS:
        sub = _columns(column, total, cols, beta)[cols, :]
        a = np.array(cols)
        sign = (-1.0) ** (a[:, None] - a[None, :])
        assert np.max(np.abs(sub - sign * sub.T)) < ENTRY_TOL


@over_routes("column, total", LARGE_TOTALS)
def test_reflection(column, total):
    # d^j_{m'm}(pi - beta) = (-1)^{j+m'} d^j_{m',-m}(beta)
    cols = _picks(total)
    rows = np.arange(total + 1)
    for beta in BETAS:
        reflected = _columns(column, total, cols, math.pi - beta)
        mirrored = _columns(column, total, [total - c for c in cols], beta)
        assert np.max(np.abs(reflected - ((-1.0) ** rows)[:, None] * mirrored)) < ENTRY_TOL


@over_routes("column, total", LARGE_TOTALS)
def test_sender_photon_moments(column, total):
    # <n> = j + m cos(beta); <m'^2> = m^2 cos^2 + (j(j+1) - m^2) sin^2 / 2
    j = total / 2
    m_row = np.arange(total + 1) - j
    for beta in BETAS:
        c, s = math.cos(beta), math.sin(beta)
        for col in _picks(total):
            p = column(total, col, beta) ** 2
            m = col - j
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert p @ (m_row + j) == pytest.approx(j + m * c, abs=1e-12 * max(1, total))
            second = m * m * c * c + (j * (j + 1) - m * m) * s * s / 2
            assert p @ m_row**2 == pytest.approx(second, abs=1e-12 * max(1, total) ** 2)


@over_routes("column, total", {str(t): (t,) for t in (1, 4, 17, 60, 200)})
def test_composition_law(column, total):
    # D(b1) D(b2) = D(b1 + b2) while b1 + b2 stays in [0, pi]
    every = range(total + 1)
    for b1, b2 in ((0.3, 1.7), (math.pi / 2, math.pi / 2)):
        product = _columns(column, total, every, b1) @ _columns(column, total, every, b2)
        assert np.max(np.abs(product - _columns(column, total, every, b1 + b2))) < ENTRY_TOL


def _mirrored(total: int) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of the generator from the factor's modes w >= 0: (-1)^n v is the eigenvector for -w."""
    w, v = factored(total)
    pair = w > 0.0
    v = v / np.where(pair, math.sqrt(2.0), 1.0)
    flipped = (-1.0) ** np.arange(total + 1)[:, None] * v[:, pair]
    return np.concatenate([-w[pair], w]), np.hstack([flipped, v])


@pytest.mark.parametrize("total", (100, 2000))
def test_discarded_imaginary_residue_is_small(total):
    # the kernel works in real arithmetic; the complex twisted column built
    # from the full eigensystem, mirrored from the same factor, must be real up
    # to rounding (measured 8e-17 at 100 and 2000) and agree with the kernel
    # (measured 1.7e-16 and 2.4e-16)
    w, v = _mirrored(total)
    worst = 0.0
    for beta in BETAS:
        for col in _picks(total):
            ucol = (v * np.exp(1j * beta * w)) @ v[col]
            twisted = _I_POW[(np.arange(total + 1) - col) % 4] * ucol
            assert np.max(np.abs(twisted.real - rotated_column(factored(total), col, beta))) < 1e-13
            worst = max(worst, float(np.max(np.abs(twisted.imag))))
    assert worst < 1e-12
