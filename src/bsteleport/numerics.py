"""Rotation-matrix columns D^j_{m',m}(beta) of the spin-j sector.

The tridiagonal generator of the sector is factored once and any column
is rotated from that factorization; it stays accurate at any j.
Half-integer indices are carried as doubled integers so parity checks
are exact.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

# exact unit phases i^k for k = 0..3
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])
# bytes a call may hold: a point's factor, or a grid's factor, output and one chunk of a row
MAX_GRID_BYTES = 1 << 30


def _cumlog_factorials(n_max: int, head=(0.0,), carry: float = 0.0) -> tuple[np.ndarray, float]:
    """ln(n!) for n = 0..n_max by compensated addition of ln(n) after head, and the carry."""
    out = np.empty(n_max + 1)
    out[: len(head)] = head
    total = float(head[-1])
    for n in range(len(head), n_max + 1):
        y = math.log(n) - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out[n] = total
    return out, carry


_LOG_FACTORIALS, _LOG_CARRY = _cumlog_factorials(4096)
_LOG_FACTORIALS.setflags(write=False)


def _log_factorials(n: int) -> np.ndarray:
    """ln(k!) for k = 0..n, read-only up to 4096; beyond, the shared sum continues bit for bit."""
    if n < len(_LOG_FACTORIALS):
        return _LOG_FACTORIALS[: n + 1]
    return _cumlog_factorials(n, _LOG_FACTORIALS, _LOG_CARRY)[0]


def _doubled(j, **ms) -> tuple[int, ...]:
    """2j followed by each 2m as exact integers, refusing any m outside the spin-j sector."""
    out = []
    for label, x in {"j": j, **ms}.items():
        doubled = 2 * x
        if not math.isfinite(doubled) or doubled != round(doubled):
            raise ValueError(f"{label}={x} is not integer or half-integer")
        out.append(int(round(doubled)))
    two_j = out[0]
    if two_j < 0:
        raise ValueError("j must be non-negative")
    for label, two_m in zip(ms, out[1:]):
        if abs(two_m) > two_j:
            raise ValueError(f"|{label}| exceeds j")
        if (two_j - two_m) % 2:
            raise ValueError(f"{label} and j differ in parity")
    return tuple(out)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta <= math.pi:
        raise ValueError(f"beta={beta} outside [0, pi]")
    return beta


def _offdiagonal(two_j: int) -> np.ndarray:
    """Couplings 0.5*sqrt((j-m')(j+m'+1)) between neighbouring m' levels."""
    r = np.arange(two_j, dtype=float)
    return 0.5 * np.sqrt((two_j - r) * (r + 1.0))


def _check_budget(need: int, what: str) -> None:
    """Refuse a request of need bytes over MAX_GRID_BYTES; what is the message up to the size.

    The need is rounded up to whole MiB, so a refused need never reads as the limit.
    """
    if need > MAX_GRID_BYTES:
        raise ValueError(f"{what} about {-(-need // 2**20)} MiB, "
                         f"above the {MAX_GRID_BYTES / 2**20:g} MiB limit")


def _factor(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of the tridiagonal generator G of spin j.

    G is the real symmetric matrix with zero diagonal and the
    _offdiagonal couplings.  Every rotation of the sector reuses it.
    A factor over MAX_GRID_BYTES is refused before anything is allocated.
    """
    _check_budget(8 * (two_j + 1) * (two_j + 2), f"total {two_j} needs a factor of")
    return eigh_tridiagonal(np.zeros(two_j + 1), _offdiagonal(two_j))


def _rotated_column(factor: tuple[np.ndarray, np.ndarray], col: int, beta) -> np.ndarray:
    """Real column `col` of D(beta), shape beta.shape + (dim,), from the generator's factorization.

    e^{i beta G} is cos(beta G), which keeps the row parity, plus i sin(beta G),
    which flips it: after the exact i^{n-col} twist each half of the column is
    one real product.  beta == 0 gives the exact delta.
    """
    w, v = factor
    dim = len(w)
    beta = np.asarray(beta, dtype=float)
    angles = beta[..., None] * w
    same = col % 2
    out = np.empty(beta.shape + (dim,))
    out[..., same::2] = (np.cos(angles) * v[col]) @ v[same::2].T
    out[..., 1 - same::2] = (np.sin(angles) * v[col]) @ v[1 - same::2].T
    # the twist i^k times cos (k even) or i sin (k odd), k = n - col mod 4
    out *= np.array([1.0, -1.0, -1.0, 1.0])[(np.arange(dim) - col) % 4]
    out[beta == 0.0] = np.eye(1, dim, col)
    return out


def wigner_d_column_stable(j, m_col, beta: float) -> np.ndarray:
    """Full column D^j_{m',m}(beta), m' = -j..j, via eigendecomposition.

    The rotation is built from the eigendecomposition of the tridiagonal
    generator in real arithmetic, with the exact i^k twist folded into
    signs; nothing imaginary is computed.  Accurate at any j.
    """
    beta = _check_beta(beta)
    two_j, two_m = _doubled(j, m_col=m_col)
    return _rotated_column(_factor(two_j), (two_m + two_j) // 2, beta)
