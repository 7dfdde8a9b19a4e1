"""Rotation-matrix columns D^j_{m',m}(beta) of the spin-j sector, from one eigensolver.

Each column comes from eigenvectors of a real symmetric tridiagonal at exact
eigenvalues (_eigenvector: LAPACK stein runs inverse iteration there, and for
a point stebz only splits the matrix and counts eigenvalues).  A single point
solves for its one column, an eigenvector of the rotated generator (_column),
in O(j) time and memory.  A grid solves once for the generator's eigenvectors
of eigenvalue >= 0 (_factor), takes the cosine and sine of each block of
angles once (_trig); the phase map rotates its columns from those (_rotate)
and finds their profile's maximum (phase._map_route), the fidelity sweep
reads the modes (protocol._sweep_route).  Half-integers are carried doubled.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.linalg import get_lapack_funcs

# exact unit phases i^k for k = 0..3
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])
# bytes a call may hold: a point's solve, or a grid's factor, output and one chunk of a row
MAX_GRID_BYTES = 1 << 30
# bytes a point holds per level of its sector: tracemalloc saw at most 94 for a
# resource_coeffs call at totals 10^3 to 10^5
_POINT_BYTES = 128
# LAPACK's bisection (stebz) and inverse iteration (stein) for real tridiagonals
_STEBZ, _STEIN = get_lapack_funcs(("stebz", "stein"), (np.zeros(1),))


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


def _check_integer(label: str, value, least: int = 0) -> None:
    """Refuse a value that is not an integer of at least `least`; Python and numpy integers pass."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{label} takes integers, not {value!r}")
    if value < least:
        raise ValueError(f"{label} must be non-negative" if least == 0 else f"{label} must be at least {least}")


def _check_beta(beta) -> float:
    # a 0-d array counts as the scalar it holds; a string, a longer array or a complex number is refused
    if not isinstance(np.asarray(beta)[()], numbers.Real):
        raise TypeError(f"beta must be a real number, not {type(beta).__name__}")
    if not 0.0 <= beta <= math.pi:
        raise ValueError(f"beta={beta} outside [0, pi]")
    return float(beta)


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


def _factor_bytes(two_j: int) -> int:
    """Bytes _factor holds: two_j // 2 + 1 eigenvectors of two_j + 1 doubles, and 32 more for the solves."""
    return 8 * (two_j + 1) * (two_j // 2 + 33)


def _rotation_bytes(two_j: int) -> int:
    """Bytes _trig and _rotate hold per beta sample: 24.0 to 24.7 per level were seen at totals 100 to 1001."""
    # per level the cosine and sine of the N/2 modes (with the angles while they are made),
    # the product of one with the column's row, a half product and the output
    return 28 * (two_j + 1)


def _factor(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact eigenvalues w >= 0 of the tridiagonal generator G of spin j, and eigenvectors v, times sqrt(2) where w > 0.

    G has zero diagonal, so the parity flip (-1)^n maps its eigenvector for w
    onto the one for -w, which the sqrt(2) carries into _rotate.  The zero
    diagonal also means stebz's split test e_k^2 <= eps^2 |d_k d_{k+1}| never
    holds, so G is one block and every mode goes straight to stein.  Every rotation of
    the sector reuses it.  A factor over MAX_GRID_BYTES is refused before anything is allocated.
    """
    _check_budget(_factor_bytes(two_j), f"total {two_j} needs a factor of")
    dim = two_j + 1
    d, e = np.zeros(dim), _offdiagonal(two_j)
    one_block = np.ones(dim, np.int32), np.full(dim, dim, np.int32)  # stebz's iblock and isplit for G
    w = np.arange((two_j + 1) // 2, two_j + 1) - two_j / 2
    v = np.empty((dim, len(w)))
    for k, lam in enumerate(w):  # scaled one by one: an in-place v *= row buffered up to 0.85 v
        v[:, k] = _eigenvector(d, e, lam, one_block) * (math.sqrt(2.0) if lam > 0.0 else 1.0)
    return w, v


def _trig(factor: tuple[np.ndarray, np.ndarray], beta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta, cos(beta w), sin(beta w)) for the generator's eigenvalues w; every column at these betas shares them."""
    beta = np.asarray(beta, dtype=float)
    angles = beta[..., None] * factor[0]
    return beta, np.cos(angles), np.sin(angles)


def _rotate(factor: tuple[np.ndarray, np.ndarray], col: int, trig) -> np.ndarray:
    """Real column `col` of D(beta) from the factorization and _trig(factor, beta).

    e^{i beta G} is cos(beta G), which keeps the row parity, plus i sin(beta G),
    which flips it; a mode pair +-w adds 2 cos(beta w) and 2i sin(beta w), so after
    the exact i^{n-col} twist each half of the column is one real product over
    _factor's modes (or over a full eigensystem).  beta == 0 gives the exact delta.
    """
    v = factor[1]
    beta, cos, sin = trig
    dim = len(v)
    same = col % 2
    out = np.empty(beta.shape + (dim,))
    out[..., same::2] = (cos * v[col]) @ v[same::2].T
    out[..., 1 - same::2] = (sin * v[col]) @ v[1 - same::2].T
    # the twist i^k times cos (k even) or i sin (k odd), k = n - col mod 4
    out *= np.array([1.0, -1.0, -1.0, 1.0])[(np.arange(dim) - col) % 4]
    out[beta == 0.0] = np.eye(1, dim, col)
    return out


def _fft_bytes(grid_size: int) -> int:
    """Bytes numpy's FFT allocates itself, outside its output, for one transform of K points.

    Its plan and scratch take 32 bytes per point for a complex transform and 16
    for a real one.  A K with a prime factor above 11, beyond numpy's radices, may
    instead take Bluestein's transform of about 2K points, which held 128-144 per point.
    """
    n = grid_size
    for p in (2, 3, 5, 7, 11):
        while n % p == 0:
            n //= p
    return (32 if n == 1 else 160) * grid_size


def _folded(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """Coefficients (last axis n) folded onto n mod K: the kernel has period K in n."""
    if coeffs.shape[-1] <= grid_size:
        return coeffs
    coeffs = np.pad(coeffs, [(0, 0)] * (coeffs.ndim - 1) + [(0, -coeffs.shape[-1] % grid_size)])
    return coeffs.reshape(coeffs.shape[:-1] + (-1, grid_size)).sum(axis=-2)


def _lapack(routine, *args) -> list:
    """Outputs of a LAPACK wrapper without its trailing info; a nonzero info raises LinAlgError."""
    *out, info = routine(*args)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} returned info={info}")
    return out


def _count_above(d: np.ndarray, e: np.ndarray, lam: float, k: int) -> int:
    """Eigenvalues above lam of the leading k x k block of the tridiagonal (d, e).

    By Sylvester's law of inertia this is the number of positive Sturm
    pivots p[0..k-1] of T - lam.  stebz counts them on the window (lam, hi],
    hi past a Gershgorin bound of the block, with a tolerance so large that
    it does no bisection.
    """
    if k < 2:
        return int(k == 1 and d[0] > lam)
    hi = max(float(d[:k].max() + 2.0 * np.abs(e[:k - 1]).max()), lam) + 1.0
    return _lapack(_STEBZ, d[:k], e[:k - 1], 1, lam, hi, 0, 0, 1e300, "E")[0]


def _eigenvector(d: np.ndarray, e: np.ndarray, lam: float, split=None) -> np.ndarray:
    """Unit eigenvector, of arbitrary sign, of the tridiagonal (d, e) for its exact eigenvalue lam.

    lam must be the only eigenvalue in (lam - 1/2, lam + 1/2].  On that
    window stebz, at a tolerance of 1, does no bisection: it only splits
    the matrix where a coupling is negligible against its diagonal
    neighbours and finds lam's block.  stein then runs inverse iteration on
    that block at the exact lam, not at stebz's estimate.  A caller that
    knows the split passes stebz's (iblock, isplit) as split, and stebz is
    skipped.  A LAPACK failure, or a window that does not hold exactly one
    eigenvalue, raises np.linalg.LinAlgError.  A 1 x 1 matrix gives [1]
    (f2py refuses empty e).
    """
    if len(d) == 1:
        return np.ones(1)
    if split is None:
        m, _, *split = _lapack(_STEBZ, d, e, 1, lam - 0.5, lam + 0.5, 0, 0, 1.0, "B")
        if m != 1:
            raise np.linalg.LinAlgError(f"stebz found {m} eigenvalues near {lam}, not 1")
    return _lapack(_STEIN, d, e, np.array([lam]), *split)[0][:, 0]


def _column(two_j: int, col: int, beta: float) -> np.ndarray:
    """Real column `col` of D(beta) at one beta, by one eigenvector solve in O(two_j).

    In the twisted frame the column is the eigenvector of the real symmetric
    tridiagonal T = cos(beta) (n - j) + sin(beta) G for the exact eigenvalue
    lam = col - j; T's spectrum is exactly -j..j in steps of 1, so
    _eigenvector finds it without bisecting.  Its sign is arbitrary.  The
    exact column has v[0] > 0 for beta in (0, pi], but an edge entry can be
    a true 1e-2600 that reads as noise, so the sign is fixed at the first
    entry k of at least half the largest magnitude: v[i+1] / v[i] =
    -p[i] / e[i] with e > 0, so v[k] has the sign (-1)^(number of positive
    Sturm pivots p[0..k-1] of T - lam), which _count_above counts.
    A point over MAX_GRID_BYTES is refused before anything is allocated;
    beta == 0 gives the exact delta, and total 0 the one entry 1.
    """
    dim = two_j + 1
    _check_budget(_POINT_BYTES * dim, f"total {two_j} needs a point solve of")
    if beta == 0.0:
        return np.eye(1, dim, col)[0]
    d = math.cos(beta) * (np.arange(dim) - 0.5 * two_j)
    e = math.sin(beta) * _offdiagonal(two_j)
    lam = col - 0.5 * two_j
    v = _eigenvector(d, e, lam)
    mag = np.abs(v)
    k = int(np.argmax(mag >= 0.5 * mag.max()))
    return -v if (v[k] < 0.0) != (_count_above(d, e, lam, k) % 2 == 1) else v


def wigner_d_column_stable(j, m_col, beta: float) -> np.ndarray:
    """Full column D^j_{m',m}(beta), m' = -j..j, by the point route's one eigenvector solve.

    Real arithmetic, O(j) time and memory, accurate at any j; grids solve
    once for the generator's eigenvectors instead (_factor, _trig, _rotate).
    """
    beta = _check_beta(beta)
    two_j, two_m = _doubled(j, m_col=m_col)
    return _column(two_j, (two_m + two_j) // 2, beta)
