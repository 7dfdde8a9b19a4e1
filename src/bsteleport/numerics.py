"""Rotation-matrix columns D^j_{m',m}(beta) of the spin-j sector, from one eigensolver.

Each column comes from eigenvectors of a real symmetric tridiagonal at exact
eigenvalues (_eigenvector: one pivoted LU of T - lam, then inverse iteration
until its residual certificate passes; stebz only splits a matrix whose
couplings may be negligible, and counts eigenvalues for a point's sign).
A single point solves for its one column, an eigenvector of the rotated
generator (_column), in O(j) time and memory.  A grid solves once for the
generator's eigenvectors of eigenvalue >= 0 (_factor), takes the cosine and
sine of each block of angles once (_trig); the phase map rotates its columns
from those (_rotate) and finds their profile's maximum (phase._map_route),
the fidelity sweep reads the modes (protocol._sweep_route).  Half-integers
are carried doubled.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

# exact unit phases i^k for k = 0..3
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])
# bytes a call may hold: a point's solve, or a grid's factor, output and one chunk of a row
MAX_GRID_BYTES = 1 << 30
# bytes a point holds per level of its sector: tracemalloc saw at most 94 for a
# resource_coeffs call at totals 10^3 to 10^5, its LU and solves included
_POINT_BYTES = 128
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
# LAPACK's bisection (stebz) for real tridiagonals, and the pivoted LU of a tridiagonal
# (gttrf) with its solve (gttrs)
_STEBZ, _GTTRF, _GTTRS = get_lapack_funcs(("stebz", "gttrf", "gttrs"), (np.zeros(1),))
# BLAS's 2-norm, which scales as it sums: a solve near a split block grows to 1e300
_NRM2 = get_blas_funcs("nrm2", (np.zeros(1),))
# most solves inverse iteration takes before it gives up, as LAPACK's dstein caps its own
_MAX_SOLVES = 5
# the backward error of the LU and one solve, per unit of ||T - lam||: partial pivoting
# grows no entry of a tridiagonal's factors more than twofold, so a few eps cover both
_LU_ERROR = 8.0 * _EPS
# step of the start vector's sawtooth: 1/rho for the plastic number rho, far from any
# rational of small denominator, so the start is neither smooth nor symmetric
_WEYL_STEP = 0.7548776662466927


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
    """Bytes _factor holds: two_j // 2 + 1 eigenvectors of two_j + 1 doubles, and 12 more for the solves.

    tracemalloc saw the solves hold 11.97 doubles per level beside the
    eigenvectors (the matrix, its LU, the start and one iterate) at total 100,
    falling to 10.05 at total 4000.
    """
    return 8 * (two_j + 1) * (two_j // 2 + 13)


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
    holds, so each mode is one LU and certified inverse iteration on the
    whole of G (_eigenvector).  Every rotation of the sector reuses it.  A
    factor over MAX_GRID_BYTES is refused before anything is allocated.
    """
    _check_budget(_factor_bytes(two_j), f"total {two_j} needs a factor of")
    dim = two_j + 1
    d, e = np.zeros(dim), _offdiagonal(two_j)
    w = np.arange((two_j + 1) // 2, two_j + 1) - two_j / 2
    v = np.empty((dim, len(w)))
    for k, lam in enumerate(w):  # scaled one by one: an in-place v *= row buffered up to 0.85 v
        v[:, k] = _eigenvector(d, e, lam, whole=True) * (math.sqrt(2.0) if lam > 0.0 else 1.0)
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


def _start(n: int) -> np.ndarray:
    """Inverse iteration's fixed start on n levels, the sawtooth frac(k / rho), k = 0..n-1.

    A smooth or symmetric start can miss a column almost entirely: a ramp
    1..n overlaps the alternating edge column at total 10^5 by about 1e-11.
    """
    x = np.arange(n) * _WEYL_STEP
    x -= np.floor(x)
    return x


def _inverse_iteration(d: np.ndarray, e: np.ndarray, lam: float, norm: float) -> np.ndarray:
    """Unit eigenvector, of arbitrary sign, of one unsplit tridiagonal block T = (d, e) at its eigenvalue lam.

    norm bounds ||T - lam||, and T's other eigenvalues lie at least 1 from
    lam.  gttrf factors T - lam once, with partial pivoting.  Every pivot but
    the last is at least a coupling; a last pivot below eps^2 norm, an
    exactly zero one (info > 0) included, is raised to it, as LAPACK's dlagts
    perturbs a pivot that would overflow the solve.  Each gttrs solve
    (T - lam) y = x then certifies its own output: the residual of y / ||y||
    is at most ||x|| / ||y|| plus the LU's backward error _LU_ERROR norm,
    and with the unit gap that residual bounds the sine of the angle to the
    true eigenvector (Parlett, The Symmetric Eigenvalue Problem, Thm 11.7.1).
    The first solve only turns the start toward the eigenvector; a later one
    whose ||x|| / ||y|| is within the LU's error is returned, its residual
    certified below twice that error.  A certificate still failing after
    _MAX_SOLVES solves, a solve that overflows, or a LAPACK failure raises
    np.linalg.LinAlgError.  f2py's gttrf refuses 2 x 2, so blocks of one and
    two levels take their closed form.
    """
    n = len(d)
    if n < 3:
        if n == 1:
            return np.ones(1)
        # (T - lam) v = 0 read from either row; the longer of the two is the better rounded
        v = max((e[0], lam - d[0]), (lam - d[1], e[0]), key=lambda p: abs(p[0]) + abs(p[1]))
        return np.array(v) / math.hypot(*v)
    *lu, info = _GTTRF(e, d - lam, e)
    if info < 0:
        raise np.linalg.LinAlgError(f"LAPACK {_GTTRF.__name__} returned info={info}")
    last, floor = lu[1][-1], _EPS * _EPS * norm
    if abs(last) < floor:
        lu[1][-1] = math.copysign(floor, last)
    bound = _LU_ERROR * norm
    x = _start(n)
    size = _NRM2(x)
    for solve in range(_MAX_SOLVES):
        y = _lapack(_GTTRS, *lu, x)[0]
        grown = _NRM2(y)
        if not grown < math.inf:
            raise np.linalg.LinAlgError(f"inverse iteration at {lam} overflowed")
        y /= grown
        residual = size / grown + bound
        if solve and residual <= 2.0 * bound:
            return y
        x, size = y, 1.0
    raise np.linalg.LinAlgError(f"inverse iteration at {lam} left a residual of {residual:.1e} "
                                f"after {_MAX_SOLVES} solves, above its bound {2.0 * bound:.1e}")


def _eigenvector(d: np.ndarray, e: np.ndarray, lam: float, whole: bool = False) -> np.ndarray:
    """Unit eigenvector, of arbitrary sign, of the tridiagonal (d, e) for its exact eigenvalue lam.

    (d, e) must have the spectrum -j..j in steps of 1, j = (len(d) - 1) / 2,
    as the rotated generator and G have: lam is then 1 from its neighbours,
    and ||T - lam|| = j + |lam| bounds every block of T - lam.  A caller that
    knows stebz would not split (d, e) passes whole=True, and the matrix is
    one block.  Otherwise stebz, on the window (lam - 1/2, lam + 1/2] at a
    tolerance of 1, does no bisection: it only splits the matrix where a
    coupling is negligible against its diagonal neighbours and finds lam's
    block, and a window that does not hold exactly one eigenvalue raises
    np.linalg.LinAlgError.  LU and certified inverse iteration
    (_inverse_iteration) solve the block at the exact lam; the vector is zero
    outside it.  A 1 x 1 matrix gives [1] (f2py refuses empty e).
    """
    norm = 0.5 * (len(d) - 1) + abs(lam)
    if whole or len(d) == 1:
        return _inverse_iteration(d, e, lam, norm)
    m, _, iblock, isplit = _lapack(_STEBZ, d, e, 1, lam - 0.5, lam + 0.5, 0, 0, 1.0, "B")
    if m != 1:
        raise np.linalg.LinAlgError(f"stebz found {m} eigenvalues near {lam}, not 1")
    block = iblock[0]
    start, stop = (isplit[block - 2] if block > 1 else 0), isplit[block - 1]
    v = np.zeros(len(d))
    v[start:stop] = _inverse_iteration(d[start:stop], e[start:stop - 1], lam, norm)
    return v


def _column(two_j: int, col: int, beta: float) -> np.ndarray:
    """Real column `col` of D(beta) at one beta, by one eigenvector solve in O(two_j).

    In the twisted frame the column is the eigenvector of the real symmetric
    tridiagonal T = cos(beta) (n - j) + sin(beta) G for the exact eigenvalue
    lam = col - j; T's spectrum is exactly -j..j in steps of 1, so
    _eigenvector finds it without bisecting.  stebz splits where
    e_k^2 <= eps^2 |d_k d_{k+1}| + tiny; the smallest coupling squared,
    sin(beta)^2 two_j / 4, against the largest diagonal product,
    cos(beta)^2 two_j^2 / 4, tells in closed form that it cannot split
    anywhere, with a margin of two for the rounding of d and e.  Then T is
    solved as one block, and stebz is called only for split sectors, beta
    within about eps sqrt(2 two_j) of 0 or pi.  The vector's sign is
    arbitrary.  The exact column has v[0] > 0 for beta in (0, pi], but an
    edge entry can be a true 1e-2600 that reads as noise, so the sign is
    fixed at the first entry k of at least half the largest magnitude:
    v[i+1] / v[i] = -p[i] / e[i] with e > 0, so v[k] has the sign
    (-1)^(number of positive Sturm pivots p[0..k-1] of T - lam), which
    _count_above counts.  A point over MAX_GRID_BYTES is refused before
    anything is allocated; beta == 0 gives the exact delta, and total 0 the
    one entry 1.
    """
    dim = two_j + 1
    _check_budget(_POINT_BYTES * dim, f"total {two_j} needs a point solve of")
    if beta == 0.0:
        return np.eye(1, dim, col)[0]
    cos, sin = math.cos(beta), math.sin(beta)
    d = cos * (np.arange(dim) - 0.5 * two_j)
    e = sin * _offdiagonal(two_j)
    lam = col - 0.5 * two_j
    one_block = sin * sin * two_j / 2 > (_EPS * cos * two_j) ** 2 + 2.0 * _TINY
    v = _eigenvector(d, e, lam, whole=one_block)
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
