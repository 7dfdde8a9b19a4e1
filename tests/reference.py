"""Slow reference routes that the tests compare the library against.

Each route recomputes its quantity from the defining formula and shares
no arithmetic with the route it checks: the rotation coefficient as the
explicit factorial sum, the outcome probability and conditional fidelity
as literal sums over photon numbers, and the phase-difference density as
a direct Fourier sum at one reading.  The point solve is checked against
its earlier route: the eigenvector found by bisection for its eigenvalue,
its sign by a literal loop over the Sturm pivots.  The phase map's argmax
is read from the whole half profile, one real FFT of length K.  The grid
CSV is written one "%.17g" call per number.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from bsteleport.numerics import _I_POW, _check_beta, _doubled, _log_factorials, _offdiagonal
from bsteleport.phase import _ARGMAX_RTOL
from bsteleport.protocol import DEFINED_MIN, UndefinedOutcomeError
from bsteleport.states import ResourceCoeffs, TargetCoeffs


def wigner_d_direct(j, m_row, m_col, beta: float) -> float:
    """Rotation coefficient D^j_{m',m}(beta) by the explicit factorial sum.

    Each term is evaluated as sign * exp(log magnitude) against the
    log-factorial array and accumulated in increasing s with compensated
    summation, so the result is bit-reproducible.  Subject to catastrophic
    cancellation for j beyond ~20; use wigner_d_column_stable there.
    """
    two_j, two_m_row, two_m_col = _doubled(j, m_row=m_row, m_col=m_col)
    beta = _check_beta(beta)
    sin_half = math.sin(beta / 2)
    if sin_half == 0.0:
        # identity rotation: the single surviving s term is exactly delta
        return 1.0 if two_m_row == two_m_col else 0.0
    cos_half = math.cos(beta / 2)

    jm_row = (two_j + two_m_row) // 2  # j + m'
    jm_row_c = (two_j - two_m_row) // 2  # j - m'
    jm_col = (two_j + two_m_col) // 2  # j + m
    jm_col_c = (two_j - two_m_col) // 2  # j - m
    row_less_col = (two_m_row - two_m_col) // 2  # m' - m

    lf = _log_factorials(two_j)
    prefactor = 0.5 * (lf[jm_row] + lf[jm_row_c] + lf[jm_col] + lf[jm_col_c])
    log_cos = math.log(cos_half) if cos_half > 0.0 else -math.inf
    log_sin = math.log(sin_half)

    s_min = max(0, -row_less_col)
    s_max = min(jm_col, jm_row_c)
    total = 0.0
    carry = 0.0
    for s in range(s_min, s_max + 1):
        cos_exp = two_j - row_less_col - 2 * s
        sin_exp = row_less_col + 2 * s
        log_mag = (
            prefactor
            + (cos_exp * log_cos if cos_exp else 0.0)
            + sin_exp * log_sin
            - lf[jm_col - s]
            - lf[s]
            - lf[row_less_col + s]
            - lf[jm_row_c - s]
        )
        if log_mag == -math.inf:
            continue
        term = math.exp(log_mag)
        if (row_less_col + s) % 2:
            term = -term
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def positive_pivots(d: np.ndarray, e: np.ndarray, lam: float, k: int) -> int:
    """Positive Sturm pivots p[0..k-1] of the tridiagonal (d, e) minus lam, one by one.

    As in LAPACK's Sturm count, a pivot smaller than pivmin counts as -pivmin.
    """
    e2 = e * e
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    flips = 0
    p = float(d[0]) - lam
    for dk, ek2 in zip(d[1:k + 1].tolist(), e2[:k].tolist()):
        if abs(p) < pivmin:
            p = -pivmin
        flips += p > 0.0
        p = (dk - lam) - ek2 / p
    return flips


def stevd_factor(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair (w, v) of the zero-diagonal generator at total two_j, from LAPACK stevd.

    _rotate takes this full eigensystem as it takes the library's half
    factor, so the two must give the same columns.
    """
    return eigh_tridiagonal(np.zeros(two_j + 1), _offdiagonal(two_j))


def column_by_bisection(two_j: int, col: int, beta: float) -> np.ndarray:
    """Real rotation column `col` at total two_j, as eigh_tridiagonal's eigenvector number col.

    stebz bisects for the eigenvalue and stein iterates at its estimate;
    the sign is that of (-1)^(positive Sturm pivots before the first entry
    of at least half the largest magnitude).
    """
    dim = two_j + 1
    if beta == 0.0:
        return np.eye(1, dim, col)[0]
    d = math.cos(beta) * (np.arange(dim) - 0.5 * two_j)
    e = math.sin(beta) * _offdiagonal(two_j)
    v = eigh_tridiagonal(d, e, select="i", select_range=(col, col))[1][:, 0]
    mag = np.abs(v)
    k = int(np.argmax(mag >= 0.5 * mag.max()))
    flips = positive_pivots(d, e, col - 0.5 * two_j, k)
    return -v if (v[k] < 0.0) != (flips % 2 == 1) else v


def _pair_range(target: TargetCoeffs, resource: ResourceCoeffs, q: int) -> range:
    """Sender photon numbers n paired with target number q - n in outcome q."""
    return range(max(0, q - target.cutoff), min(q, resource.total) + 1)


def number_sum_prob_literal(target: TargetCoeffs, resource: ResourceCoeffs, q: int) -> float:
    """Probability of outcome q as the literal sum of |c_{q-n}|^2 |d_n|^2 over n."""
    c, d = target.coeffs, resource.coeffs
    return float(sum(abs(c[q - n]) ** 2 * abs(d[n]) ** 2 for n in _pair_range(target, resource, q)))


def fidelity_given_q_double_sum(target: TargetCoeffs, resource: ResourceCoeffs, q: int) -> complex:
    """Conditional fidelity as the literal double sum over n and n'.

    Returned as complex so tests can confirm the imaginary part vanishes
    rather than having it silently discarded.
    """
    p = number_sum_prob_literal(target, resource, q)
    if p <= DEFINED_MIN:
        raise UndefinedOutcomeError(f"outcome q={q} has probability {p:.3e}")
    w = np.abs(target.coeffs) ** 2
    d = resource.coeffs
    acc = 0.0 + 0.0j
    for n in _pair_range(target, resource, q):
        for n2 in _pair_range(target, resource, q):
            acc += w[q - n] * w[q - n2] * d[n] * np.conj(d[n2])
    return acc / p


def joint_phase_prob(resource: ResourceCoeffs, phi_minus: float) -> float:
    """Probability density (unnormalized) of phase-difference value phi_minus.

    The squared modulus of sum_n e^{i phi n} i^n d_n, summed directly at
    one reading.
    """
    n = np.arange(resource.total + 1)
    z = complex(np.dot(np.exp(1j * phi_minus * n), _I_POW[n % 4] * resource.coeffs))
    return z.real * z.real + z.imag * z.imag


def full_profile_argmax(column: np.ndarray, grid_size: int) -> np.ndarray:
    """First maximum phase of each real column's profile |sum_n c_n e^{-i n phi}|^2 over phi_k = 2 pi k / K, k = 0..K//2.

    The profile is the power spectrum of the column, folded onto n mod K, at
    every point of the half grid; the first k within _ARGMAX_RTOL of the
    maximum wins, and a zero profile reads phi = 0.
    """
    n = column.shape[-1]
    if n > grid_size:
        column = np.pad(column, [(0, 0)] * (column.ndim - 1) + [(0, -n % grid_size)])
        column = column.reshape(column.shape[:-1] + (-1, grid_size)).sum(axis=-2)
    z = np.fft.rfft(column, n=grid_size, axis=-1)
    values = z.real**2 + z.imag**2
    v_max = values.max(axis=-1)
    k = np.argmax(values >= v_max[..., None] * (1.0 - _ARGMAX_RTOL), axis=-1)
    return np.where(v_max > 0.0, 2.0 * np.pi * k / grid_size, 0.0)


def grid_csv_per_cell(beta_axis, m_axis, values) -> bytes:
    """The grid CSV with one "%.17g" line per cell, beta fastest within each m."""
    lines = ["beta,m,value"]
    for i, m in enumerate(m_axis):
        for k, beta in enumerate(beta_axis):
            lines.append("%.17g,%.17g,%.17g" % (beta, m, values[i][k]))
    return ("\n".join(lines) + "\n").encode("ascii")
