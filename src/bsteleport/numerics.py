"""Log-domain factorial combinatorics and rotation-matrix columns.

Two independent evaluators for the real rotation coefficients
D^j_{m',m}(beta) are provided: a direct factorial sum (reference
implementation, reliable up to j ~ 20 in double precision before
cancellation sets in) and a tridiagonal-eigendecomposition route that
stays accurate at arbitrary size.  Half-integer indices are carried as
doubled integers so parity checks are exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

DEFAULT_TABLE_SIZE = 4096

# exact unit phases i^k for k = 0..3
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])


def _cumlog_factorials(n_max: int) -> np.ndarray:
    """ln(n!) for n = 0..n_max by compensated cumulative addition of ln(n)."""
    out = np.empty(n_max + 1)
    out[0] = 0.0
    total = 0.0
    carry = 0.0
    for n in range(1, n_max + 1):
        y = math.log(n) - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out[n] = total
    return out


class LogFactorialTable:
    """Immutable table of ln(n!), n = 0..n_max."""

    def __init__(self, n_max: int = DEFAULT_TABLE_SIZE):
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        self.n_max = int(n_max)
        self._values = _cumlog_factorials(self.n_max)
        self._values.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def value(self, n: int) -> float:
        """ln(n!) for 0 <= n <= n_max."""
        if n < 0 or n > self.n_max:
            raise ValueError(f"n={n} outside table range [0, {self.n_max}]")
        return float(self._values[n])


_default_table = LogFactorialTable()
_table_lock = threading.Lock()


def _shared_table(n_needed: int) -> LogFactorialTable:
    """Shared table covering at least n_needed, grown by replacement."""
    global _default_table
    table = _default_table
    if n_needed > table.n_max:
        with _table_lock:
            table = _default_table
            if n_needed > table.n_max:
                table = LogFactorialTable(max(n_needed, 2 * table.n_max))
                _default_table = table
    return table


def log_factorial(n: int) -> float:
    """ln(n!) from the shared table, grown on demand."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _shared_table(n).value(n)


def _twice(x, name: str) -> int:
    """Exact doubled-integer representation of a half-integer value."""
    doubled = 2 * x
    rounded = round(doubled)
    if doubled != rounded:
        raise ValueError(f"{name}={x} is not integer or half-integer")
    return int(rounded)


@dataclass(frozen=True)
class WignerIndex:
    """(j, m', m) element address, stored as doubled integers."""

    two_j: int
    two_m_row: int
    two_m_col: int

    def __post_init__(self):
        if self.two_j < 0:
            raise ValueError("j must be non-negative")
        for label, two_m in (("m_row", self.two_m_row), ("m_col", self.two_m_col)):
            if abs(two_m) > self.two_j:
                raise ValueError(f"|{label}| exceeds j")
            if (self.two_j - two_m) % 2:
                raise ValueError(f"{label} and j differ in parity")

    @classmethod
    def from_values(cls, j, m_row, m_col) -> "WignerIndex":
        return cls(_twice(j, "j"), _twice(m_row, "m_row"), _twice(m_col, "m_col"))

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def m_row(self) -> float:
        return self.two_m_row / 2

    @property
    def m_col(self) -> float:
        return self.two_m_col / 2


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta <= math.pi:
        raise ValueError(f"beta={beta} outside [0, pi]")
    return beta


def wigner_d_direct(idx: WignerIndex, beta: float) -> float:
    """Rotation coefficient D^j_{m',m}(beta) by the explicit factorial sum.

    Each term is evaluated as sign * exp(log magnitude) against the shared
    log-factorial table and accumulated in increasing s with compensated
    summation, so the result is bit-reproducible.  Subject to catastrophic
    cancellation for j beyond ~20; use wigner_d_column_stable there.
    """
    beta = _check_beta(beta)
    sin_half = math.sin(beta / 2)
    if sin_half == 0.0:
        # identity rotation: the single surviving s term is exactly delta
        return 1.0 if idx.two_m_row == idx.two_m_col else 0.0
    cos_half = math.cos(beta / 2)

    jm_row = (idx.two_j + idx.two_m_row) // 2  # j + m'
    jm_row_c = (idx.two_j - idx.two_m_row) // 2  # j - m'
    jm_col = (idx.two_j + idx.two_m_col) // 2  # j + m
    jm_col_c = (idx.two_j - idx.two_m_col) // 2  # j - m
    row_less_col = (idx.two_m_row - idx.two_m_col) // 2  # m' - m

    lf = _shared_table(idx.two_j).values
    prefactor = 0.5 * (lf[jm_row] + lf[jm_row_c] + lf[jm_col] + lf[jm_col_c])
    log_cos = math.log(cos_half) if cos_half > 0.0 else -math.inf
    log_sin = math.log(sin_half)

    s_min = max(0, -row_less_col)
    s_max = min(jm_col, jm_row_c)
    total = 0.0
    carry = 0.0
    for s in range(s_min, s_max + 1):
        cos_exp = idx.two_j - row_less_col - 2 * s
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


def _offdiagonal(two_j: int) -> np.ndarray:
    """Couplings 0.5*sqrt((j-m')(j+m'+1)) between neighbouring m' levels."""
    r = np.arange(two_j, dtype=float)
    return 0.5 * np.sqrt((two_j - r) * (r + 1.0))


def _factor(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of the tridiagonal generator G of spin j.

    G is the real symmetric matrix with zero diagonal and the
    _offdiagonal couplings.  Every rotation of the sector reuses it.
    """
    return eigh_tridiagonal(np.zeros(two_j + 1), _offdiagonal(two_j))


def _rotated_column(factor: tuple[np.ndarray, np.ndarray], col: int, beta: float) -> np.ndarray:
    """Real column `col` of D(beta) from the generator's factorization."""
    w, v = factor
    dim = len(w)
    if beta == 0.0:
        out = np.zeros(dim)
        out[col] = 1.0
        return out
    ucol = (v * np.exp(1j * beta * w)) @ v[col]
    phase = _I_POW[(np.arange(dim) - col) % 4]
    return (phase * ucol).real


def wigner_d_column_stable(j, m_col, beta: float) -> np.ndarray:
    """Full column D^j_{m',m}(beta), m' = -j..j, via eigendecomposition.

    The tridiagonal generator is exponentiated to realize the rotation,
    and the resulting complex column is twisted back by exact i^k unit
    phases; the imaginary residue is discarded.  Accurate at any j.
    """
    beta = _check_beta(beta)
    two_j = _twice(j, "j")
    two_m = _twice(m_col, "m_col")
    if two_j < 0 or abs(two_m) > two_j or (two_j - two_m) % 2:
        raise ValueError(f"invalid column index j={j}, m_col={m_col}")
    return _rotated_column(_factor(two_j), (two_m + two_j) // 2, beta)
