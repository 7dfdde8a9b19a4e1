"""Target-state coefficient vectors and the entangled resource coefficients.

The resource is produced by two Fock states meeting at a beam splitter of
transmissivity angle beta; on the fixed total-photon sector its
coefficients are a rotation-matrix column dressed with exact quarter-turn
unit phases.  Target builders cover Fock, coherent and even-cat states in
a truncated, renormalized number basis.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import _I_POW, _factor, _rotated_column, _shared_table

DEFAULT_TAIL_TOL = 1e-12
_MAX_AUTO_CUTOFF = 4096


class TruncationError(ValueError):
    """Requested cutoff leaves more probability in the tail than allowed."""


@dataclass(frozen=True)
class ResourceParams:
    """Beam-splitter inputs: photon counts for the two modes and the angle."""

    n_in: int
    m_in: int
    beta: float

    def __post_init__(self):
        if not all(isinstance(c, numbers.Integral) for c in (self.n_in, self.m_in)):
            raise ValueError("photon counts must be integers")
        if self.n_in < 0 or self.m_in < 0:
            raise ValueError("photon counts must be non-negative")
        if not 0.0 <= self.beta <= math.pi:
            raise ValueError(f"beta={self.beta} outside [0, pi]")

    @property
    def total(self) -> int:
        return self.n_in + self.m_in

    @property
    def j(self) -> float:
        return self.total / 2

    @property
    def m(self) -> float:
        """Half the input photon-number difference; half-integer for odd totals."""
        return (self.n_in - self.m_in) / 2


@dataclass(frozen=True, eq=False)
class ResourceCoeffs:
    """Coefficients of the two-mode resource on the fixed-total sector.

    coeffs[n] multiplies |n> on the sender side paired with |total - n>
    on the receiver side.
    """

    total: int
    coeffs: np.ndarray


@dataclass(frozen=True, eq=False)
class TargetCoeffs:
    """Number-basis coefficients of the state to teleport."""

    coeffs: np.ndarray
    label: str

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1


def _resource(factor: tuple[np.ndarray, np.ndarray], params: ResourceParams) -> ResourceCoeffs:
    """Resource coefficients from the factorization of the sector generator."""
    column = _rotated_column(factor, params.n_in, params.beta)
    n = np.arange(params.total + 1)
    phase = _I_POW[(params.n_in - n) % 4]  # e^{-i(pi/2)(n - n_in)}
    return ResourceCoeffs(params.total, phase * column)


def resource_coeffs(params: ResourceParams) -> ResourceCoeffs:
    """Entangled-resource coefficient vector for the given inputs.

    The magnitude profile is the stable rotation column at j = total/2;
    the quarter-turn phases are applied exactly (no trig roundoff).
    """
    return _resource(_factor(params.total), params)


def _log_factorials(n_max: int) -> np.ndarray:
    return _shared_table(n_max).values[: n_max + 1]


def _tails(kind: str, a: float, n_max: int) -> np.ndarray:
    """Weight beyond each cutoff 0..n_max of the cat or coherent state |a|.

    Entry c depends only on the weights up to c, so the builders and
    suggest_cutoff read identical tails for the same cutoff.
    """
    lam = a * a
    if lam == 0.0:  # |a| below ~1e-162: no weight beyond the vacuum in double precision
        return np.zeros(n_max + 1)
    m = np.arange(n_max + 1)
    weights = np.exp(-lam + m * math.log(lam) - _log_factorials(n_max))
    if kind == "cat":
        weights = weights * (2.0 / (1.0 + math.exp(-2.0 * lam)))
        weights[1::2] = 0.0
    return 1.0 - np.cumsum(weights)


def _truncated(raw: np.ndarray, tail: float, tail_tol: float, label: str) -> TargetCoeffs:
    """Renormalize a truncated coefficient vector after checking its dropped tail."""
    if not tail <= tail_tol:  # a NaN tail is refused too
        raise TruncationError(
            f"{label}: truncated tail {tail:.3e} exceeds tolerance {tail_tol:.1e}; "
            "increase the cutoff"
        )
    kept = float(np.sum(np.abs(raw) ** 2))
    return TargetCoeffs(raw / math.sqrt(kept), label)


def cat_coeffs(alpha, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL) -> TargetCoeffs:
    """Even superposition of |alpha> and |-alpha>, truncated and renormalized.

    Odd-number entries are exactly zero.  Raises TruncationError when the
    probability beyond the cutoff exceeds tail_tol.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    alpha = complex(alpha)
    label = f"cat({alpha.real:g})" if alpha.imag == 0 else f"cat({alpha:g})"
    if alpha == 0:
        raw = np.zeros(cutoff + 1, dtype=complex)
        raw[0] = 1.0
        return TargetCoeffs(raw, label)
    a = abs(alpha)
    m = np.arange(cutoff + 1)
    log_mag = -0.5 * a * a + m * math.log(a) - 0.5 * _log_factorials(cutoff)
    arg = cmath.phase(alpha)
    norm = math.sqrt(2.0 + 2.0 * math.exp(-2.0 * a * a))
    raw = (2.0 / norm) * np.exp(log_mag + 1j * arg * m)
    raw[1::2] = 0.0
    return _truncated(raw, _tails("cat", a, cutoff)[-1], tail_tol, label)


def coherent_coeffs(alpha, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL) -> TargetCoeffs:
    """Coherent state |alpha> in the truncated number basis."""
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    alpha = complex(alpha)
    label = f"coherent({alpha.real:g})" if alpha.imag == 0 else f"coherent({alpha:g})"
    if alpha == 0:
        raw = np.zeros(cutoff + 1, dtype=complex)
        raw[0] = 1.0
        return TargetCoeffs(raw, label)
    a = abs(alpha)
    m = np.arange(cutoff + 1)
    log_mag = -0.5 * a * a + m * math.log(a) - 0.5 * _log_factorials(cutoff)
    raw = np.exp(log_mag + 1j * cmath.phase(alpha) * m)
    return _truncated(raw, _tails("coherent", a, cutoff)[-1], tail_tol, label)


def fock_coeffs(k: int, cutoff: int) -> TargetCoeffs:
    """Single number state |k>."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > cutoff:
        raise ValueError(f"k={k} exceeds cutoff={cutoff}")
    raw = np.zeros(cutoff + 1, dtype=complex)
    raw[k] = 1.0
    return TargetCoeffs(raw, f"fock({k})")


def suggest_cutoff(alpha, kind: str = "cat", tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest cutoff whose truncation tail stays below tol.

    kind is "cat" or "coherent"; the tail is evaluated from the analytic
    photon-number weights of the requested state, exactly as the builder
    checks it, so the suggested cutoff is always accepted.
    """
    if kind not in ("cat", "coherent"):
        raise ValueError(f"unknown state kind {kind!r}")
    a = abs(complex(alpha))
    if a == 0:
        return 0
    hits = np.nonzero(_tails(kind, a, _MAX_AUTO_CUTOFF) <= tol)[0]
    if len(hits) == 0:
        raise TruncationError(f"no cutoff up to {_MAX_AUTO_CUTOFF} reaches tail {tol:.1e}")
    return int(hits[0])
