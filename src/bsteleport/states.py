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

from .numerics import _I_POW, _factor, _log_factorials, _rotated_column

DEFAULT_TAIL_TOL = 1e-12
_MAX_AUTO_CUTOFF = 4096
# longest weight range _tails evaluates, and the largest cutoff a builder takes:
# |alpha| up to about 2000
_MAX_TAIL_RANGE = 1 << 22


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


def _resource(factor: tuple[np.ndarray, np.ndarray], n_in: int, beta) -> np.ndarray:
    """Resource coefficients (last axis n, one row per beta) from the generator's factorization."""
    column = _rotated_column(factor, n_in, beta)
    n = np.arange(column.shape[-1])
    return _I_POW[(n_in - n) % 4] * column  # e^{-i(pi/2)(n - n_in)}


def resource_coeffs(params: ResourceParams) -> ResourceCoeffs:
    """Entangled-resource coefficient vector for the given inputs.

    The magnitude profile is the stable rotation column at j = total/2;
    the quarter-turn phases are applied exactly (no trig roundoff).
    """
    return ResourceCoeffs(params.total, _resource(_factor(params.total), params.n_in, params.beta))


def _tails(kind: str, a: float) -> np.ndarray:
    """Weight beyond each cutoff 0..n_max of the cat or coherent state |a|.

    The range n_max = lam + 12 sqrt(lam) + 40 depends only on lam = a^2,
    and the weight beyond it is below 1e-32 at every lam.  Each tail is
    summed from the far end of the range, so a small tail carries only
    relative rounding, and the builders and suggest_cutoff read identical
    tails for the same cutoff.
    """
    lam = a * a
    reach = lam + 12.0 * math.sqrt(lam) + 40.0
    if not reach <= _MAX_TAIL_RANGE:  # NaN and infinite amplitudes too
        raise TruncationError(
            f"|alpha|={a:g} is not finite or needs over {_MAX_TAIL_RANGE} number states")
    n_max = int(reach)
    tails = np.zeros(n_max + 1)
    if lam == 0.0:  # |a| below ~1e-162: no weight beyond the vacuum in double precision
        return tails
    m = np.arange(n_max + 1)
    weights = np.exp(-lam + m * math.log(lam) - _log_factorials(n_max))
    if kind == "cat":
        weights = weights * (2.0 / (1.0 + math.exp(-2.0 * lam)))
        weights[1::2] = 0.0
    tails[:-1] = np.cumsum(weights[:0:-1])[::-1]
    return tails


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    if cutoff > _MAX_TAIL_RANGE:
        raise ValueError(f"cutoff={cutoff} exceeds the largest supported cutoff {_MAX_TAIL_RANGE}")


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is NaN, infinite or negative; zero is valid."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance {tol} must be finite and non-negative")


def _poisson_family(kind: str, alpha, cutoff: int, tail_tol: float) -> TargetCoeffs:
    """Cat or coherent state of amplitude alpha, truncated and renormalized."""
    _check_cutoff(cutoff)
    _check_tol(tail_tol)
    alpha = complex(alpha)
    label = f"{kind}({alpha.real:g})" if alpha.imag == 0 else f"{kind}({alpha:g})"
    if alpha == 0:
        raw = np.zeros(cutoff + 1, dtype=complex)
        raw[0] = 1.0
        return TargetCoeffs(raw, label)
    a = abs(alpha)
    m = np.arange(cutoff + 1)
    log_mag = -0.5 * a * a + m * math.log(a) - 0.5 * _log_factorials(cutoff)
    if kind == "cat":
        arg = cmath.phase(alpha)
        norm = math.sqrt(2.0 + 2.0 * math.exp(-2.0 * a * a))
        raw = (2.0 / norm) * np.exp(log_mag + 1j * arg * m)
        raw[1::2] = 0.0
    else:
        raw = np.exp(log_mag + 1j * cmath.phase(alpha) * m)
    tails = _tails(kind, a)
    tail = tails[cutoff] if cutoff < len(tails) else 0.0
    if tail > tail_tol:
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
    return _poisson_family("cat", alpha, cutoff, tail_tol)


def coherent_coeffs(alpha, cutoff: int, tail_tol: float = DEFAULT_TAIL_TOL) -> TargetCoeffs:
    """Coherent state |alpha> in the truncated number basis."""
    return _poisson_family("coherent", alpha, cutoff, tail_tol)


def fock_coeffs(k: int, cutoff: int) -> TargetCoeffs:
    """Single number state |k>."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > cutoff:
        raise ValueError(f"k={k} exceeds cutoff={cutoff}")
    _check_cutoff(cutoff)
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
    _check_tol(tol)
    a = abs(complex(alpha))
    if a == 0:
        return 0
    hits = np.nonzero(_tails(kind, a)[: _MAX_AUTO_CUTOFF + 1] <= tol)[0]
    if len(hits) == 0:
        raise TruncationError(f"no cutoff up to {_MAX_AUTO_CUTOFF} reaches tail {tol:.1e}")
    return int(hits[0])
