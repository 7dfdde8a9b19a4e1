"""Independent brute-force routes for checking the fast implementations.

Everything here recomputes results from the defining linear algebra: the
resource coefficients from the exponential of the sector Hamiltonian, and
the protocol statistics from the explicit three-mode state vector with
projection, relabeling and correction carried out literally.  These
routes are deliberately slow and size-capped; they exist only to certify
the closed-form code paths against an implementation that shares none of
their algebra.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .protocol import DEFINED_MIN, OutputState, UndefinedOutcomeError
from .states import ResourceParams, TargetCoeffs, _check_tol, resource_coeffs

MAX_VERIFY_TOTAL = 60
MAX_BRUTE_TOTAL = 8
MAX_BRUTE_CUTOFF = 8


class SizeLimitError(ValueError):
    """Problem too large for the brute-force route."""


def _couplings(total: int) -> np.ndarray:
    """Off-diagonal entries of the beam-splitter generator on the sector of fixed total.

    The sector basis is |n, total - n> for n = 0..total; the generator is
    real symmetric tridiagonal with zero diagonal.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    n = np.arange(total, dtype=float)
    return 0.5 * np.sqrt((n + 1.0) * (total - n))


def sector_unitary(total: int, beta: float) -> np.ndarray:
    """Full sector matrix exp(i beta H) by Pade exponentiation of a real matrix.

    expm([[0, -B], [B, 0]]) with B = beta H is [[cos B, -sin B], [sin B, cos B]],
    so its left column block gives cos B + i sin B in real arithmetic.
    """
    off = _couplings(total)
    b = beta * (np.diag(off, 1) + np.diag(off, -1))
    block = expm(np.block([[np.zeros_like(b), -b], [b, np.zeros_like(b)]]))
    return block[: total + 1, : total + 1] + 1j * block[total + 1 :, : total + 1]


def sector_unitary_column(params: ResourceParams) -> np.ndarray:
    """Column of exp(i beta H) selected by the input photon pair."""
    return sector_unitary(params.total, params.beta)[:, params.n_in]


@dataclass(frozen=True)
class ResourceCheck:
    """Comparison of the closed-form resource against the unitary column."""

    params: ResourceParams
    overlap_modulus: float
    max_deviation: float
    residual_phase: float
    passed: bool


def verify_resource(params: ResourceParams, tol: float = 1e-10) -> ResourceCheck:
    """Check the closed-form coefficients against exp(i beta H).

    Passes when the unit-vector overlap modulus is within tol of one.  The
    residual phase records any global-phase difference between the routes;
    max_deviation is entrywise after removing that phase.
    """
    _check_tol(tol)
    if params.total > MAX_VERIFY_TOTAL:
        raise SizeLimitError(f"total={params.total} exceeds {MAX_VERIFY_TOTAL}")
    column = sector_unitary_column(params)
    coeffs = resource_coeffs(params).coeffs
    overlap = complex(np.vdot(column, coeffs))
    modulus = abs(overlap)
    phase = overlap / modulus if modulus > 0 else 1.0 + 0.0j
    deviation = float(np.max(np.abs(coeffs * np.conj(phase) - column)))
    return ResourceCheck(
        params=params,
        overlap_modulus=modulus,
        max_deviation=deviation,
        residual_phase=cmath.phase(phase),
        passed=bool(1.0 - modulus < tol),
    )


def protocol_brute_force(
    target: TargetCoeffs,
    params: ResourceParams,
    q: int,
    phi_minus: float = 0.0,
) -> tuple[float, OutputState]:
    """Outcome probability and corrected state from the explicit state vector.

    Builds the full three-mode pure state, applies the measurement
    projection for (q, phi_minus) as a literal sum over basis kets,
    relabels the receiver mode against the broadcast q, and applies the
    phase correction.  Returns (probability, corrected state).
    """
    if target.cutoff > MAX_BRUTE_CUTOFF:
        raise SizeLimitError(f"cutoff={target.cutoff} exceeds {MAX_BRUTE_CUTOFF}")
    if params.total > MAX_BRUTE_TOTAL:
        raise SizeLimitError(f"total={params.total} exceeds {MAX_BRUTE_TOTAL}")
    if q < 0:
        raise ValueError("q must be non-negative")

    c = target.coeffs
    d = resource_coeffs(params).coeffs
    total = params.total

    # joint state on |w>_target |n>_sender |total - n>_receiver
    psi = np.zeros((target.cutoff + 1, total + 1, total + 1), dtype=complex)
    for w in range(target.cutoff + 1):
        for n in range(total + 1):
            psi[w, n, total - n] = c[w] * d[n]

    # unnormalized receiver vector after projecting the sender's modes
    # onto the (q, phi_minus) measurement ket
    b = np.zeros(total + 1, dtype=complex)
    for w in range(target.cutoff + 1):
        n = q - w
        if 0 <= n <= total:
            b += cmath.exp(2j * w * phi_minus) * psi[w, n, :]
    p = float(np.vdot(b, b).real)
    if p <= DEFINED_MIN:
        raise UndefinedOutcomeError(f"outcome q={q} has probability {p:.3e}")

    # reorder receiver amplitudes so entry n is the component paired with
    # n photons on the sender side, then apply the phase correction
    n_hi = min(q, total)
    v = np.array([b[total - n] for n in range(n_hi + 1)], dtype=complex)
    v *= np.exp(2j * phi_minus * np.arange(n_hi + 1))
    return p, OutputState(q, n_hi + 1, np.outer(v, np.conj(v)) / p)
