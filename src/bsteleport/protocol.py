"""Measurement statistics and teleportation fidelity for the protocol.

The sender jointly measures the total photon number q and the phase
difference of her two modes; the receiver applies a phase correction
conditioned on the broadcast result.  The phase-difference value cancels
against the correction, so every statistic here depends only on q: the
outcome probability is a convolution of photon-number weights and the
conditional fidelity is a weighted coherent sum over the resource
coefficients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numerics import _check_budget, _factor
from .states import ResourceCoeffs, ResourceParams, TargetCoeffs, _resource

# outcomes with probability at or below this are treated as unobservable
DEFINED_MIN = 1e-15
# bytes of rotation and reduction work in one chunk of a row's beta samples; the
# phase map's FFT blocks ran ~1.7x slower as one 101-beta chunk than in chunks this size
_CHUNK_BYTES = 1 << 23


class UndefinedOutcomeError(ValueError):
    """Conditional quantities requested for an outcome of zero probability."""


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Distribution of the total-photon-number outcome q.

    p[q] is the outcome probability and f[q] the conditional teleportation
    fidelity; f is NaN wherever p does not exceed DEFINED_MIN.
    """

    q_min: int
    q_max: int
    p: np.ndarray
    f: np.ndarray


@dataclass(frozen=True, eq=False)
class OutputState:
    """Receiver's corrected state for one measurement outcome."""

    q: int
    dim: int
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class FidelityGrid:
    """Scalar field sampled on a (beta, m) grid; rows follow m_axis."""

    beta_axis: np.ndarray
    m_axis: np.ndarray
    values: np.ndarray
    total: int
    label: str


def _abs2(z: np.ndarray) -> np.ndarray:
    # squared modulus as re^2 + im^2, so single-term ratios cancel exactly
    z = np.asarray(z)
    return z.real**2 + z.imag**2


def _outcome(target: TargetCoeffs, resource: ResourceCoeffs, q: int) -> tuple[float, float]:
    """(p[q], f[q]) from outcome_distribution; beyond its support p is 0."""
    if q < 0:
        raise ValueError("q must be non-negative")
    dist = outcome_distribution(target, resource)
    if q > dist.q_max:
        return 0.0, math.nan
    return float(dist.p[q]), float(dist.f[q])


def _observable(target: TargetCoeffs, resource: ResourceCoeffs, q: int) -> tuple[float, float]:
    """(p[q], f[q]), refusing an outcome whose probability is at most DEFINED_MIN."""
    p, f = _outcome(target, resource, q)
    if p <= DEFINED_MIN:
        raise UndefinedOutcomeError(f"outcome q={q} has probability {p:.3e}")
    return p, f


def number_sum_prob(target: TargetCoeffs, resource: ResourceCoeffs, q: int) -> float:
    """Probability of measuring total photon number q."""
    return _outcome(target, resource, q)[0]


def fidelity_given_q(target: TargetCoeffs, resource: ResourceCoeffs, q: int) -> float:
    """Teleportation fidelity conditioned on outcome q."""
    return _observable(target, resource, q)[1]


def output_state(
    target: TargetCoeffs,
    resource: ResourceCoeffs,
    q: int,
    phi_minus: float = 0.0,
) -> OutputState:
    """Receiver's state after the correction for outcome (q, phi_minus).

    The measurement imprints e^{-2i(n - n')phi_minus} on the conditional
    state and the correction applies its inverse, so the entries are
    independent of phi_minus; the argument is accepted to document that
    cancellation at the interface.
    """
    del phi_minus
    p = _observable(target, resource, q)[0]
    n_hi = min(q, resource.total)
    amp = np.zeros(n_hi + 1, dtype=complex)
    n_lo = max(0, q - target.cutoff)
    n = np.arange(n_lo, n_hi + 1)
    amp[n] = target.coeffs[q - n] * resource.coeffs[n]
    return OutputState(q, n_hi + 1, np.outer(amp, np.conj(amp)) / p)


def _outcomes(target: TargetCoeffs, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, p f) over q for coefficients d with n last: target weights convolved with |d|^2, Re d, Im d.

    The sequences are laid end to end, each followed by cutoff zeros, so one
    np.convolve serves them all without one reaching into the next; no
    Toeplitz matrix is built.
    """
    w = _abs2(target.coeffs)
    x = np.zeros((3,) + d.shape[:-1] + (len(w) + d.shape[-1] - 1,))
    x[..., : d.shape[-1]] = _abs2(d), d.real, d.imag
    out = np.convolve(w, x.ravel())[: x.size].reshape(x.shape)
    return out[0], out[1] ** 2 + out[2] ** 2


def _average(target: TargetCoeffs, d: np.ndarray) -> np.ndarray:
    """Average fidelity for resource coefficients d, one value per leading index."""
    p, pf = _outcomes(target, d)
    return np.where(p > DEFINED_MIN, pf, 0.0).sum(axis=-1)


def outcome_distribution(target: TargetCoeffs, resource: ResourceCoeffs) -> OutcomeDistribution:
    """Full outcome distribution with conditional fidelities.

    Support runs over q = 0 .. cutoff + total; both arrays come from one
    banded product of the target weights with the resource coefficients.
    """
    p, pf = _outcomes(target, resource.coeffs)
    mask = p > DEFINED_MIN
    return OutcomeDistribution(0, len(p) - 1, p, np.where(mask, pf / np.where(mask, p, 1.0), np.nan))


def average_fidelity(target: TargetCoeffs, resource: ResourceCoeffs) -> float:
    """Outcome-averaged teleportation fidelity."""
    return float(_average(target, resource.coeffs))


def classical_baseline(target: TargetCoeffs, params: ResourceParams | None = None) -> float:
    """Average fidelity when the resource carries no entanglement.

    Equals the purity of the dephased target, sum_m |c_m|^4; independent
    of the resource parameters, which are accepted only for symmetry with
    the other signatures.
    """
    del params
    w = _abs2(target.coeffs)
    return float(np.sum(w * w))


def split_total(total: int, m: float) -> tuple[int, int] | None:
    """Input pair (n_in, m_in) with n_in + m_in = total, (n_in - m_in)/2 = m.

    Returns None when m is not half of an integer of the right parity or
    lies outside the sector.
    """
    if not math.isfinite(m):
        return None
    two_m = round(2.0 * m)
    if abs(2.0 * m - two_m) > 1e-9:
        return None
    if (total + two_m) % 2 != 0:
        return None
    n_in = (total + two_m) // 2
    if n_in < 0 or n_in > total:
        return None
    return n_in, total - n_in


def _beta_chunk(total: int, n_beta: int, n_m: int, length: int) -> int:
    """Beta samples per chunk of a grid row, refusing a grid over MAX_GRID_BYTES before allocating.

    length is the row reduction's other axis: the target's length or the phase grid.
    """
    dim = total + 1
    per_beta = 64 * (2 * dim + length)  # rotation, resource and reduction blocks, with temporaries
    chunk = max(1, min(n_beta, _CHUNK_BYTES // per_beta))
    _check_budget(8 * (dim * (dim + 1) + n_beta * n_m) + chunk * per_beta,
                  f"a grid of {n_beta} beta samples by {n_m} m rows at total {total} needs")
    return chunk


def _grid(total: int, beta_axis, m_axis, reduce_row, length: int, label: str) -> FidelityGrid:
    """One value per (m, beta) at fixed total, from one factor of the sector generator.

    Each compatible m row is rotated as resource blocks over chunks of the beta
    axis and reduce_row turns a block into one value per beta; other rows warn
    and stay NaN.
    """
    beta_axis = np.asarray(beta_axis, dtype=float)
    m_axis = np.asarray(m_axis, dtype=float)
    if len(beta_axis) == 0 or len(m_axis) == 0:
        raise ValueError("axes must be non-empty")
    if not (np.all(np.isfinite(beta_axis)) and np.all(np.isfinite(m_axis))):
        raise ValueError("axes must be finite")
    if np.any(beta_axis < 0.0) or np.any(beta_axis > np.pi):
        raise ValueError("beta axis must lie in [0, pi]")
    if total < 0:
        raise ValueError("total must be non-negative")
    chunk = _beta_chunk(total, len(beta_axis), len(m_axis), length)

    factor = _factor(total)
    values = np.full((len(m_axis), len(beta_axis)), np.nan)
    for i, m in enumerate(m_axis):
        split = split_total(total, m)
        if split is None:
            warnings.warn(f"m={m:g} incompatible with total={total}; row marked invalid")
            continue
        for k in range(0, len(beta_axis), chunk):
            values[i, k:k + chunk] = reduce_row(_resource(factor, split[0], beta_axis[k:k + chunk]))
    return FidelityGrid(beta_axis, m_axis, values, total, label)


def fidelity_sweep(target: TargetCoeffs, total: int, beta_axis, m_axis) -> FidelityGrid:
    """Average fidelity over a (beta, m) grid at fixed total photon number.

    Grid cells whose m is incompatible with the total are reported with a
    warning and filled with NaN.
    """
    return _grid(total, beta_axis, m_axis, partial(_average, target), len(target.coeffs), target.label)


def check_sweep_size(target: TargetCoeffs, total: int, n_beta: int, n_m: int) -> None:
    """Raise ValueError if fidelity_sweep over axes of these lengths would exceed MAX_GRID_BYTES."""
    _beta_chunk(total, n_beta, n_m, len(target.coeffs))
