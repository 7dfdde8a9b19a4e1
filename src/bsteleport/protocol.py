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

import numpy as np

from .numerics import _factor
from .states import ResourceCoeffs, ResourceParams, TargetCoeffs, _resource

# outcomes with probability at or below this are treated as unobservable
DEFINED_MIN = 1e-15


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


def fidelity_given_q_double_sum(target: TargetCoeffs, resource: ResourceCoeffs, q: int) -> complex:
    """Conditional fidelity as the literal double sum, for cross-checking.

    Returned as complex so tests can confirm the imaginary part vanishes
    rather than having it silently discarded.
    """
    p = _observable(target, resource, q)[0]
    n_lo, n_hi = max(0, q - target.cutoff), min(q, resource.total)
    w = _abs2(target.coeffs)
    d = resource.coeffs
    acc = 0.0 + 0.0j
    for n in range(n_lo, n_hi + 1):
        for n2 in range(n_lo, n_hi + 1):
            acc += w[q - n] * w[q - n2] * d[n] * np.conj(d[n2])
    return acc / p


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


def outcome_distribution(target: TargetCoeffs, resource: ResourceCoeffs) -> OutcomeDistribution:
    """Full outcome distribution with conditional fidelities.

    Support runs over q = 0 .. cutoff + total; both arrays are built by
    direct convolution of the coefficient vectors.
    """
    w = _abs2(target.coeffs)
    d = resource.coeffs
    p = np.convolve(w, _abs2(d))
    s = np.convolve(w.astype(complex), d)
    f = np.full(len(p), np.nan)
    mask = p > DEFINED_MIN
    f[mask] = (s.real[mask] ** 2 + s.imag[mask] ** 2) / p[mask]
    return OutcomeDistribution(0, len(p) - 1, p, f)


def average_fidelity(target: TargetCoeffs, resource: ResourceCoeffs) -> float:
    """Outcome-averaged teleportation fidelity."""
    dist = outcome_distribution(target, resource)
    mask = dist.p > DEFINED_MIN
    return float(np.sum(dist.p[mask] * dist.f[mask]))


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


def _grid(total: int, beta_axis, m_axis, cell, label: str) -> FidelityGrid:
    """Evaluate cell(resource) at every (beta, m) of a grid at fixed total.

    The sector generator is factored once and every cell's resource is
    rotated from that factorization.  Rows whose m is incompatible with
    the total are reported with a warning and filled with NaN.
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

    factor = _factor(total)
    values = np.full((len(m_axis), len(beta_axis)), np.nan)
    for i, m in enumerate(m_axis):
        split = split_total(total, m)
        if split is None:
            warnings.warn(f"m={m:g} incompatible with total={total}; row marked invalid")
            continue
        for k, beta in enumerate(beta_axis):
            values[i, k] = cell(_resource(factor, ResourceParams(*split, float(beta))))
    return FidelityGrid(beta_axis, m_axis, values, total, label)


def fidelity_sweep(target: TargetCoeffs, total: int, beta_axis, m_axis) -> FidelityGrid:
    """Average fidelity over a (beta, m) grid at fixed total photon number.

    Grid cells whose m is incompatible with the total are reported with a
    warning and filled with NaN.
    """
    return _grid(total, beta_axis, m_axis, lambda res: average_fidelity(target, res), target.label)
