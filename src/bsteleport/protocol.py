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

from . import numerics
from .numerics import _check_budget, _check_integer, _factor_bytes, _trig
from .states import ResourceCoeffs, ResourceParams, TargetCoeffs

# conditional quantities are undefined for outcomes of probability at or below this
DEFINED_MIN = 1e-15
# bytes of rotation and reduction work in one chunk of a row's beta samples; the
# phase map's full-FFT route ran ~1.7x slower as one 101-beta chunk than in chunks
# this size (30 betas at total 100, K = 4096; 2 cores, one BLAS thread)
_CHUNK_BYTES = 21 << 17  # 2.625 MiB
# bytes _mirror_pairs holds per beta sample at most: the sort's order and sorted copy,
# and for each beta above pi/2 its mirror angle, a shifted copy and its partner's
# position (tracemalloc saw 29.5 with half the axis above pi/2, 40 with all of it);
# what the grid keeps of it, and each row's copy, take at most 24
_MIRROR_BYTES = 40
# a beta above pi/2 is computed at an axis entry this close to pi - beta: on the CLI
# axes pi k / (N + 1), pi - beta_k is beta_{N+1-k} to within spacing(pi)
_MIRROR_TOL = 2 * np.spacing(np.pi)
_KERNEL_BLOCK = 128  # rows of A's band, and modes, per block of the sweep's kernel build


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
    _check_integer("q", q)
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


def _convolved(target: TargetCoeffs, *parts: np.ndarray) -> np.ndarray:
    """Each part (real, n last) convolved with the target weights, stacked along a new first axis.

    The parts are laid end to end, each followed by cutoff zeros, so one
    np.convolve serves them all without one reaching into the next.  Points
    take this route; it shares no algebra with the sweep's quadratic form
    in the factor's modes (_sweep_route), which tests check against it.
    """
    w = _abs2(target.coeffs)
    x = np.zeros((len(parts),) + parts[0].shape[:-1] + (len(w) + parts[0].shape[-1] - 1,))
    x[..., : parts[0].shape[-1]] = parts
    return np.convolve(w, x.ravel())[: x.size].reshape(x.shape)


def _outcomes(target: TargetCoeffs, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, p f) over q for coefficients d with n last: target weights convolved with |d|^2, Re d, Im d."""
    p, re, im = _convolved(target, _abs2(d), d.real, d.imag)
    return p, re**2 + im**2


def _sweep_kernel(lags: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v^T A v for the banded Toeplitz A[i, i'] = lags[|i - i'|], zero past the last lag.

    A v is taken in blocks of _KERNEL_BLOCK rows, each one product of a slab of A's band with
    the rows of v it reaches, and of as many modes, so one block of A v is held beside v^T A v.
    """
    n, s, b = len(v), min(_KERNEL_BLOCK, max(len(v), 1)), min(len(lags), max(len(v), 1)) - 1
    t = np.concatenate([lags[:b + 1], np.zeros(s - 1)])
    band = t[np.abs(np.arange(s)[:, None] + b - np.arange(s + 2 * b))]  # A[r + i, r - b + j] for every r
    out = np.empty((v.shape[1],) * 2)
    for c in range(0, v.shape[1], s):
        av = np.empty((n, min(s, v.shape[1] - c)))
        for r in range(0, n, s):
            lo, hi = max(0, r - b), min(n, r + s + b)
            av[r:r + s] = band[:min(s, n - r), lo - r + b:hi - r + b] @ v[lo:hi, c:c + s]
        out[c:c + s] = av.T @ v
    return out


def _sweep_route(target: TargetCoeffs, total: int):
    """The sweep's reducer of a grid row at total, and its bytes as _beta_chunk reads them.

    A cell is c^T M c for the row's rotation column c, M[n, n'] = a(n - n') cos(pi (n - n') / 2)
    with a the autocorrelation of the target weights (TestMirror in tests/test_protocol.py).
    M's odd lags vanish, and on the levels of one parity p the column's alternating
    i^(n - n_in) signs cancel the cosine, leaving the Toeplitz A_p[i, i'] = a(2 (i - i')).
    Those of n_in's parity p are (cos(beta w) a) v_p^T for a = v[n_in] of _factor, the others
    q (sin(beta w) a) v_q^T, so a cell is x K_p x + y K_q y with x = cos(beta w) a,
    y = sin(beta w) a and K_p = v_p^T A_p v_p, both built at the first row.
    """
    _check_integer("total", total)
    modes, k_max = total // 2 + 1, min(total + 1, len(target.coeffs)) - 1
    kernels = []

    def reduce_row(factor, n_in, trig):
        v, p = factor[1], n_in % 2
        if not kernels:
            w = _abs2(target.coeffs)
            # a(k) for k = 0..k_max only, in O(len(w) k_max): a cutoff may be in the millions
            lags = np.correlate(np.concatenate([w, np.zeros(k_max)]), w, "valid")[::2]
            kernels.extend(_sweep_kernel(lags, v[q::2]) for q in (0, 1))
        x, y = trig[1] * v[n_in], trig[2] * v[n_in]
        return np.einsum("bi,bi->b", x @ kernels[p], x) + np.einsum("bi,bi->b", y @ kernels[1 - p], y)

    # per beta: the chunk's angles, cosine and sine, x, y, one product with a kernel and the
    # cells.  Once: both kernels; while they are built, the weights and their lags, one band
    # slab with its indices, and one block of A v with its product
    block = min(_KERNEL_BLOCK, modes)
    slab = block * (block + 2 * min(k_max // 2, modes - 1))
    build = 16 * modes**2 + 16 * len(target.coeffs) + 24 * k_max + 24 * slab + 16 * block * modes
    return reduce_row, (48 * modes + 16, 0, build)


def outcome_distribution(target: TargetCoeffs, resource: ResourceCoeffs) -> OutcomeDistribution:
    """Full outcome distribution with conditional fidelities.

    Support runs over q = 0 .. cutoff + total; both arrays come from one
    convolution of the target weights with the resource coefficients.
    """
    p, pf = _outcomes(target, resource.coeffs)
    mask = p > DEFINED_MIN
    return OutcomeDistribution(0, len(p) - 1, p, np.where(mask, pf / np.where(mask, p, 1.0), np.nan))


def average_fidelity(target: TargetCoeffs, resource: ResourceCoeffs) -> float:
    """Outcome-averaged teleportation fidelity: p f summed over every outcome q.

    p f is formed without dividing by p and by Cauchy-Schwarz p f <= p, so no
    outcome is dropped, and p itself is never formed.
    """
    d = resource.coeffs
    re, im = _convolved(target, d.real, d.imag)
    return float((re**2 + im**2).sum())


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
    doubled = 2.0 * float(m)  # a Python float: infinite above about 9e307, with no numpy warning
    if not math.isfinite(doubled):
        return None
    two_m = round(doubled)
    if abs(doubled - two_m) > 1e-9:
        return None
    if (total + two_m) % 2 != 0:
        return None
    n_in = (total + two_m) // 2
    if n_in < 0 or n_in > total:
        return None
    return n_in, total - n_in


def _beta_chunk(total: int, n_beta: int, n_m: int, reduce_bytes: tuple[int, int, int],
                n_computed: int | None = None, kept=None) -> int:
    """Beta samples per chunk of a grid row, refusing a grid over MAX_GRID_BYTES before allocating.

    reduce_bytes: what a row's reduction holds per beta sample (the chunk's _trig included),
    once per chunk, and once per grid for what it builds.  The need is the factor unless kept
    (from _kept) holds it, the output and the mirror's pairing over all n_beta samples, the build
    and a chunk of the n_computed samples computed (_mirror_pairs; by default all).  A chunk
    fills _CHUNK_BYTES or, if less, what the limit leaves, one sample at least, so the axis
    lengths alone decide a refusal: n_computed=0 only refuses, passing no need otherwise.
    """
    _check_integer("total", total)
    per_beta, per_chunk, build = reduce_bytes
    factor = 0 if kept is not None else _factor_bytes(total)  # a call counts the factor it builds
    fixed = factor + (8 * n_m + _MIRROR_BYTES) * n_beta + per_chunk + build
    # per_chunk counts against _CHUNK_BYTES, as an operand every product reads (the phase map's
    # fine table) must stay in cache beside the chunk; a build, held once, does not
    room = min(_CHUNK_BYTES - per_chunk, numerics.MAX_GRID_BYTES - fixed)  # the limit as set at call time
    chunk = max(1, min(n_beta if n_computed is None else n_computed, room // per_beta))
    if n_computed != 0 or fixed + per_beta > numerics.MAX_GRID_BYTES:
        _check_budget(fixed + chunk * per_beta, f"a grid of {n_beta} beta samples by {n_m} m rows at total {total} needs")
    return chunk


def _mirror_pairs(beta_axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(computed, paired, partner): indices of the betas a grid computes, in axis order, and of each other beta and its partner.

    A beta above pi/2 is paired with an axis entry beta' <= pi/2 where
    |(pi - beta) - beta'| <= _MIRROR_TOL; pi - beta is exact there (Sterbenz).
    """
    order = np.argsort(beta_axis, kind="stable")
    ascending = beta_axis[order]
    n_low = np.searchsorted(ascending, np.pi / 2, "right")
    mirror = np.pi - ascending[n_low:]
    pos = np.searchsorted(ascending, mirror - _MIRROR_TOL)  # the first beta not below the tolerance
    mirror -= ascending[pos]  # a partner lies within the tolerance above, and below pi/2
    found = (pos < n_low) & (mirror >= -_MIRROR_TOL)
    del ascending, mirror  # freed before the index arrays are built, as _MIRROR_BYTES counts
    paired = order[n_low:][found]
    computed = np.ones(len(beta_axis), bool)
    computed[paired] = False
    return np.flatnonzero(computed), paired, order[pos[found]]


# (total, factor) of the last grid whose factor takes at most _CHUNK_BYTES (totals up to 797),
# its arrays read-only: the next sweep or map at that total builds none (_grid_factor)
_kept_factor = None


def _kept(total: int):
    """The kept grid factor if it is total's, else None."""
    kept = _kept_factor
    return kept[1] if kept is not None and kept[0] == total else None


def _grid_factor(total: int) -> tuple[np.ndarray, np.ndarray]:
    """numerics._factor(total), kept read-only for the next grid at this total while it takes at most _CHUNK_BYTES."""
    global _kept_factor
    _kept_factor = None  # emptied before the build, so a call never holds two factors
    factor = numerics._factor(total)
    if _factor_bytes(total) <= _CHUNK_BYTES:
        for part in factor:
            part.setflags(write=False)
        _kept_factor = total, factor
    return factor


def _grid(total: int, beta_axis, m_axis, reduce_row, reduce_bytes: tuple[int, int, int], label: str) -> FidelityGrid:
    """One value per (m, beta) at fixed total, from one factor of the sector generator (kept, or _grid_factor).

    The beta axis is taken in chunks, each with one _trig of its angles, and
    reduce_row(factor, n_in, trig) gives one value per beta for each compatible
    m row of input n_in, holding reduce_bytes (see _beta_chunk, checked before
    anything is allocated).  Other rows warn and stay NaN.

    reduce_row's values must not change under beta -> pi - beta: the
    reflection d^j_{m'm}(pi - beta) = (-1)^{j+m'} d^j_{m',-m}(beta) reverses
    the rotation column, and both products keep it (TestMirror in
    tests/test_phase.py and tests/test_protocol.py).  So a beta above pi/2
    whose mirror is on the axis (_mirror_pairs) is not reduced: its cells are
    copied from its partner's.
    """
    beta_axis = np.asarray(beta_axis, dtype=float)
    m_axis = np.asarray(m_axis, dtype=float)
    if len(beta_axis) == 0 or len(m_axis) == 0:
        raise ValueError("axes must be non-empty")
    if not (np.all(np.isfinite(beta_axis)) and np.all(np.isfinite(m_axis))):
        raise ValueError("axes must be finite")
    if np.any(beta_axis < 0.0) or np.any(beta_axis > np.pi):
        raise ValueError("beta axis must lie in [0, pi]")
    n_beta, n_m = len(beta_axis), len(m_axis)
    kept = _kept(total)  # read once, so the need counts the factor the grid then uses
    _beta_chunk(total, n_beta, n_m, reduce_bytes, 0, kept)  # a refusal, before the pairing is made
    computed, paired, partner = _mirror_pairs(beta_axis)
    chunk = _beta_chunk(total, n_beta, n_m, reduce_bytes, len(computed), kept)

    factor = kept if kept is not None else _grid_factor(total)
    values = np.full((n_m, n_beta), np.nan)
    rows = []
    for i, m in enumerate(m_axis):
        split = split_total(total, m)
        if split is None:
            warnings.warn(f"m={m:g} incompatible with total={total}; row marked invalid")
        else:
            rows.append((i, split[0]))
    for k in range(0, len(computed), chunk):
        cols = computed[k:k + chunk]
        trig = _trig(factor, beta_axis[cols])  # one cosine and sine for every row
        for i, n_in in rows:
            values[i, cols] = reduce_row(factor, n_in, trig)
    for i, _ in rows:  # row by row, so the copy holds at most one row's partners
        values[i, paired] = values[i, partner]
    return FidelityGrid(beta_axis, m_axis, values, total, label)


def fidelity_sweep(target: TargetCoeffs, total: int, beta_axis, m_axis) -> FidelityGrid:
    """Average fidelity over a (beta, m) grid at fixed total photon number.

    Each cell sums p f over every outcome, as average_fidelity does, but
    reads it as a quadratic form in the modes of the grid's factor, with two
    kernels built once per sweep (_sweep_route); cells whose m is
    incompatible with the total are reported with a warning and filled with NaN.
    """
    return _grid(total, beta_axis, m_axis, *_sweep_route(target, total), target.label)


def check_sweep_size(target: TargetCoeffs, total: int, n_beta: int, n_m: int) -> None:
    """Raise ValueError if fidelity_sweep over axes of these lengths would exceed MAX_GRID_BYTES."""
    _beta_chunk(total, n_beta, n_m, _sweep_route(target, total)[1], kept=_kept(total))
