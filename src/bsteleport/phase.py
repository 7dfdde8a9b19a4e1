"""Phase-difference statistics of the entangled resource.

The splitter advances each transferred photon's phase by a fixed quarter
turn, so the resource coefficients carry an i^n twist on top of a real
rotation profile.  Phase readings here are referenced to the frame with
that twist removed, where the coefficient sequence is real up to a
global phase; for balanced inputs the profile is then symmetric about
pi/2 and peaks there at a balanced splitter.  The joint probability of
a reading is the squared modulus of the Fourier series of the twisted
coefficients, so sampling it on a uniform grid of K points is one DFT.

Point readings take the complex inverse FFT of any coefficients.  The
map's twisted coefficients are a real rotation column times i^{n_in}, so
its profile P(k) = P(K - k) has its first maximum in k = 0..K/2.  The map
finds it from a coarse FFT and a curvature bound (_bounded_argmax) where
K has a divisor Kc >= 2D - 1 for D levels at a stride S = K / Kc of at
least 8 (_coarse_length), else from one real FFT of length K.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import protocol
from .numerics import _I_POW, _check_budget, _check_integer, _fft_bytes, _folded, _rotate, _rotation_bytes
from .protocol import FidelityGrid, _beta_chunk, _grid
from .states import ResourceCoeffs, ResourceParams, resource_coeffs

DEFAULT_PHASE_GRID = 4096
MIN_PHASE_GRID = 16
# relative slack when locating the argmax, so flat profiles with float
# dust still resolve to their first grid point
_ARGMAX_RTOL = 1e-12
# the map's bounded route needs K >= 1024 and S >= 8: on maps of 101 betas by all rows it ran 1.2-3.5x
# as fast as the full FFT there, 0.55-0.92x at K = 512 or S = 4 and 1.0-2.0x at S = 5-7 (one BLAS thread)
_MIN_BOUNDED_GRID = 1024
_MIN_STRIDE = 8
# kept intervals per column that one refinement product takes: fig-3 keeps 3.1 on average
_REFINED = 4


@dataclass(frozen=True, eq=False)
class PhaseProfile:
    """Phase-difference probability profile on a uniform grid over [0, 2pi)."""

    phi_axis: np.ndarray
    values: np.ndarray
    beta: float
    m: float
    total: int


def _check_grid_size(grid_size: int) -> None:
    _check_integer("grid_size", grid_size, MIN_PHASE_GRID)


def _profile_values(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """Profile at phi_k = 2 pi k / K for k = 0..K-1, one row per row of coefficients."""
    _check_grid_size(grid_size)
    # 48 bytes per coefficient and per grid point of each row: twisted and folded copies,
    # the spectrum, its scaled copy and the squared modulus with its temporaries
    _check_budget(48 * (coeffs.size + math.prod(coeffs.shape[:-1]) * grid_size) + _fft_bytes(grid_size),
                  f"a phase grid of {grid_size} points over {coeffs.size} coefficients needs")
    twisted = _I_POW[np.arange(coeffs.shape[-1]) % 4] * coeffs  # entry n gains an exact i^n
    # k-th inverse-DFT entry is (1/K) sum_n e^{2pi i n k / K} c_n
    z = grid_size * np.fft.ifft(_folded(twisted, grid_size), n=grid_size, axis=-1)
    return z.real**2 + z.imag**2


def _half_profile_bytes(dim: int, grid_size: int) -> tuple[int, int]:
    """Bytes _half_profile holds per real column and once per block."""
    # a fold of a column longer than K (at most dim + 2K doubles), then per k <= K/2 the spectrum,
    # its modulus and two temporaries, 40 bytes
    return 8 * dim * (dim > grid_size) + 40 * (grid_size // 2 + 1), _fft_bytes(grid_size)


def _half_profile(column: np.ndarray, grid_size: int) -> np.ndarray:
    """Power spectrum |C(theta_k)|^2 of real columns at theta_k = 2 pi k / K, k = 0..K//2: the map's whole profile."""
    z = np.fft.rfft(_folded(column, grid_size), n=grid_size, axis=-1)
    return z.real**2 + z.imag**2


def _bounded_bytes(dim: int, grid_size: int, coarse: int) -> tuple[int, int, int]:
    """Bytes _bounded_argmax holds per real column, once per chunk, and to build its tables."""
    stride, half, intervals = grid_size // coarse, coarse // 2 + 1, (coarse + 1) // 2
    # per column the coarse profile and, per interval (at worst all kept), two indices and a maximum, beside
    # the most of: the coarse spectrum with the modulus' temporaries, the inverse transform's complex input
    # and output, or a refinement block's modulated rows with their phases, then its column rows, product,
    # modulus and a temporary.  Per chunk the tables, the coarse plan and each call's small arrays
    per_column = 8 * half + 24 * intervals + max(32 * half, 16 * half + 8 * coarse + 8 * dim,
                                                 _REFINED * (24 * dim + 32 * (stride - 1)))
    per_chunk = 16 * dim * (stride - 1) + 16 * coarse + 16 * dim + 8 * intervals + _fft_bytes(coarse) + 4096
    return per_column, per_chunk, 8 * stride + 24 * dim * (stride - 1) + 40 * coarse


def _coarse_length(dim: int, grid_size: int) -> int | None:
    """The smallest divisor Kc >= 2 dim - 1 of K at a stride S = K / Kc >= _MIN_STRIDE whose tables, the fine
    one alone 16 dim (S - 1) bytes, fit _CHUNK_BYTES beside one column, or None: then the map takes the full FFT."""
    if grid_size < _MIN_BOUNDED_GRID:
        return None
    for stride in range(min(grid_size // (2 * dim - 1), protocol._CHUNK_BYTES // (16 * dim) + 1), _MIN_STRIDE - 1, -1):
        if grid_size % stride == 0 and sum(_bounded_bytes(dim, grid_size, grid_size // stride)[:2]) <= protocol._CHUNK_BYTES:
            return grid_size // stride
    return None


def _bounded_tables(dim: int, grid_size: int, coarse: int):
    """fine[n, t - 1] = e^{-2 pi i n t / K} for t = 1..S-1, modulation[m] = e^{-2 pi i m / Kc}, curvature[l] =
    (pi l / Kc)^2, and right[j], the coarse point ending interval j, mirrored past K/2."""
    n, right = np.arange(dim), np.arange(1, (coarse + 1) // 2 + 1)
    return (np.exp(-2j * np.pi / grid_size * np.multiply.outer(n, np.arange(1, grid_size // coarse))),
            np.exp(-2j * np.pi / coarse * np.arange(coarse)), (np.pi / coarse * n) ** 2, np.minimum(right, coarse - right))


def _refined(flat: np.ndarray, cols: np.ndarray, js: np.ndarray, grid_size: int, tables) -> np.ndarray:
    """P(jS + t), t = 1..S-1, for each (col, j), -1 past K/2: C = sum_n c_n e^{-2 pi i n j / Kc} e^{-2 pi i n t / K}."""
    fine, modulation, _, right = tables
    phase = js[:, None] * np.arange(flat.shape[-1])
    phase -= len(modulation) * (phase // len(modulation))  # j n mod Kc: a floor division by a scalar ran 2x faster than %
    rows = modulation[phase]
    del phase
    column_rows = flat[cols]
    rows.real *= column_rows  # each part on its own: a real factor on the complex rows is cast in a buffer
    rows.imag *= column_rows
    y = rows @ fine
    values = y.real**2
    values += y.imag**2
    values[js == len(right) - 1, grid_size // 2 - (len(right) - 1) * (grid_size // len(modulation)):] = -1.0
    return values


def _bounded_argmax(column: np.ndarray, grid_size: int, tables) -> np.ndarray:
    """The cells _peak reads from _half_profile of real columns, from a coarse FFT and a curvature bound.

    P(theta) = sum_l w_l r_l cos(l theta) in the column's autocorrelation r (w_0 = 1, w_l = 2), so between
    samples h apart P exceeds the larger by at most B h^2 / 8, B = sum_l w_l l^2 |r_l|.  A real FFT of
    length Kc gives P at every S-th point and, inverted, r with no lag wrapped.  Intervals whose bound
    reaches the coarse maximum times (1 - _ARGMAX_RTOL), less 1e-13 for rounding, are refined, _REFINED a
    column per product; the first maximum is at the first coarse point or in the first interval reaching
    the threshold, whose block, if there are several, is refined again to the same values.
    """
    _, modulation, curvature, right = tables
    dim, coarse = column.shape[-1], len(modulation)
    stride, flat = grid_size // coarse, column.reshape(-1, dim)
    z = np.fft.rfft(flat, n=coarse, axis=-1)
    ends = z.real**2 + z.imag**2  # P(jS) for j = 0..Kc//2
    del z
    bound = np.abs(np.fft.irfft(ends, n=coarse, axis=-1)[:, :dim]) @ curvature  # B h^2 / 8, h = 2 pi / Kc
    v_max = ends.max(axis=-1)
    cols, js = np.divmod(np.flatnonzero(np.maximum(ends[:, :len(right)], ends[:, right]) + bound[:, None]
                                        >= v_max[:, None] * (1.0 - _ARGMAX_RTOL - 1e-13)), len(right))
    block, maxima = _REFINED * len(flat), np.empty(len(js))
    for lo in range(0, len(js), block):
        values = _refined(flat, cols[lo:lo + block], js[lo:lo + block], grid_size, tables)
        maxima[lo:lo + block] = values.max(axis=-1)
    np.maximum.at(v_max, cols, maxima)
    threshold = v_max * (1.0 - _ARGMAX_RTOL)
    hit = ends >= threshold[:, None]
    idx = np.where(hit.any(axis=-1), stride * hit.argmax(axis=-1), grid_size)
    before = np.flatnonzero((maxima >= threshold[cols]) & (stride * js < idx[cols]))  # intervals before the coarse hit
    for lo in range(0, len(js), block):
        here = before[(before >= lo) & (before < lo + block)]
        if len(here):
            if len(js) > block:
                values = _refined(flat, cols[lo:lo + block], js[lo:lo + block], grid_size, tables)
            hit = values[here - lo] >= threshold[cols[here], None]
            np.minimum.at(idx, cols[here], stride * js[here] + 1 + hit.argmax(axis=-1))
    return np.where(v_max > 0.0, 2.0 * np.pi * idx / grid_size, 0.0).reshape(column.shape[:-1])


def _map_route(total: int, grid_size: int):
    """The map's argmax of rotation columns at total, and its bytes, rotation included, for protocol._beta_chunk;
    the bounded route builds its tables at its first call, so a map refused before any row is rotated builds none."""
    _check_integer("total", total)
    _check_grid_size(grid_size)
    dim, rotation = total + 1, _rotation_bytes(total)
    coarse = _coarse_length(dim, grid_size)
    if coarse is None:
        per_column, per_chunk = _half_profile_bytes(dim, grid_size)
        return lambda column: _peak(_half_profile(column, grid_size), grid_size)[0], (rotation + per_column, per_chunk, 0)
    tables = functools.cache(functools.partial(_bounded_tables, dim, grid_size, coarse))
    per_column, per_chunk, build = _bounded_bytes(dim, grid_size, coarse)
    return lambda column: _bounded_argmax(column, grid_size, tables()), (rotation + per_column, per_chunk, build)


def phase_profile(params: ResourceParams, grid_size: int = DEFAULT_PHASE_GRID) -> PhaseProfile:
    """Profile of the phase-difference probability for one resource."""
    values = _profile_values(resource_coeffs(params).coeffs, grid_size)
    phi_axis = 2.0 * np.pi * np.arange(grid_size) / grid_size
    return PhaseProfile(phi_axis, values, params.beta, params.m, params.total)


def _peak(values: np.ndarray, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Location and value of the first maximum of each profile row (see phase_argmax).

    A row may stop at k = K//2: a mirror-symmetric profile has its first maximum there.
    """
    v_max = values.max(axis=-1)
    idx = np.argmax(values >= v_max[..., None] * (1.0 - _ARGMAX_RTOL), axis=-1)
    return np.where(v_max > 0.0, 2.0 * np.pi * idx / grid_size, 0.0), v_max


def phase_argmax(resource: ResourceCoeffs, grid_size: int = DEFAULT_PHASE_GRID) -> tuple[float, float]:
    """Location and value of the profile maximum on the uniform grid.

    Ties within relative tolerance of the maximum resolve to the smallest
    phi, so constant profiles report phi = 0.
    """
    phi, v_max = _peak(_profile_values(resource.coeffs, grid_size), grid_size)
    return float(phi), float(v_max)


def phase_argmax_map(total: int, beta_axis, m_axis, grid_size: int = DEFAULT_PHASE_GRID) -> FidelityGrid:
    """Most likely phase difference over a (beta, m) grid at fixed total.

    Cells whose m is incompatible with the total are filled with NaN, as
    in the fidelity sweep.
    """
    argmax, reduce_bytes = _map_route(total, grid_size)
    return _grid(total, beta_axis, m_axis, lambda factor, n_in, trig: argmax(_rotate(factor, n_in, trig)),
                 reduce_bytes, "phase-argmax")


def check_phase_map_size(total: int, n_beta: int, n_m: int, grid_size: int = DEFAULT_PHASE_GRID) -> None:
    """Raise ValueError if phase_argmax_map over axes of these lengths would exceed MAX_GRID_BYTES."""
    _beta_chunk(total, n_beta, n_m, _map_route(total, grid_size)[1], kept=protocol._kept(total))
