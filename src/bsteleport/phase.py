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
it reads the mirror-symmetric profile P(K - k) = P(k) only over
k = 0..K/2, where it has its first maximum, by one of two routes:

- the FFT route takes one real FFT of length K of the rotation block;
- the table route, for even K, takes the block's autocorrelation r from
  two transforms of about twice the column's length, then the cosine
  polynomial P(k) = sum_l w_l r_l cos(2 pi l k / K) as two real products
  with one table of w_l cos(2 pi l k / K) over k = 0..K/4, built once
  per map.

A map takes the table route when the column is short against K and the
table is small (see _takes_table); both routes give the same cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (_I_POW, _check_budget, _check_integer, _fft_bytes, _folded, _half_profile,
                       _half_profile_bytes, _rotate, _rotation_bytes, _smooth_length)
from .protocol import FidelityGrid, _beta_chunk, _grid
from .states import ResourceCoeffs, ResourceParams, resource_coeffs

DEFAULT_PHASE_GRID = 4096
MIN_PHASE_GRID = 16
# relative slack when locating the argmax, so flat profiles with float
# dust still resolve to their first grid point
_ARGMAX_RTOL = 1e-12
# the map's table route needs an even K of at least 256, K >= 16 D for a column of
# D levels and a table of at most 1 MiB.  On maps of 101 betas by D/2 m rows it ran
# 1.1-5x faster than the FFT inside the rule; it lost up to 25% at K = 16 to 128,
# and was no faster from D ~ 180 at K = 4096 and D ~ 70 at K = 16384, where the
# table crowds the betas out of a chunk (2 cores, one BLAS thread)
_TABLE_MIN_GRID = 256
_TABLE_RATIO = 16
_TABLE_MAX_BYTES = 1 << 20


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


def _takes_table(dim: int, grid_size: int) -> bool:
    """Whether the map reads its half profile from a cosine table rather than a length-K FFT."""
    return (grid_size % 2 == 0 and max(_TABLE_MIN_GRID, _TABLE_RATIO * dim) <= grid_size
            and _table_bytes(dim, grid_size) <= _TABLE_MAX_BYTES)


def _table_bytes(dim: int, grid_size: int) -> int:
    """Bytes of _cosine_table(dim, K)."""
    return 8 * dim * (grid_size // 4 + 1)


def _cosine_table(dim: int, grid_size: int) -> np.ndarray:
    """Rows w_l cos(2 pi (l k mod K) / K) over k = 0..K//4, even l first, then odd l; w_0 = 1, else 2."""
    cos = np.cos(2.0 * np.pi / grid_size * np.arange(grid_size))
    k = np.arange(grid_size // 4 + 1)
    table = np.empty((dim, len(k)))
    for row, lag in enumerate([*range(0, dim, 2), *range(1, dim, 2)]):
        np.take(cos, lag * k % grid_size, out=table[row])
    table[1:] *= 2.0
    return table


def _table_half_profile(column: np.ndarray, table: np.ndarray, grid_size: int, n: int) -> np.ndarray:
    """_half_profile of real rotation columns of D levels, from _cosine_table(D, K) at even K.

    The profile is the cosine polynomial sum_l w_l r_l cos(2 pi l k / K) in
    the column's autocorrelation r, taken by transforms of a length n of at
    least 2D - 1, so that no lag wraps onto another.  Since
    cos(2 pi l (K/2 - k) / K) = (-1)^l cos(2 pi l k / K), the even-l and
    odd-l sums over k = 0..K//4 give P(k) = even + odd and P(K/2 - k) =
    even - odd.
    """
    dim = column.shape[-1]
    z = np.fft.rfft(column, n=n, axis=-1)
    r = np.fft.irfft(z.real**2 + z.imag**2, n=n, axis=-1)
    n_even = (dim + 1) // 2
    # the lags are copied contiguous, so both products go to BLAS
    even = np.ascontiguousarray(r[..., 0:dim:2]) @ table[:n_even]
    odd = np.ascontiguousarray(r[..., 1:dim:2]) @ table[n_even:]
    half = np.empty(column.shape[:-1] + (grid_size // 2 + 1,))
    half[..., grid_size // 2 - grid_size // 4:] = (even - odd)[..., ::-1]
    half[..., :grid_size // 4 + 1] = even + odd  # when 4 divides K, k = K/4 keeps the sum
    return half


def _map_route(total: int, grid_size: int):
    """The map's half profile of rotation columns at total, and its bytes, rotation included, for protocol._beta_chunk.

    The route is settled here once per map: the total and K are checked
    before the rule reads them, and the table route, taken when _takes_table
    allows it, gets its lag length from here.  Its table is built at the
    first call, so a map refused before any row is rotated builds none.
    """
    _check_integer("total", total)
    _check_grid_size(grid_size)
    dim, rotation = total + 1, _rotation_bytes(total)
    if not _takes_table(dim, grid_size):
        per_column, per_chunk = _half_profile_bytes(dim, grid_size)
        return lambda column: _half_profile(column, grid_size), (rotation + per_column, per_chunk, 0)
    table = functools.cache(functools.partial(_cosine_table, dim, grid_size))
    # per column: the spectrum, its squared modulus and the autocorrelation with the inverse
    # transform's working copy, 32 bytes per lag point, and the even and odd lags; then
    # the even and odd sums and their difference, the half profile and _peak's mask.
    # Per chunk: the table, and the plan and scratch of the lag transforms.  Its build
    # holds the cosine row of K points and, per table column, its index k and one lag's
    # product and remainder, with 8 bytes to spare (tracemalloc saw 59,248 beyond the
    # table at dim 101, K = 4096, against the 65,568 counted)
    n, q1, h1 = _smooth_length(2 * dim - 1), grid_size // 4 + 1, grid_size // 2 + 1
    return (lambda column: _table_half_profile(column, table(), grid_size, n),
            (rotation + 32 * n + 8 * dim + 24 * q1 + 9 * h1, _table_bytes(dim, grid_size) + _fft_bytes(n),
             8 * grid_size + 32 * q1))


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
    half_profile, reduce_bytes = _map_route(total, grid_size)
    return _grid(total, beta_axis, m_axis,
                 lambda factor, n_in, trig: _peak(half_profile(_rotate(factor, n_in, trig)), grid_size)[0],
                 reduce_bytes, "phase-argmax")


def check_phase_map_size(total: int, n_beta: int, n_m: int, grid_size: int = DEFAULT_PHASE_GRID) -> None:
    """Raise ValueError if phase_argmax_map over axes of these lengths would exceed MAX_GRID_BYTES."""
    _beta_chunk(total, n_beta, n_m, _map_route(total, grid_size)[1])
