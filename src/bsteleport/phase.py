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
it takes one real FFT of the rotation block over k = 0..K/2, where the
mirror-symmetric profile P(K - k) = P(k) has its first maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _I_POW, _check_budget, _check_integer
from .protocol import FidelityGrid, _beta_chunk, _grid
from .states import ResourceCoeffs, ResourceParams, resource_coeffs

DEFAULT_PHASE_GRID = 4096
MIN_PHASE_GRID = 16
# relative slack when locating the argmax, so flat profiles with float
# dust still resolve to their first grid point
_ARGMAX_RTOL = 1e-12


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


def _folded(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """Coefficients (last axis n) folded onto n mod K: the kernel has period K in n."""
    if coeffs.shape[-1] <= grid_size:
        return coeffs
    coeffs = np.pad(coeffs, [(0, 0)] * (coeffs.ndim - 1) + [(0, -coeffs.shape[-1] % grid_size)])
    return coeffs.reshape(coeffs.shape[:-1] + (-1, grid_size)).sum(axis=-2)


def _fft_bytes(grid_size: int) -> int:
    """Bytes numpy's FFT allocates itself, outside its output, for one transform of K points.

    Its plan and scratch take 32 bytes per point for a complex transform and 16
    for a real one.  A K with a prime factor above 11 may instead take
    Bluestein's transform of about 2K points, which held 128-144 per point.
    """
    rough = grid_size
    for p in (2, 3, 5, 7, 11):
        while rough % p == 0:
            rough //= p
    return (32 if rough == 1 else 160) * grid_size


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
    """Bytes _half_profile and _peak hold per real column and once per block; refuses K below MIN_PHASE_GRID."""
    # folding a column longer than K holds at most dim + 2K doubles; then each frequency
    # k <= K/2 holds its spectrum and its squared modulus with two temporaries, 40 bytes
    _check_grid_size(grid_size)
    return 8 * dim + 40 * (grid_size // 2 + 1), _fft_bytes(grid_size)


def _half_profile(column: np.ndarray, grid_size: int) -> np.ndarray:
    """Profile at phi_k for k = 0..K//2 from real rotation columns, one row per column.

    The twist leaves a real column times a global phase, and the forward
    real DFT is the conjugate of the inverse one, so the squared moduli match.
    """
    z = np.fft.rfft(_folded(column, grid_size), n=grid_size, axis=-1)
    return z.real**2 + z.imag**2


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
    return _grid(total, beta_axis, m_axis,
                 lambda column, n_in: _peak(_half_profile(column, grid_size), grid_size)[0],
                 _half_profile_bytes(total + 1, grid_size), "phase-argmax")


def check_phase_map_size(total: int, n_beta: int, n_m: int, grid_size: int = DEFAULT_PHASE_GRID) -> None:
    """Raise ValueError if phase_argmax_map over axes of these lengths would exceed MAX_GRID_BYTES."""
    _beta_chunk(total, n_beta, n_m, _half_profile_bytes(total + 1, grid_size))
