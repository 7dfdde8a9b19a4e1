"""Phase-difference statistics of the entangled resource.

The splitter advances each transferred photon's phase by a fixed quarter
turn, so the resource coefficients carry an i^n twist on top of a real
rotation profile.  Phase readings here are referenced to the frame with
that twist removed, where the coefficient sequence is real up to a
global phase; for balanced inputs the profile is then symmetric about
pi/2 and peaks there at a balanced splitter.  The joint probability of
a reading is the squared modulus of the Fourier series of the twisted
coefficients, and sampling it on a uniform grid is an inverse DFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _I_POW
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


def _profile_values(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """Profile at phi_k = 2 pi k / K for k = 0..K-1, one row per row of coefficients."""
    if grid_size < MIN_PHASE_GRID:
        raise ValueError(f"grid_size must be at least {MIN_PHASE_GRID}")
    twisted = _I_POW[np.arange(coeffs.shape[-1]) % 4] * coeffs  # entry n gains an exact i^n
    if twisted.shape[-1] > grid_size:
        # the kernel has period K in n, so coefficients beyond K fold onto n mod K
        twisted = np.pad(twisted, [(0, 0)] * (twisted.ndim - 1) + [(0, -twisted.shape[-1] % grid_size)])
        twisted = twisted.reshape(twisted.shape[:-1] + (-1, grid_size)).sum(axis=-2)
    # k-th inverse-DFT entry is (1/K) sum_n e^{2pi i n k / K} c_n
    z = grid_size * np.fft.ifft(twisted, n=grid_size, axis=-1)
    return z.real**2 + z.imag**2


def phase_profile(params: ResourceParams, grid_size: int = DEFAULT_PHASE_GRID) -> PhaseProfile:
    """Profile of the phase-difference probability for one resource."""
    values = _profile_values(resource_coeffs(params).coeffs, grid_size)
    phi_axis = 2.0 * np.pi * np.arange(grid_size) / grid_size
    return PhaseProfile(phi_axis, values, params.beta, params.m, params.total)


def _peak(coeffs: np.ndarray, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Location and value of the profile maximum for each row of coefficients (see phase_argmax)."""
    values = _profile_values(coeffs, grid_size)
    v_max = values.max(axis=-1)
    idx = np.argmax(values >= v_max[..., None] * (1.0 - _ARGMAX_RTOL), axis=-1)
    return np.where(v_max > 0.0, 2.0 * np.pi * idx / grid_size, 0.0), v_max


def phase_argmax(resource: ResourceCoeffs, grid_size: int = DEFAULT_PHASE_GRID) -> tuple[float, float]:
    """Location and value of the profile maximum on the uniform grid.

    Ties within relative tolerance of the maximum resolve to the smallest
    phi, so constant profiles report phi = 0.
    """
    phi, v_max = _peak(resource.coeffs, grid_size)
    return float(phi), float(v_max)


def phase_argmax_map(total: int, beta_axis, m_axis, grid_size: int = DEFAULT_PHASE_GRID) -> FidelityGrid:
    """Most likely phase difference over a (beta, m) grid at fixed total.

    Cells whose m is incompatible with the total are filled with NaN, as
    in the fidelity sweep.
    """
    if grid_size < MIN_PHASE_GRID:
        raise ValueError(f"grid_size must be at least {MIN_PHASE_GRID}")
    return _grid(total, beta_axis, m_axis, lambda block: _peak(block, grid_size)[0], grid_size, "phase-argmax")


def check_phase_map_size(total: int, n_beta: int, n_m: int, grid_size: int = DEFAULT_PHASE_GRID) -> None:
    """Raise ValueError if phase_argmax_map over axes of these lengths would exceed MAX_GRID_BYTES."""
    _beta_chunk(total, n_beta, n_m, grid_size)
