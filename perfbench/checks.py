"""Independent references and output checks for the benchmark.

Nothing here calls into bsteleport.  Resource columns come from scipy's Padé
matrix exponential of the sector generator, fidelities from the explicit
outcome sum, phase profiles from a direct (non-FFT) Fourier sum and target
states from the photon-number recurrence.  Every check raises CheckFailed
with the first discrepancy it finds.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

RESOURCE_TOL = 1e-10   # max entry deviation from the expm column (seen: 1.0e-12 at total 170, beta near pi)
MOMENT_TOL = 1e-11     # norm and photon-number moments, relative to their scale
FIDELITY_TOL = 1e-10   # average fidelity and baseline against the explicit sums
TARGET_TOL = 1e-13     # target coefficients against the recurrence
PHASE_RTOL = 1e-9      # profile at the reported phase against the direct maximum
EXPM_MAX_TOTAL = 200   # largest total whose resource is checked against expm


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own reference."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sector_unitary(total: int, beta: float) -> np.ndarray:
    """exp(i beta H) on the sector |n, total - n>, n = 0..total.

    H = (a^dag b + a b^dag) / 2 couples n to n + 1 with sqrt((n+1)(total-n))/2.
    With S = diag(i^n), S^-1 (i beta H) S is real antisymmetric, so the Padé
    exponential runs in real arithmetic and the phases are put back exactly.
    Column n_in is the resource for the input pair (n_in, total - n_in).
    """
    n = np.arange(total, dtype=float)
    coupling = 0.5 * beta * np.sqrt((n + 1.0) * (total - n))
    generator = np.diag(coupling, -1) - np.diag(coupling, 1)
    rotation = expm(generator)
    k = np.arange(total + 1)
    quarter = np.array([1.0, 1.0j, -1.0, -1.0j])
    return quarter[(k[:, None] - k[None, :]) % 4] * rotation


def target_reference(kind: str, alpha: float, cutoff: int) -> tuple[np.ndarray, float]:
    """Cat or coherent coefficients on 0..cutoff, renormalized, and the weight beyond.

    Amplitudes follow a_0 = exp(-|alpha|^2 / 2), a_n = a_{n-1} alpha / sqrt(n);
    the cat keeps even n with norm sqrt(2 + 2 exp(-2 |alpha|^2)).
    """
    length = cutoff + 200
    amp = np.empty(length + 1)
    amp[0] = math.exp(-0.5 * alpha * alpha)
    for n in range(1, length + 1):
        amp[n] = amp[n - 1] * alpha / math.sqrt(n)
    if kind == "cat":
        amp = amp * (2.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * alpha * alpha)))
        amp[1::2] = 0.0
    kept = amp[: cutoff + 1]
    tail = float(np.sum(amp[cutoff + 1:] ** 2))
    return kept / math.sqrt(float(np.sum(kept ** 2))), tail


def fidelity_reference(weights: np.ndarray, resource: np.ndarray) -> np.ndarray:
    """sum_q |sum_n w_{q-n} d_n|^2, one value per column of resource."""
    d = np.asarray(resource)
    total = d.shape[0] - 1
    s = np.zeros((total + len(weights),) + d.shape[1:], dtype=complex)
    for k in np.nonzero(weights)[0]:
        s[k:k + total + 1] += weights[k] * d
    return np.sum(s.real ** 2 + s.imag ** 2, axis=0)


def phase_profile_reference(resource: np.ndarray, grid_size: int) -> np.ndarray:
    """|sum_n e^{i n phi_k} i^n d_n|^2 at phi_k = 2 pi k / grid_size, by direct sum."""
    n = np.arange(resource.shape[0])
    phi = 2.0 * np.pi * np.arange(grid_size) / grid_size
    z = np.exp(1j * np.outer(phi, n)) @ ((1j) ** n[:, None] * resource)
    return z.real ** 2 + z.imag ** 2


def check_close(name: str, got, want, tol: float) -> None:
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    _require(dev <= tol, f"{name}: deviation {dev:.3e} exceeds {tol:.1e}")


def check_resource_invariants(d: np.ndarray, total: int, m: float, beta: float) -> None:
    """Norm 1, mean sender number total/2 + m cos(beta), and its spread.

    <(n - j)^2> = m^2 cos^2(beta) + (j(j+1) - m^2) sin^2(beta) / 2 with j = total/2.
    """
    _require(len(d) == total + 1, f"resource length {len(d)} for total {total}")
    p = d.real ** 2 + d.imag ** 2
    n = np.arange(total + 1)
    j = total / 2
    scale = max(j, 1.0)
    cos, sin = math.cos(beta), math.sin(beta)
    norm = float(np.sum(p))
    _require(abs(norm - 1.0) <= MOMENT_TOL, f"resource norm {norm!r} at total {total}")
    mean = float(np.sum(n * p))
    want_mean = j + m * cos
    _require(abs(mean - want_mean) <= MOMENT_TOL * scale,
             f"mean sender number {mean!r}, expected {want_mean!r} at total {total}")
    spread = float(np.sum((n - j) ** 2 * p))
    want_spread = m * m * cos * cos + (j * (j + 1) - m * m) * sin * sin / 2
    _require(abs(spread - want_spread) <= MOMENT_TOL * max(want_spread, scale),
             f"second moment {spread!r}, expected {want_spread!r} at total {total}")


def check_target(coeffs: np.ndarray, kind: str, alpha: float, tail_tol: float) -> np.ndarray:
    """Target coefficients match the recurrence and the dropped tail is within tail_tol.

    Returns the reference coefficients for the reductions that follow.
    """
    ref, tail = target_reference(kind, alpha, len(coeffs) - 1)
    check_close(f"{kind}({alpha}) coefficients", coeffs, ref, TARGET_TOL)
    # 1% slack: the program and the reference round the tail differently
    _require(tail <= 1.01 * tail_tol, f"{kind}({alpha}) cutoff {len(coeffs) - 1} drops {tail:.3e}")
    return ref


def parse_grid_csv(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """beta axis, m axis and the (m, beta) value array of a beta,m,value CSV."""
    lines = data.decode("ascii").split("\n")
    _require(lines[0] == "beta,m,value", f"CSV header {lines[0]!r}")
    _require(lines[-1] == "", "CSV does not end with a newline")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    ms = rows[:, 1]
    n_beta = int(np.argmax(ms != ms[0])) if np.any(ms != ms[0]) else len(ms)
    _require(len(rows) % n_beta == 0, "CSV rows do not form a grid")
    grid = rows.reshape(len(rows) // n_beta, n_beta, 3)
    beta_axis, m_axis = grid[0, :, 0], grid[:, 0, 1]
    _require(np.array_equal(grid[:, :, 0], np.broadcast_to(beta_axis, grid.shape[:2])),
             "CSV beta column is not repeated per m row")
    _require(np.array_equal(grid[:, :, 1], np.broadcast_to(m_axis[:, None], grid.shape[:2])),
             "CSV m column is not constant within a row")
    return beta_axis, m_axis, grid[:, :, 2]


def check_pgm(data: bytes, values: np.ndarray, scale: float) -> None:
    """Binary PGM whose pixels are rint(255 * clip(value / scale, 0, 1)), NaN black."""
    rows, cols = values.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    _require(data.startswith(header), f"PGM header {data[:20]!r}")
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8)
    _require(pixels.size == rows * cols, f"PGM has {pixels.size} pixels, expected {rows * cols}")
    shade = np.clip(np.nan_to_num(values / scale, nan=0.0), 0.0, 1.0)
    want = np.rint(255.0 * shade).astype(np.uint8)
    _require(np.array_equal(pixels.reshape(rows, cols), want), "PGM pixels differ from the CSV values")


def check_axes(beta_axis: np.ndarray, m_axis: np.ndarray, beta_steps: int, m_values: np.ndarray) -> None:
    want_beta = math.pi * np.arange(1, beta_steps + 1, dtype=float) / (beta_steps + 1)
    _require(beta_axis.shape == want_beta.shape, f"{len(beta_axis)} beta samples, expected {beta_steps}")
    check_close("beta axis", beta_axis, want_beta, 1e-15)
    _require(np.array_equal(m_axis, m_values), f"m axis {m_axis[:4]}..., expected {m_values[:4]}...")


def check_fidelity_grid(values: np.ndarray, reference: np.ndarray) -> None:
    _require(values.shape == reference.shape, f"grid shape {values.shape}, expected {reference.shape}")
    _require(bool(np.all(np.isfinite(values))), "fidelity grid has non-finite cells")
    check_close("fidelity grid", values, reference, FIDELITY_TOL)


def resource_blocks(total: int, beta_axis, n_in: np.ndarray) -> list[np.ndarray]:
    """Reference resources for every (beta, n_in) cell, one (total + 1, len(n_in)) block per beta."""
    return [sector_unitary(total, float(beta))[:, n_in] for beta in beta_axis]


def check_phase_grid(values: np.ndarray, blocks: list[np.ndarray], grid_size: int) -> None:
    """Each reported phase is a grid point where the direct-sum profile reaches its maximum.

    values[i, k] is the reading for row i at beta sample k, and blocks[k][:, i] the
    reference resource of that cell.  The profile value at the reading is compared with
    the independent maximum, so near-ties may resolve to any point within PHASE_RTOL.
    """
    rows = values.shape[0]
    _require(values.shape == (rows, len(blocks)), f"phase grid shape {values.shape}")
    _require(bool(np.all(np.isfinite(values))), "phase grid has non-finite cells")
    index = np.rint(values * grid_size / (2.0 * np.pi))
    _require(bool(np.all((index >= 0) & (index < grid_size))), "phase reading outside [0, 2pi)")
    check_close("phase readings off the grid", values, 2.0 * np.pi * index / grid_size, 1e-12)
    index = index.astype(int)
    for k, block in enumerate(blocks):
        profile = phase_profile_reference(block, grid_size)
        at = profile[index[:, k], np.arange(rows)]
        best = profile.max(axis=0)
        bad = np.nonzero(at < (1.0 - PHASE_RTOL) * best)[0]
        _require(len(bad) == 0, f"beta sample {k}, row {bad[:1]}: profile at the reading is "
                                "below the direct maximum")


def check_fig2_properties(values: np.ndarray, baseline: float) -> None:
    """Acceptance criterion 5 on the 51 x 101 grid at total 100."""
    _require(values.shape == (51, 101), f"figure grid shape {values.shape}")
    _require(bool(np.all(values >= 0.0)) and bool(np.all(values <= 1.0 + 1e-12)),
             "fidelity outside [0, 1]")
    peak = np.unravel_index(int(np.argmax(values)), values.shape)
    _require(peak == (0, 50), f"fidelity peak at {peak}, expected (m=0, beta=pi/2)")
    for column in (values[:, 0], values[:, -1]):
        _require(float(np.max(np.abs(column - baseline))) <= 0.02, "edge column strays from the baseline")
    for row in (5, 10, 20):
        profile = values[row]
        interior = [k for k in range(1, 100) if profile[k - 1] < profile[k] > profile[k + 1]]
        _require(any(profile[k] > baseline for k in interior),
                 f"m={row}: no interior local maximum above the baseline")


def check_fig3_properties(values: np.ndarray, fidelity: np.ndarray) -> None:
    """Acceptance criterion 6 on the 51 x 101 grid at total 100."""
    _require(values.shape == (51, 101), f"figure grid shape {values.shape}")
    _require(abs(values[0, 50] - math.pi / 2) <= 2 * math.pi / 4096,
             f"balanced cell reads {values[0, 50]!r}, expected pi/2")
    near = np.abs(values - math.pi / 2) < 0.1
    _require(bool(near.any()), "no cell reads near pi/2")
    _require(float(np.median(fidelity[near])) > float(np.median(fidelity)),
             "cells reading near pi/2 do not carry above-median fidelity")
