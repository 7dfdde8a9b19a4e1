"""Deterministic serialization of grids, distributions and coefficients.

All writers emit bytes built with explicit formatting (shortest
round-trip floats via %.17g) so identical inputs always produce identical
files, and all file output goes through an atomic replace.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .protocol import FidelityGrid, OutcomeDistribution


def _fmt(x: float) -> str:
    return "%.17g" % x


def grid_to_csv_bytes(grid: FidelityGrid) -> bytes:
    """CSV with header beta,m,value; rows vary beta fastest within each m."""
    lines = ["beta,m,value"]
    for i, m in enumerate(grid.m_axis):
        for k, beta in enumerate(grid.beta_axis):
            lines.append(f"{_fmt(beta)},{_fmt(m)},{_fmt(grid.values[i, k])}")
    lines.append("")
    return "\n".join(lines).encode("ascii")


def grid_to_pgm_bytes(grid: FidelityGrid, scale: float = 1.0) -> bytes:
    """Binary PGM rendering of values / scale clamped to [0, 1].

    Rows follow m_axis, columns follow beta_axis; NaN cells render black.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    shade = grid.values / scale
    shade = np.where(np.isnan(shade), 0.0, shade)
    shade = np.clip(shade, 0.0, 1.0)
    pixels = np.rint(255.0 * shade).astype(np.uint8)
    rows, cols = pixels.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def distribution_to_csv_bytes(dist: OutcomeDistribution) -> bytes:
    """CSV with header q,p,f; undefined fidelities serialize as nan."""
    lines = ["q,p,f"]
    for q in range(dist.q_min, dist.q_max + 1):
        i = q - dist.q_min
        lines.append(f"{q},{_fmt(dist.p[i])},{_fmt(dist.f[i])}")
    lines.append("")
    return "\n".join(lines).encode("ascii")


def coeffs_to_csv_bytes(coeffs: np.ndarray) -> bytes:
    """CSV with header index,real,imag for a complex coefficient vector."""
    lines = ["index,real,imag"]
    for n, z in enumerate(coeffs):
        z = complex(z)
        lines.append(f"{n},{_fmt(z.real)},{_fmt(z.imag)}")
    lines.append("")
    return "\n".join(lines).encode("ascii")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write data to path via a same-directory temp file and atomic replace."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        # mkstemp creates the file 0600; give it the mode open() would have
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
