"""Deterministic serialization of grids, distributions and coefficients.

All writers emit bytes built with explicit formatting (shortest
round-trip floats via %.17g) so identical inputs always produce identical
files, and all file output goes through an atomic replace.
"""

from __future__ import annotations

import os

import numpy as np

from .protocol import FidelityGrid, OutcomeDistribution


def _fmt(x: float) -> str:
    return "%.17g" % x


def _csv_bytes(header: str, rows) -> bytes:
    """ASCII CSV: the header line, then one line per row, each ending in a newline."""
    return "\n".join([header, *rows, ""]).encode("ascii")


def grid_to_csv_bytes(grid: FidelityGrid) -> bytes:
    """CSV with header beta,m,value; rows vary beta fastest within each m."""
    # each axis value is formatted once into a template of every line, "beta,m,%.17g\n", which
    # takes all the cells, as Python floats, in one % (no formatted float holds a %)
    betas = [_fmt(beta) + "," for beta in grid.beta_axis.tolist()]
    template = "".join(line.join(betas) + line for line in (_fmt(m) + ",%.17g\n" for m in grid.m_axis.tolist()))
    return ("beta,m,value\n" + template % tuple(grid.values.ravel().tolist())).encode("ascii")


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
    return _csv_bytes("q,p,f", (f"{q},{_fmt(dist.p[i])},{_fmt(dist.f[i])}"
                                for i, q in enumerate(range(dist.q_min, dist.q_max + 1))))


def coeffs_to_csv_bytes(coeffs: np.ndarray) -> bytes:
    """CSV with header index,real,imag for a complex coefficient vector."""
    return _csv_bytes("index,real,imag", (f"{n},{_fmt(z.real)},{_fmt(z.imag)}"
                                          for n, z in enumerate(coeffs)))


def atomic_write_files(files: list[tuple[str, bytes]]) -> None:
    """Write each (path, data) through a same-directory temp file, made as open() makes a file.

    Every temp file is written before any path is replaced, each by an
    atomic replace; if a write fails, the temp files are removed and no
    path has changed.
    """
    temps = []
    try:
        for path, data in files:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
            temps.append(tmp)
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write data to path via a same-directory temp file, made as open() makes a file, and atomic replace."""
    atomic_write_files([(path, data)])
