"""Checks for the deterministic CSV/PGM writers and the atomic file writer."""

import math
import os
import stat

import numpy as np
import pytest

from bsteleport.gridio import (
    atomic_write_bytes,
    coeffs_to_csv_bytes,
    distribution_to_csv_bytes,
    grid_to_csv_bytes,
    grid_to_pgm_bytes,
)
from bsteleport.protocol import FidelityGrid, OutcomeDistribution


def _tiny_grid(values) -> FidelityGrid:
    values = np.asarray(values, dtype=float)
    return FidelityGrid(
        beta_axis=np.array([0.5, 1.0]),
        m_axis=np.array([0.0, 1.0]),
        values=values,
        total=4,
        label="test",
    )


class TestGridCsv:
    def test_exact_bytes(self):
        grid = _tiny_grid([[0.25, 0.5], [float("nan"), 1.0]])
        expected = b"beta,m,value\n0.5,0,0.25\n1,0,0.5\n0.5,1,nan\n1,1,1\n"
        assert grid_to_csv_bytes(grid) == expected

    def test_round_trip_precision(self):
        values = [[1.0 / 3.0, math.pi / 2], [0.1234567890123456789, 1e-300]]
        grid = _tiny_grid(values)
        lines = grid_to_csv_bytes(grid).decode("ascii").strip().split("\n")[1:]
        parsed = [float(line.split(",")[2]) for line in lines]
        flat = np.asarray(values).reshape(-1)
        assert parsed == list(flat)

    def test_deterministic(self):
        grid = _tiny_grid([[0.1, 0.2], [0.3, 0.4]])
        assert grid_to_csv_bytes(grid) == grid_to_csv_bytes(grid)


class TestGridPgm:
    def test_header_and_pixels(self):
        grid = _tiny_grid([[0.0, 0.25], [0.5, 1.0]])
        data = grid_to_pgm_bytes(grid)
        assert data.startswith(b"P5\n2 2\n255\n")
        pixels = np.frombuffer(data[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
        # 255 * 0.5 = 127.5 rounds to the even neighbour 128
        assert list(pixels) == [0, 64, 128, 255]

    def test_nan_renders_black_and_overflow_clips(self):
        grid = _tiny_grid([[float("nan"), 1.2], [-0.1, 0.6]])
        pixels = np.frombuffer(grid_to_pgm_bytes(grid)[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
        assert list(pixels) == [0, 255, 0, 153]

    def test_scale(self):
        grid = _tiny_grid([[0.0, math.pi / 4], [math.pi / 2, math.pi]])
        pixels = np.frombuffer(
            grid_to_pgm_bytes(grid, scale=math.pi / 2)[len(b"P5\n2 2\n255\n"):], dtype=np.uint8
        )
        assert list(pixels) == [0, 128, 255, 255]

    def test_scale_must_be_positive(self):
        grid = _tiny_grid([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            grid_to_pgm_bytes(grid, scale=0.0)
        with pytest.raises(ValueError):
            grid_to_pgm_bytes(grid, scale=-1.0)


class TestDistributionCsv:
    def test_exact_bytes(self):
        dist = OutcomeDistribution(
            q_min=0,
            q_max=2,
            p=np.array([0.5, 0.0, 0.5]),
            f=np.array([1.0, float("nan"), 0.75]),
        )
        expected = b"q,p,f\n0,0.5,1\n1,0,nan\n2,0.5,0.75\n"
        assert distribution_to_csv_bytes(dist) == expected


class TestCoeffsCsv:
    def test_exact_bytes(self):
        # complex(0.0, -0.5) keeps a positive-zero real part; the literal
        # -0.5j would negate it to -0.0 and print as "-0"
        coeffs = np.array([1.0, complex(0.0, -0.5), 0.25 + 0.75j])
        expected = b"index,real,imag\n0,1,0\n1,0,-0.5\n2,0.25,0.75\n"
        assert coeffs_to_csv_bytes(coeffs) == expected

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        lines = coeffs_to_csv_bytes(coeffs).decode("ascii").strip().split("\n")[1:]
        for n, line in enumerate(lines):
            _, re, im = line.split(",")
            assert float(re) == coeffs[n].real
            assert float(im) == coeffs[n].imag


class TestAtomicWrite:
    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.csv"
        atomic_write_bytes(str(path), b"payload")
        assert path.read_bytes() == b"payload"

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.csv"
        atomic_write_bytes(str(path), b"old")
        atomic_write_bytes(str(path), b"new")
        assert path.read_bytes() == b"new"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "out.csv"
        atomic_write_bytes(str(path), b"data")
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_mode_follows_umask(self, tmp_path):
        path = tmp_path / "out.csv"
        old = os.umask(0o022)
        try:
            atomic_write_bytes(str(path), b"data")
        finally:
            os.umask(old)
        assert stat.filemode(path.stat().st_mode) == "-rw-r--r--"

    def test_mode_follows_a_strict_umask(self, tmp_path):
        path = tmp_path / "out.csv"
        old = os.umask(0o077)
        try:
            atomic_write_bytes(str(path), b"data")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_process_umask_is_never_changed(self, tmp_path, monkeypatch):
        def refuse(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refuse)
        atomic_write_bytes(str(tmp_path / "out.csv"), b"data")
        assert (tmp_path / "out.csv").read_bytes() == b"data"

    def test_failed_replace_cleans_up(self, tmp_path):
        target = tmp_path / "adir"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write_bytes(str(target), b"data")
        assert set(os.listdir(tmp_path)) == {"adir"}
