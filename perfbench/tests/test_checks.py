"""Each reference agrees with an independent form, and each check rejects a perturbed output."""

import math

import numpy as np
import pytest

import checks
from checks import CheckFailed


def _column(total, n_in, beta):
    return checks.sector_unitary(total, beta)[:, n_in]


def test_sector_unitary_one_photon_is_the_two_mode_rotation():
    beta = 0.7
    want = np.array([[math.cos(beta / 2), 1j * math.sin(beta / 2)],
                     [1j * math.sin(beta / 2), math.cos(beta / 2)]])
    assert np.max(np.abs(checks.sector_unitary(1, beta) - want)) < 1e-15


def test_sector_unitary_composes_and_is_unitary():
    u1, u2, u12 = (checks.sector_unitary(30, b) for b in (0.4, 1.1, 1.5))
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12
    assert np.max(np.abs(u12.conj().T @ u12 - np.eye(31))) < 1e-12


def test_fidelity_reference_matches_the_literal_double_sum():
    rng = np.random.default_rng(3)
    w = rng.random(5)
    d = rng.normal(size=7) + 1j * rng.normal(size=7)
    literal = 0.0
    for q in range(11):
        s = sum(w[q - n] * d[n] for n in range(7) if 0 <= q - n < 5)
        literal += abs(s) ** 2
    assert checks.fidelity_reference(w, d) == pytest.approx(literal, rel=1e-14)


def test_phase_profile_reference_matches_a_pointwise_sum():
    d = _column(9, 3, 1.2)
    profile = checks.phase_profile_reference(d[:, None], 16)[:, 0]
    phi = 2 * math.pi * 5 / 16
    z = sum(np.exp(1j * n * phi) * 1j ** n * d[n] for n in range(10))
    assert profile[5] == pytest.approx(abs(z) ** 2, rel=1e-13)


@pytest.mark.parametrize("total,n_in,beta", [(12, 3, 0.9), (40, 40, 2.2), (1, 0, 0.3)])
def test_resource_invariants_accept_the_reference(total, n_in, beta):
    checks.check_resource_invariants(_column(total, n_in, beta), total, n_in - total / 2, beta)


@pytest.mark.parametrize("perturb,message", [
    (lambda d: d * (1 + 1e-9), "norm"),
    (lambda d: d[::-1], "mean sender number"),
    (lambda d: d[:-1], "length"),
])
def test_resource_invariants_reject_a_perturbed_vector(perturb, message):
    total, n_in, beta = 12, 3, 0.9
    with pytest.raises(CheckFailed, match=message):
        checks.check_resource_invariants(perturb(_column(total, n_in, beta)), total, n_in - total / 2, beta)


def test_resource_invariants_reject_a_wrong_spread():
    # norm 1 and mean 1 as for (1, 1) at beta = 0, but the photon is not pinned at n = 1
    spread_out = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    checks.check_resource_invariants(np.array([0.0, 1.0, 0.0]), 2, 0.0, 0.0)
    with pytest.raises(CheckFailed, match="second moment"):
        checks.check_resource_invariants(spread_out, 2, 0.0, 0.0)


def test_check_close_rejects_a_phase_error_the_invariants_miss():
    d = _column(12, 3, 0.9)
    flipped = d * np.where(np.arange(13) == 4, -1, 1)
    checks.check_resource_invariants(flipped, 12, 3 - 6, 0.9)
    with pytest.raises(CheckFailed):
        checks.check_close("resource", flipped, d, checks.RESOURCE_TOL)


def test_check_target_accepts_the_reference_and_rejects_perturbations():
    ref, _ = checks.target_reference("cat", 2.0, 40)
    assert checks.check_target(ref, "cat", 2.0, 1e-12) is not None
    bent = ref.copy()
    bent[2] += 1e-10
    with pytest.raises(CheckFailed):
        checks.check_target(bent, "cat", 2.0, 1e-12)
    short, _ = checks.target_reference("cat", 2.0, 10)
    with pytest.raises(CheckFailed, match="drops"):
        checks.check_target(short, "cat", 2.0, 1e-12)


def _grid_csv(beta_axis, m_axis, values):
    lines = ["beta,m,value"] + [f"{b:.17g},{m:.17g},{values[i, k]:.17g}"
                                for i, m in enumerate(m_axis) for k, b in enumerate(beta_axis)]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_grid_csv_round_trips_and_rejects_a_broken_layout():
    beta_axis = math.pi * np.arange(1, 4) / 4
    m_axis = np.arange(2.0)
    values = np.arange(6.0).reshape(2, 3) / 7
    parsed = checks.parse_grid_csv(_grid_csv(beta_axis, m_axis, values))
    for got, want in zip(parsed, (beta_axis, m_axis, values)):
        assert np.array_equal(got, want)
    checks.check_axes(parsed[0], parsed[1], 3, m_axis)
    swapped = _grid_csv(beta_axis, m_axis, values).replace(b"0.78539816339744828,0,", b"0.7,0,")
    with pytest.raises(CheckFailed):
        checks.parse_grid_csv(swapped)
    with pytest.raises(CheckFailed):
        checks.check_axes(parsed[0], parsed[1], 4, m_axis)


def test_pgm_check_rejects_a_changed_pixel():
    values = np.array([[0.0, 0.5, 1.2], [np.nan, 0.25, 0.75]])
    pixels = np.array([[0, 128, 255], [0, 64, 191]], dtype=np.uint8)
    data = b"P5\n3 2\n255\n" + pixels.tobytes()
    checks.check_pgm(data, values, 1.0)
    with pytest.raises(CheckFailed):
        checks.check_pgm(data[:-1] + b"\x00", values, 1.0)


def test_fidelity_grid_check_rejects_a_small_deviation():
    ref = np.full((2, 3), 0.6)
    checks.check_fidelity_grid(ref + 1e-12, ref)
    with pytest.raises(CheckFailed):
        checks.check_fidelity_grid(ref + np.eye(2, 3) * 1e-8, ref)


def _phase_cells(total=20, grid_size=64):
    beta_axis = np.array([0.6, 1.3])
    n_in = np.array([10, 14])
    blocks = checks.resource_blocks(total, beta_axis, n_in)
    values = np.empty((2, 2))
    for k, block in enumerate(blocks):
        profile = checks.phase_profile_reference(block, grid_size)
        values[:, k] = 2 * np.pi * np.argmax(profile, axis=0) / grid_size
    return values, blocks, grid_size


def test_phase_grid_check_accepts_the_argmax_and_rejects_a_moved_reading():
    values, blocks, grid_size = _phase_cells()
    checks.check_phase_grid(values, blocks, grid_size)
    moved = values.copy()
    moved[1, 0] = (moved[1, 0] + 2 * np.pi * 5 / grid_size) % (2 * np.pi)
    with pytest.raises(CheckFailed, match="direct maximum"):
        checks.check_phase_grid(moved, blocks, grid_size)
    off_grid = values.copy()
    off_grid[0, 1] += 1e-6
    with pytest.raises(CheckFailed, match="off the grid"):
        checks.check_phase_grid(off_grid, blocks, grid_size)


def _figure_fidelity():
    beta_axis = math.pi * np.arange(1, 102) / 102
    blocks = checks.resource_blocks(100, beta_axis, 50 + np.arange(51))
    target, _ = checks.target_reference("cat", 3.0, 120)
    w = target ** 2
    return np.column_stack([checks.fidelity_reference(w, b) for b in blocks]), float(np.sum(w * w))


def test_figure_properties_hold_for_the_reference_and_reject_a_moved_peak():
    fidelity, baseline = _figure_fidelity()
    checks.check_fig2_properties(fidelity, baseline)
    moved = fidelity.copy()
    moved[3, 40] = 1.0
    with pytest.raises(CheckFailed, match="peak"):
        checks.check_fig2_properties(moved, baseline)
    flat = np.full_like(fidelity, math.pi / 2)
    flat[0, 50] = 0.0
    with pytest.raises(CheckFailed, match="balanced cell"):
        checks.check_fig3_properties(flat, fidelity)
