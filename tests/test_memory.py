"""Each memory need the library checks against what the same call holds.

The need is the largest one a call passes to the budget check; what it
holds is the tracemalloc peak of a second identical call, after the first
has filled any cache.  tracemalloc sees numpy's arrays, the work arrays of
scipy's LAPACK wrappers included, but not OpenBLAS's or the FFT's own
buffers.  A case that takes a large transform adds what the transform keeps
outside tracemalloc, measured on its own in a fresh interpreter.  The
shapes are large enough that arrays, not Python objects, make up the peak.
"""

import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from bsteleport import numerics, phase, protocol
from bsteleport.phase import phase_argmax, phase_argmax_map
from bsteleport.protocol import fidelity_sweep
from bsteleport.states import ResourceParams, cat_coeffs, fock_coeffs, resource_coeffs, suggest_cutoff

FIG_BETAS = np.pi * np.arange(1, 102) / 102
FIG_MS = np.arange(51.0)
PRIME_GRID = 262139  # numpy's FFT takes Bluestein's padded transform for this K

def _full_fft_map(*args):
    """phase_argmax_map on its full-FFT route, whichever route the rule would choose."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phase, "_MIN_BOUNDED_GRID", np.inf)
        return phase_argmax_map(*args)


# each case builds its inputs and returns the measured call, with the largest
# transform the call takes when that is worth measuring: (numpy.fft function, K)
CASES = {
    "factor-total-1000": lambda: (partial(numerics._factor, 1000), None),
    "factor-total-2000": lambda: (partial(numerics._factor, 2000), None),
    # an even dimension: every mode is a pair, none has eigenvalue 0
    "factor-total-1001": lambda: (partial(numerics._factor, 1001), None),
    "fig2-sweep": lambda: (partial(fidelity_sweep, cat_coeffs(3.0, suggest_cutoff(3.0)), 100,
                                   FIG_BETAS, FIG_MS), None),
    "fig3-phase-map": lambda: (partial(phase_argmax_map, 100, FIG_BETAS, FIG_MS), None),
    "fig3-phase-map-K4095": lambda: (partial(phase_argmax_map, 100, FIG_BETAS, FIG_MS, 4095), None),
    # flat profiles keep every interval, the bounded route's worst case
    "phase-map-flat-profiles": lambda: (partial(phase_argmax_map, 100, np.zeros(51), FIG_MS), None),
    # the largest fine table at Kc = 256 and K = 4096, and past the bounded route: a stride
    # of 4 at total 400 takes the full FFT
    "phase-map-largest-table": lambda: (partial(phase_argmax_map, 127, FIG_BETAS, np.arange(64) + 0.5), None),
    "phase-map-past-the-table": lambda: (partial(phase_argmax_map, 400, FIG_BETAS, [0.0, 1.0, 2.0]), None),
    "fig3-axes-K16-folded": lambda: (partial(phase_argmax_map, 100, FIG_BETAS, FIG_MS, 16), None),
    "beta-axis-1e6": lambda: (partial(phase_argmax_map, 2, np.linspace(0.0, np.pi, 10**6), [0.0], 16), None),
    # the bounded route's huge stride: a fine table of 11 x 8191 points beside a coarse
    # transform of 128; then the same map on the full FFT
    "phase-map-K-2pow20": lambda: (partial(phase_argmax_map, 10, [0.5, 1.0, 2.0], [0.0, 1.0], 2**20), None),
    "phase-map-K-2pow20-full-fft": lambda: (partial(_full_fft_map, 10, [0.5, 1.0, 2.0], [0.0, 1.0], 2**20),
                                            ("rfft", 2**20)),
    "phase-map-K-prime": lambda: (partial(phase_argmax_map, 10, [0.5, 1.0], [0.0], PRIME_GRID),
                                  ("rfft", PRIME_GRID)),
    "cutoff-4096": lambda: (partial(fidelity_sweep, fock_coeffs(0, 4096), 100, FIG_BETAS[::10], [0.0]), None),
    "sweep-total-1000": lambda: (partial(fidelity_sweep, cat_coeffs(3.0, suggest_cutoff(3.0)), 1000,
                                         FIG_BETAS[::2], [0.0, 250.0]), None),
    "cutoff-4096-total-1000": lambda: (partial(fidelity_sweep, fock_coeffs(0, 4096), 1000, FIG_BETAS[::10],
                                               [0.0, 250.0]), None),
    "point-total-1e3": lambda: (partial(resource_coeffs, ResourceParams(500, 500, 1.0)), None),
    "point-total-1e4": lambda: (partial(resource_coeffs, ResourceParams(5000, 5000, 1.0)), None),
    "point-total-1e5": lambda: (partial(resource_coeffs, ResourceParams(50_000, 50_000, 1.0)), None),
    "argmax-K-2pow20": lambda: (partial(phase_argmax, resource_coeffs(ResourceParams(50, 50, 1.0)), 2**20),
                                ("ifft", 2**20)),
    "argmax-K-prime": lambda: (partial(phase_argmax, resource_coeffs(ResourceParams(50, 50, 1.0)), PRIME_GRID),
                               ("ifft", PRIME_GRID)),
}

# growth of the resident high-water mark over one transform of 101 entries at
# n = K, less its output, which tracemalloc sees; ru_maxrss would carry the
# parent's resident size over the fork, so this reads Linux's per-process counts
_BARE_TRANSFORM = """
import sys
import numpy as np
def kib(field):
    return int(next(line for line in open("/proc/self/status") if line.startswith(field)).split()[1])
name, n = sys.argv[1], int(sys.argv[2])
transform = getattr(np.fft, name)
x = np.ones(101, complex if name == "ifft" else float)
transform(x, n=16)
before = kib("VmRSS:")
out = transform(x, n=n).nbytes
print(1024 * (kib("VmHWM:") - before) - out)
"""


def _untraced_fft_bytes(name: str, n: int) -> int:
    if not Path("/proc/self/status").exists():
        pytest.skip("needs Linux's /proc/self/status")
    run = subprocess.run([sys.executable, "-c", _BARE_TRANSFORM, name, str(n)],
                         capture_output=True, text=True, check=True)
    return int(run.stdout)


@pytest.mark.parametrize("case", CASES)
def test_checked_need_bounds_the_peak(case, monkeypatch):
    needs = []
    check = numerics._check_budget

    def recorded(need, what):
        needs.append(need)
        check(need, what)

    for module in (numerics, protocol, phase):
        monkeypatch.setattr(module, "_check_budget", recorded)
    call, transform = CASES[case]()
    call()
    needs.clear()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if transform is not None:
        peak += _untraced_fft_bytes(*transform)
    need = max(needs)
    # the need holds the peak, and counts it at most twice
    assert peak <= need <= 2 * peak, (need, peak)


def test_table_cases_sit_on_each_side_of_the_rule():
    assert phase._coarse_length(128, 4096) == 256  # the largest column at Kc = 256
    assert phase._coarse_length(129, 4096) == 512  # one level past it: a stride of 8
    assert phase._coarse_length(401, 4096) is None  # a stride of 4: the full FFT
    assert phase._coarse_length(101, 4096) == 256  # fig-3
    assert phase._coarse_length(101, 4095) == 273
    assert phase._coarse_length(11, 2**20) == 128  # Kc = 32 and 64 hold a fine table over _CHUNK_BYTES
    assert phase._coarse_length(11, PRIME_GRID) is None
    assert phase._coarse_length(11, 512) is None  # below _MIN_BOUNDED_GRID


@pytest.mark.parametrize("dim, grid_size", [(101, 4096), (127, 4096), (11, 16384)])
def test_table_build_count_bounds_its_peak(dim, grid_size):
    # what building the bounded route's tables holds, against what its count charges per
    # chunk, less the coarse transform's plan, and for the build: fig-3's tables, the
    # largest column at K = 4096 and a long stride
    coarse = phase._coarse_length(dim, grid_size)
    _, per_chunk, build = phase._bounded_bytes(dim, grid_size, coarse)
    count = per_chunk - numerics._fft_bytes(coarse) + build
    phase._bounded_tables(dim, grid_size, coarse)
    tracemalloc.start()
    try:
        phase._bounded_tables(dim, grid_size, coarse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= count <= 2 * peak, (count, peak)


# total, beta samples and target of one sweep reduction: the figure's row, weights
# longer than the sector, and larger totals
REDUCTIONS = {
    "fig2-row": (100, 101, lambda: cat_coeffs(3.0, suggest_cutoff(3.0))),
    "cutoff-4096": (100, 11, lambda: fock_coeffs(0, 4096)),
    "total-1000": (1000, 29, lambda: cat_coeffs(3.0, suggest_cutoff(3.0))),
    "total-1000-one-beta": (1000, 1, lambda: cat_coeffs(3.0, suggest_cutoff(3.0))),
    "cutoff-4096-total-1000": (1000, 29, lambda: fock_coeffs(0, 4096)),
    "total-2001": (2001, 29, lambda: cat_coeffs(3.0, suggest_cutoff(3.0))),
    "cutoff-4096-total-2000": (2000, 1, lambda: fock_coeffs(0, 4096)),
}


@pytest.mark.parametrize("case", REDUCTIONS)
def test_sweep_reduction_count_bounds_its_peak(case):
    # the sweep's reduction of one row with its chunk's trig against its own count, per
    # beta sample and for the build, at its first call, which builds the two kernels the
    # sweep keeps; the factor is made before, as the grid makes it
    total, n_beta, make_target = REDUCTIONS[case]
    target = make_target()
    reduce_row, (per_beta, per_chunk, build) = protocol._sweep_route(target, total)
    factor = numerics._factor(total)
    betas = np.linspace(0.1, 3.0, n_beta)
    protocol._sweep_route(target, total)[0](factor, total // 2, numerics._trig(factor, betas))  # fills numpy's caches
    tracemalloc.start()
    try:
        reduce_row(factor, total // 2, numerics._trig(factor, betas))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = n_beta * per_beta + per_chunk + build
    assert peak <= need <= 2 * peak, (need, peak)


@pytest.mark.parametrize("grid", [
    lambda beta_axis: phase_argmax_map(2, beta_axis, [0.0, 1.0], 16),
    lambda beta_axis: fidelity_sweep(cat_coeffs(3.0, suggest_cutoff(3.0)), 2, beta_axis, [0.0, 1.0]),
], ids=["phase-map", "sweep"])
def test_refused_grid_holds_less_than_the_limit(grid, monkeypatch):
    # a grid whose axis lengths alone exceed the limit is refused before the beta axis
    # is sorted and paired with its mirrors, which holds up to 40 bytes per beta
    # sample: this call once held 29.5 MB under a 10 MiB limit before it was refused
    monkeypatch.setattr(numerics, "MAX_GRID_BYTES", 10 << 20)
    beta_axis = np.linspace(0.0, np.pi, 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MiB limit"):
            grid(beta_axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < numerics.MAX_GRID_BYTES, peak
