"""The benchmark's four workloads: seeded inputs, one op, and the check of its outputs.

A workload yields its ops in whole rounds.  The runner times each op on its own
and calls check_round on a round's results outside the timed part.  Inputs depend
only on the seed; the program receives nothing but the generated arguments.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import struct

import numpy as np

# the library is called through module attributes, so spans.Tracer can route the calls
import bsteleport
import bsteleport.cli

import checks

FIG_TOTAL = 100
FIG_BETA_STEPS = 101
FIG_ALPHA = 3.0
PHASE_GRID = 4096
TAIL_TOL = 1e-12  # the library's and the CLI's default
# the reference target is cut where its tail is far below TAIL_TOL
REFERENCE_CUTOFF = 120
# 0.5 to 4.0 in steps of 0.05: a continuous draw hits the suggest_cutoff /
# cat_coeffs tail mismatch now and then (see CHANGES.md), so alpha is discrete
ALPHAS = tuple(round(0.5 + 0.05 * k, 2) for k in range(71))
CYCLE_ROUNDS = 16  # fresh point-query rounds before they replay
LARGE_ROUNDS = 21  # rounds of distinct large totals a run can draw


class GridWorkload:
    """One CLI grid command at total 100, run in-process with workers=1."""

    command = ""
    scale = 1.0
    min_ops = 5  # an op takes seconds; five make op_s_p50 a median

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        del seed  # the figure's grid is fixed; nothing in it is drawn
        self.tiny = tiny
        self.total = 12 if tiny else FIG_TOTAL
        self.beta_steps = 5 if tiny else FIG_BETA_STEPS
        self.csv = os.path.join(workdir, f"{self.command}.csv")
        self.pgm = os.path.join(workdir, f"{self.command}.pgm")
        self.argv = [self.command, *self.extra_args(), "--total", str(self.total),
                     "--beta-steps", str(self.beta_steps), "--workers", "1",
                     "--csv", self.csv, "--pgm", self.pgm]
        self.m_axis = np.arange(self.total // 2 + 1, dtype=float)
        self.cells = self.beta_steps * len(self.m_axis)
        self._first = None

    def extra_args(self) -> list[str]:
        return []

    def rounds(self):
        while True:
            yield [self.total]

    def warmup(self) -> None:
        self._main([self.command, *self.extra_args(), "--total", str(self.total), "--beta-steps", "2",
                    "--m-range", "0:1", "--workers", "1", "--csv", self.csv, "--pgm", self.pgm])

    def total_of(self, item) -> int:
        return item

    def run(self, item) -> tuple[int, str]:
        return self._main(self.argv)

    @staticmethod
    def _main(argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bsteleport.cli.main(argv)
        return code, out.getvalue()

    def check_round(self, items, results) -> None:
        if not results:
            return
        code, stdout = results[0]
        if code != 0:
            raise checks.CheckFailed(f"{self.command} exited {code}")
        with open(self.csv, "rb") as handle:
            csv = handle.read()
        with open(self.pgm, "rb") as handle:
            pgm = handle.read()
        if self._first is not None:
            if (csv, pgm, stdout) != self._first:
                raise checks.CheckFailed(f"{self.command} output differs from the run's first op")
            return
        beta_axis, m_axis, values = checks.parse_grid_csv(csv)
        checks.check_axes(beta_axis, m_axis, self.beta_steps, self.m_axis)
        checks.check_pgm(pgm, values, self.scale)
        self._check_stdout(stdout, beta_axis, m_axis, values)
        blocks = checks.resource_blocks(self.total, beta_axis, (self.total // 2 + m_axis).astype(int))
        target, _ = checks.target_reference("cat", FIG_ALPHA, REFERENCE_CUTOFF)
        weights = target ** 2
        fidelity = np.column_stack([checks.fidelity_reference(weights, block) for block in blocks])
        self.check_values(values, blocks, fidelity, float(np.sum(weights ** 2)))
        self._first = (csv, pgm, stdout)

    def _check_stdout(self, stdout, beta_axis, m_axis, values) -> None:
        lines = stdout.splitlines()
        want = [f"wrote {self.csv}", f"wrote {self.pgm}"]
        if lines[:2] != want or len(lines) != 3:
            raise checks.CheckFailed(f"{self.command} printed {lines[:2]}")
        i, k = np.unravel_index(int(np.argmax(values)), values.shape)
        summary = f"max={values[i, k]:.17g} at beta={beta_axis[k]:.17g} m={m_axis[i]:g}"
        if lines[2] != summary:
            raise checks.CheckFailed(f"summary {lines[2]!r}, expected {summary!r}")

    def check_values(self, values, blocks, fidelity, baseline) -> None:
        raise NotImplementedError


class Fig2Sweep(GridWorkload):
    command = "sweep"

    def extra_args(self):
        return ["--target", "cat", "--alpha", str(FIG_ALPHA)]

    def check_values(self, values, blocks, fidelity, baseline) -> None:
        checks.check_fidelity_grid(values, fidelity)
        if not self.tiny:
            checks.check_fig2_properties(values, baseline)


class Fig3PhaseMap(GridWorkload):
    command = "phase-map"
    scale = math.pi / 2

    def extra_args(self):
        return ["--phi-grid", str(PHASE_GRID)]

    def check_values(self, values, blocks, fidelity, baseline) -> None:
        checks.check_phase_grid(values, blocks, PHASE_GRID)
        if not self.tiny:
            checks.check_fig3_properties(values, fidelity)


class PointWorkload:
    """Single-point library queries: target, resource, average fidelity and baseline."""

    cells = 1
    min_ops = 1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.replayed = 0
        self._targets = {}
        self._digests = {}  # query -> digest of its checked result

    def _draw(self, total: int, kind: str, alpha: float):
        n_in = int(self.rng.integers(0, total + 1))
        beta = float(self.rng.uniform(0.0, math.pi))
        return kind, alpha, total, n_in, beta

    def warmup(self) -> None:
        self.run(("cat", 2.0, 50, 20, 1.0))

    def total_of(self, item) -> int:
        return item[2]

    def run(self, item):
        kind, alpha, total, n_in, beta = item
        make_target = bsteleport.cat_coeffs if kind == "cat" else bsteleport.coherent_coeffs
        target = make_target(alpha, bsteleport.suggest_cutoff(alpha, kind, TAIL_TOL), TAIL_TOL)
        resource = bsteleport.resource_coeffs(bsteleport.ResourceParams(n_in, total - n_in, beta))
        return (target, resource, bsteleport.average_fidelity(target, resource),
                bsteleport.classical_baseline(target))

    def _reference_target(self, kind, alpha, coeffs) -> np.ndarray:
        key = (kind, alpha, len(coeffs))
        if key not in self._targets:
            self._targets[key] = checks.check_target(coeffs, kind, alpha, TAIL_TOL)
        else:
            checks.check_close(f"{kind}({alpha}) coefficients", coeffs, self._targets[key],
                               checks.TARGET_TOL)
        return self._targets[key]

    def check_round(self, items, results) -> None:
        for item, (target, resource, fidelity, baseline) in zip(items, results):
            digest = hashlib.sha256(b"".join((target.coeffs.tobytes(), resource.coeffs.tobytes(),
                                              struct.pack("<2d", fidelity, baseline)))).digest()
            if item in self._digests:
                self.replayed += 1
                if digest != self._digests[item]:
                    raise checks.CheckFailed(f"query {item!r} gave a different result on replay")
                continue
            self._check_query(item, target, resource, fidelity, baseline)
            self._digests[item] = digest

    def _check_query(self, item, target, resource, fidelity, baseline) -> None:
        kind, alpha, total, n_in, beta = item
        ref = self._reference_target(kind, alpha, target.coeffs)
        d = resource.coeffs
        if resource.total != total:
            raise checks.CheckFailed(f"resource total {resource.total}, expected {total}")
        checks.check_resource_invariants(d, total, n_in - total / 2, beta)
        if total <= checks.EXPM_MAX_TOTAL:
            d = checks.sector_unitary(total, beta)[:, n_in]
            checks.check_close(f"resource {item!r}", resource.coeffs, d, checks.RESOURCE_TOL)
        weights = ref ** 2
        checks.check_close("average fidelity", fidelity, checks.fidelity_reference(weights, d),
                           checks.FIDELITY_TOL)
        checks.check_close("classical baseline", baseline, np.sum(weights ** 2), checks.FIDELITY_TOL)


class LargeTotal(PointWorkload):
    """Fidelity points at distinct even totals spread from 1000 to 4000.

    Each round holds one total from each stratum, in ascending order.  A stratum's
    offsets are a seeded choice of LARGE_ROUNDS distinct even values in [-40, 40],
    used from the largest down: no total repeats, every round costs about the same,
    and the run's largest allocation comes first, so peak RSS does not depend on
    the order the seed happens to give.  Totals stay even because the kernel takes
    about 1.6 times as long at an even total as at the odd one next to it.
    """

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        centres = (40, 60) if tiny else tuple(range(1000, 4001, 500))
        choices = np.arange(-40, 41, 2)
        self.strata = [(c, np.sort(self.rng.choice(choices, LARGE_ROUNDS, replace=False))[::-1])
                       for c in centres]
        self.min_ops = 2 * len(centres)  # whole rounds: peak RSS depends on how many ran

    def rounds(self):
        for r in range(LARGE_ROUNDS):
            yield [self._draw(int(c + offsets[r]), "cat", FIG_ALPHA) for c, offsets in self.strata]


class PointQueries(PointWorkload):
    """Queries at totals 1..200 with cat or coherent targets and an automatic cutoff.

    After CYCLE_ROUNDS fresh rounds the run replays them in order, so the checks
    against expm stay bounded however fast the queries get; a replayed query must
    reproduce its first result bit for bit.
    """

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.max_total = 20 if tiny else 200
        self.round_size = 16 if tiny else 256

    def rounds(self):
        cycle = []
        for r in itertools.count():
            if r < CYCLE_ROUNDS:
                cycle.append([self._draw(int(self.rng.integers(1, self.max_total + 1)),
                                         ("cat", "coherent")[int(self.rng.integers(0, 2))],
                                         ALPHAS[int(self.rng.integers(0, len(ALPHAS)))])
                              for _ in range(self.round_size)])
            yield cycle[r % CYCLE_ROUNDS]


def make(name: str, seed: int, workdir: str, tiny: bool = False):
    if name == "fig2-sweep":
        return Fig2Sweep(seed, workdir, tiny)
    if name == "fig3-phase-map":
        return Fig3PhaseMap(seed, workdir, tiny)
    if name == "large-total":
        return LargeTotal(seed, tiny)
    if name == "point-queries":
        return PointQueries(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
