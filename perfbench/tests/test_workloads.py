"""Every workload completes at a tiny size, and its checks reject perturbed program output."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent.parent


def _measure(name, tmp_path, tracer=None):
    workload = workloads.make(name, 7, str(tmp_path), tiny=True)
    workload.warmup()
    measurement = run.Measurement(workload, 0.01, tracer)
    measurement.run()
    return workload, measurement


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_completes_at_a_tiny_size(name, tmp_path):
    _, m = _measure(name, tmp_path)
    assert m.attempted >= 1
    assert m.failed == 0
    assert m.wrong == []
    assert m.cells > 0 and m.op_times


def test_same_seed_gives_the_same_inputs(tmp_path):
    for name in ("large-total", "point-queries"):
        first = [next(workloads.make(name, 5, str(tmp_path)).rounds()) for _ in range(2)]
        assert first[0] == first[1]
        other = next(workloads.make(name, 6, str(tmp_path)).rounds())
        assert other != first[0]


def test_large_total_never_repeats_a_total(tmp_path):
    totals = [item[2] for items in workloads.make("large-total", 1, str(tmp_path)).rounds()
              for item in items]
    assert len(totals) == len(set(totals)) == workloads.LARGE_ROUNDS * 7
    assert min(totals) >= 960 and max(totals) <= 4040
    assert all(total % 2 == 0 for total in totals)


def test_traced_run_reports_every_layer(tmp_path):
    tracer = spans.Tracer()
    workload, m = _measure("fig2-sweep", tmp_path, tracer)
    layers = tracer.layer_metrics()
    assert set(layers) == set(spans.METRICS)
    assert layers["states.resource_calls"] == workload.cells
    assert layers["gridio.bytes"] > 0
    assert 0 < layers["protocol.sweep_self_s"] < layers["protocol.sweep_s"]
    assert layers["phase.map_s"] == 0
    assert m.op_times and tracer.op_times()


def test_tracing_leaves_the_library_as_it_was():
    import bsteleport.protocol
    before = bsteleport.protocol.resource_coeffs
    tracer = spans.Tracer()
    with tracer.installed():
        assert bsteleport.protocol.resource_coeffs is not before
    assert bsteleport.protocol.resource_coeffs is before


def _point_results(workload, items):
    return [workload.run(item) for item in items]


@pytest.mark.parametrize("field,perturb", [
    (1, lambda r: type(r)(r.total, r.coeffs * np.where(np.arange(r.total + 1) == 1, -1, 1))),
    (2, lambda f: f + 1e-8),
    (3, lambda b: b * (1 + 1e-8)),
    (0, lambda t: type(t)(t.coeffs * (1 + 1e-9), t.label)),
])
def test_point_query_check_rejects_a_perturbed_result(field, perturb, tmp_path):
    workload = workloads.make("point-queries", 2, str(tmp_path), tiny=True)
    items = [item for item in next(workload.rounds()) if item[2] >= 2][:4]
    results = _point_results(workload, items)
    bad = [tuple(perturb(x) if i == field else x for i, x in enumerate(r)) for r in results]
    with pytest.raises(checks.CheckFailed):
        workloads.make("point-queries", 2, str(tmp_path), tiny=True).check_round(items, bad)
    workload.check_round(items, results)


def test_point_query_replay_must_reproduce_its_first_result(tmp_path):
    workload = workloads.make("point-queries", 2, str(tmp_path), tiny=True)
    items = next(workload.rounds())[:3]
    results = _point_results(workload, items)
    workload.check_round(items, results)
    target, resource, fidelity, baseline = results[0]
    with pytest.raises(checks.CheckFailed, match="replay"):
        workload.check_round(items[:1], [(target, resource, np.nextafter(fidelity, 2.0), baseline)])


def test_large_total_check_rejects_a_wrong_fidelity(tmp_path):
    workload = workloads.make("large-total", 2, str(tmp_path), tiny=True)
    items = next(workload.rounds())
    results = _point_results(workload, items)
    workload.check_round(items, results)
    target, resource, fidelity, baseline = results[0]
    with pytest.raises(checks.CheckFailed, match="average fidelity"):
        workloads.make("large-total", 2, str(tmp_path), tiny=True).check_round(
            items[:1], [(target, resource, fidelity * (1 + 1e-8), baseline)])


@pytest.mark.parametrize("name", ["fig2-sweep", "fig3-phase-map"])
def test_grid_check_rejects_changed_files(name, tmp_path):
    workload = workloads.make(name, 0, str(tmp_path), tiny=True)
    items = next(workload.rounds())
    result = workload.run(items[0])
    csv = Path(workload.csv).read_bytes()
    lines = csv.split(b"\n")
    beta, m, value = lines[7].split(b",")
    lines[7] = b",".join((beta, m, repr(float(value) * (1 + 1e-6)).encode()))
    Path(workload.csv).write_bytes(b"\n".join(lines))
    with pytest.raises(checks.CheckFailed):
        workload.check_round(items, [result])
    result = workload.run(items[0])
    workload.check_round(items, [result])
    Path(workload.pgm).write_bytes(Path(workload.pgm).read_bytes()[:-1] + b"\x01")
    with pytest.raises(checks.CheckFailed, match="differs from the run's first op"):
        workload.check_round(items, [result])


def test_fails_without_the_program(tmp_path):
    """Without src/ next to it the benchmark exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "point-queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert "{" not in proc.stdout
