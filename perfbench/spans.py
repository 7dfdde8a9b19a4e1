"""Spans around calls into bsteleport's public functions, recorded from outside.

While installed, the tracer replaces each listed function, in every bsteleport
module that holds a reference to it, with a wrapper that records a span: name,
start, end and the index of its parent span.  Spans stay in memory until the run
writes them out.  Nothing inside src/ is changed.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time

import bsteleport.cli
import bsteleport.gridio
import bsteleport.phase
import bsteleport.protocol
import bsteleport.states

LAYERS = {
    "states.target": (bsteleport.states.suggest_cutoff, bsteleport.states.cat_coeffs,
                      bsteleport.states.coherent_coeffs),
    "states.resource": (bsteleport.states.resource_coeffs,),
    "protocol.reduce": (bsteleport.protocol.average_fidelity,),
    "protocol.sweep": (bsteleport.protocol.fidelity_sweep,),
    "phase.argmax": (bsteleport.phase.phase_argmax,),
    "phase.map": (bsteleport.phase.phase_argmax_map,),
    "gridio.csv": (bsteleport.gridio.grid_to_csv_bytes,),
    "gridio.pgm": (bsteleport.gridio.grid_to_pgm_bytes,),
    "gridio.write": (bsteleport.gridio.atomic_write_bytes,),
    "cli.main": (bsteleport.cli.main,),
}
OP = "op"

# per-layer metric -> (unit, spans it sums or "self" of one span minus its children)
METRICS = {
    "states.target_s": ("s", "states.target"),
    "states.resource_s": ("s", "states.resource"),
    "states.resource_calls": ("count", "states.resource"),
    "protocol.reduce_s": ("s", "protocol.reduce"),
    "protocol.sweep_s": ("s", "protocol.sweep"),
    "protocol.sweep_self_s": ("s", "protocol.sweep"),
    "phase.argmax_s": ("s", "phase.argmax"),
    "phase.map_s": ("s", "phase.map"),
    "phase.map_self_s": ("s", "phase.map"),
    "gridio.csv_s": ("s", "gridio.csv"),
    "gridio.pgm_s": ("s", "gridio.pgm"),
    "gridio.write_s": ("s", "gridio.write"),
    "gridio.bytes": ("B", "gridio.write"),
    "cli.self_s": ("s", "cli.main"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, bytes written]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, size]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def op(self):
        """The root span of one op; the layer spans recorded inside it are its descendants."""
        return self.span(OP)

    def _wrap(self, name: str, func):
        def traced(*args, **kwargs):
            size = len(args[1]) if name == "gridio.write" else 0
            with self.span(name, size):
                return func(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every reference to a LAYERS function through a recording wrapper."""
        wrappers = {id(func): self._wrap(name, func) for name, funcs in LAYERS.items() for func in funcs}
        patched = []
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "bsteleport":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Mean per traced op of every METRICS entry."""
        children: dict[int, list[int]] = {}
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        ops = [i for i, span in enumerate(self.spans) if span[0] == OP]
        totals = {metric: 0.0 for metric in METRICS}
        for index, (name, start, end, _, size) in enumerate(self.spans):
            for metric, (unit, layer) in METRICS.items():
                if layer != name:
                    continue
                if metric.endswith("self_s"):
                    inner = sum(self.spans[c][2] - self.spans[c][1] for c in children.get(index, ()))
                    totals[metric] += end - start - inner
                elif unit == "count":
                    totals[metric] += 1
                elif unit == "B":
                    totals[metric] += size
                else:
                    totals[metric] += end - start
        return {metric: value / max(len(ops), 1) for metric, value in totals.items()}

    def op_times(self) -> list[float]:
        return [end - start for name, start, end, _, _ in self.spans if name == OP]

    def dump(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "bytes"],
                       "spans": [[n, s - origin, e - origin, p, b] for n, s, e, p, b in self.spans]},
                      handle)


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    """Median traced op time over median untraced op time, as a percentage above 1."""
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds that recording one span adds to a call, measured on a call that does nothing."""
    def bare():
        return None

    wrapped = Tracer()._wrap("calibration", bare)
    start = time.perf_counter()
    for _ in range(calls):
        bare()
    middle = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return ((time.perf_counter() - middle) - (middle - start)) / calls
