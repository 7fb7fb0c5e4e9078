"""Layer spans for the traced benchmark run, recorded from outside the package.

Tracing swaps a public name in the module that calls it for a wrapper that
records a span (name, start, end, parent span, op id) and restores the
original afterwards, so nothing under ``src/`` is edited. Spans are kept in
memory; the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (module whose global is swapped, global name, span name). A span is named
# after the layer that defines the function, not the module that calls it.
BOUNDARIES = (
    ("telebench.cli", "run_benchmark", "teleport_bench.run_benchmark"),
    ("telebench.cli", "run_state", "teleport_bench.run_state"),
    ("telebench.cli", "report_json_text", "cli.report_json_text"),
    ("telebench.cli", "report_csv_text", "cli.report_csv_text"),
    ("telebench.teleport_bench", "apply_circuit", "circuit.apply_circuit"),
    ("telebench.teleport_bench", "simulate_readout", "tomography.simulate_readout"),
    ("telebench.teleport_bench", "mle_reconstruct", "tomography.mle_reconstruct"),
    ("telebench.teleport_bench", "pauli_set", "tomography.pauli_set"),
    ("telebench.teleport_bench", "witness_evaluate", "entanglement.witness_evaluate"),
    ("telebench.teleport_bench", "three_tangle_mixed_upper", "entanglement.three_tangle_mixed_upper"),
    ("telebench.teleport_bench", "conditional_output_state", "teleport_bench.conditional_output_state"),
    ("telebench.teleport_bench", "process_tomography", "teleport_bench.process_tomography"),
    ("telebench.teleport_bench", "nearest_physical", "qops.nearest_physical"),
    ("telebench.tomography", "nearest_physical", "qops.nearest_physical"),
)
# Counted without a span: 1,008 calls per bench op make a span's own cost
# visible. A refactor that removes the call legitimately reports 0.
COUNTED = (("telebench.tomography", "pauli_operator", "qops.pauli_operator"),)

ROOT_SPAN = "cli.main"
TANGLE_SPAN = "entanglement.three_tangle_mixed_upper"
_EIGEN_FLOOR = 1e-12  # the eigenvalue cut three_tangle_mixed_upper applies


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0


class Recorder:
    """In-memory span and count store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.tangle_ranks: list[int] = []
        self.origin = perf_counter()
        self._stack: list[int] = []
        self._op = -1

    def _timed(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._op, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == TANGLE_SPAN:
                # Counted before the span opens, so it costs the layer nothing.
                rho = args[0] if args else kwargs["rho"]
                self.tangle_ranks.append(int(np.sum(np.linalg.eigvalsh(rho.matrix) > _EIGEN_FLOOR)))
            return self._timed(name, fn, *args, **kwargs)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def tracing(self, op: int):
        """Install the wrappers for the duration of one op, then restore."""
        saved = []
        try:
            for table, make in ((BOUNDARIES, self._span_wrapper), (COUNTED, self._count_wrapper)):
                for module_name, attr, name in table:
                    module = importlib.import_module(module_name)
                    if hasattr(module, attr):
                        original = getattr(module, attr)
                        saved.append((module, attr, original))
                        setattr(module, attr, make(name, original))
            self._op = op
            yield lambda fn, *args: self._timed(ROOT_SPAN, fn, *args)
        finally:
            self._op = -1
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self time per span name; self time excludes child spans."""
        child = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            calls[span.name] += 1
            self_s[span.name] += span.end - span.start - child[index]
        return calls, self_s

    def dump(self) -> list:
        return [[s.name, s.start - self.origin, s.end - self.origin, s.parent, s.op] for s in self.spans]


def layer_metrics(recorder: Recorder, ops: int, required: frozenset[str]) -> dict[str, float]:
    """Per-op layer metrics; raise if a boundary the workload must cross saw no span."""
    calls, self_s = recorder.totals()
    missing = sorted(name for name in required if calls[name] == 0)
    if missing:
        raise RuntimeError(f"traced run recorded no span for required boundaries {missing}")
    metrics = {
        "cli.self_s_per_op": self_s[ROOT_SPAN] / ops,
        "teleport_bench.self_s_per_op": (self_s["teleport_bench.run_benchmark"] + self_s["teleport_bench.run_state"]) / ops,
        "teleport_bench.processes_done_ratio": calls["teleport_bench.process_tomography"] / (4 * ops),
        "qops.pauli_operator.calls": recorder.counts["qops.pauli_operator"] / ops,
        "entanglement.tangle_input_rank": float(np.mean(recorder.tangle_ranks)) if recorder.tangle_ranks else 0.0,
    }
    for _, _, name in BOUNDARIES:
        metrics[f"{name}.calls"] = calls[name] / ops
        metrics[f"{name}.s_per_op"] = self_s[name] / ops
    return metrics
