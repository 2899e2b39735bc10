"""Per-layer spans for the traced run, recorded from outside the library.

Nothing under ``src/`` is instrumented for the benchmark.  Instead,
:func:`instrument` rebinds each layer's public functions *where their
callers look them up* (a module attribute, a class attribute or a
registry entry) to a wrapper that opens a span, calls the original and
closes the span, and restores every binding on exit.  Untraced passes
therefore run the library's own code with no wrapper at all.

A span is ``[name, start, end, parent]`` kept in memory by a
:class:`Tracer`; a layer's self time is its spans' durations minus the
part their child spans cover.  The pass itself is the root span, so the
root's self time (``experiments.self_s``) is the pass time no layer span
covers, and all self times of one pass add up to its duration.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import numpy as np

ROOT_SPAN = "pass"

#: span name -> its self-time metric (see :func:`_bindings` for what each
#: span wraps).
SPAN_METRICS = {
    "machine.price": "machine.price_s",
    "machine.schedule": "machine.schedule_s",
    "machine.locality": "machine.locality_s",
    "frameworks.execute": "frameworks.execute_s",
    "store.trace_save": "store.trace_save_s",
    "store.trace_load": "store.trace_load_s",
    "store.graph_load": "store.graph_load_s",
    "store.write": "store.write_s",
    "store.read": "store.read_s",
    "graph.build": "graph.build_s",
    "ordering.vebo": "ordering.vebo_s",
    "ordering.rcm": "ordering.rcm_s",
    "ordering.slashburn": "ordering.slashburn_s",
    "ordering.gorder": "ordering.gorder_s",
    "ordering.prepare": "ordering.prepare_s",
    "partition.build": "partition.build_s",
    "edgeorder.hilbert": "edgeorder.hilbert_s",
    "experiments.results_append": "experiments.results_append_s",
    ROOT_SPAN: "experiments.self_s",
}

#: Exact per-pass counts, in the order they are reported.
COUNT_METRICS = (
    "machine.cells_priced",
    "machine.records_priced",
    "machine.schedule_calls",
    "machine.schedule_tasks",
    "machine.locality_calls",
    "frameworks.executions",
    "frameworks.edges",
    "store.trace_saves",
    "store.trace_loads",
    "store.graph_loads",
    "store.writes",
    "store.reads",
    "graph.edges_built",
)

#: Traced pass_s minus untraced pass_s (medians of one traced run).
OVERHEAD_METRIC = "trace.overhead_s"

_MB = 1e6


def metric_units() -> dict[str, str]:
    """Every per-layer metric name -> its unit."""
    units = {name: "s" for name in SPAN_METRICS.values()}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({
        "frameworks.edges_per_s": "1/s",
        "store.trace_save_mb": "MB",
        "store.trace_load_mb": "MB",
        "store.write_mb": "MB",
        "store.hit_ratio": "1",
    })
    units[OVERHEAD_METRIC] = "s"
    return units


class Tracer:
    """In-memory spans plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.executed_traces: list = []  # edges are summed after the pass
        self._pass_start = 0

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    # ------------------------------------------------------------------
    @contextmanager
    def traced_pass(self):
        """Record one pass under a root span; :meth:`pass_metrics` and
        :meth:`pass_seconds` then describe it."""
        self._pass_start = len(self.spans)
        self.counts = Counter()
        self.executed_traces = []
        self.open(ROOT_SPAN)
        try:
            yield
        finally:
            self.close()

    def pass_seconds(self) -> float:
        """Duration of the most recent pass."""
        root = self.spans[self._pass_start]
        return root[2] - root[1]

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the most recent pass."""
        first = self._pass_start
        spans = self.spans[first:]
        self_time = [s[2] - s[1] for s in spans]
        for s in spans[1:]:
            self_time[s[3] - first] -= s[2] - s[1]
        out = {metric: 0.0 for metric in SPAN_METRICS.values()}
        for s, t in zip(spans, self_time):
            out[SPAN_METRICS[s[0]]] += t
        counts = self.counts
        counts["frameworks.edges"] = sum(
            t.total_edges() for t in self.executed_traces
        )
        for name in COUNT_METRICS:
            out[name] = float(counts[name])
        execute_s = out["frameworks.execute_s"]
        out["frameworks.edges_per_s"] = (
            counts["frameworks.edges"] / execute_s if execute_s > 0 else 0.0
        )
        out["store.trace_save_mb"] = counts["trace_save_bytes"] / _MB
        out["store.trace_load_mb"] = counts["trace_load_bytes"] / _MB
        out["store.write_mb"] = counts["write_bytes"] / _MB
        lookups = counts["artifact_lookups"]
        out["store.hit_ratio"] = (
            counts["artifact_hits"] / lookups if lookups else 0.0
        )
        return out

    def write(self, path: Path) -> None:
        """Write every span recorded so far as JSON (times relative to the
        first span, parents as indices into the list)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# counters, one per wrapped function: (tracer, args, result)
# ----------------------------------------------------------------------

def _nbytes(arrays: dict) -> int:
    return sum(np.asarray(a).nbytes for a in arrays.values())


def _count_price(tracer, args, result):
    tracer.counts["machine.cells_priced"] += 1
    tracer.counts["machine.records_priced"] += len(args[1].records)


def _count_schedule(tracer, args, result):
    tracer.counts["machine.schedule_calls"] += 1
    tracer.counts["machine.schedule_tasks"] += len(args[0])


def _count_locality(tracer, args, result):
    tracer.counts["machine.locality_calls"] += 1


def _count_execute(tracer, args, result):
    tracer.counts["frameworks.executions"] += 1
    tracer.executed_traces.append(result.trace)


def _count_trace_save(tracer, args, result):
    tracer.counts["store.trace_saves"] += 1


def _count_trace_load(tracer, args, result):
    tracer.counts["store.trace_loads"] += 1


def _count_graph_load(tracer, args, result):
    tracer.counts["store.graph_loads"] += 1


def _count_write(tracer, args, result):
    kind, arrays = args[1], args[3]
    size = _nbytes(arrays)
    tracer.counts["store.writes"] += 1
    tracer.counts["write_bytes"] += size
    if kind == "trace":
        tracer.counts["trace_save_bytes"] += size


def _count_read(tracer, args, result):
    kind = args[1]
    tracer.counts["store.reads"] += 1
    if kind == "trace":
        # Trace-store lookups miss by design in table3-sweep (its trace
        # store starts empty); they are reported as trace loads instead.
        if result is not None:
            tracer.counts["trace_load_bytes"] += _nbytes(result)
        return
    tracer.counts["artifact_lookups"] += 1
    if result is not None:
        tracer.counts["artifact_hits"] += 1


def _count_build(tracer, args, result):
    tracer.counts["graph.edges_built"] += result.num_edges


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if count is not None:
            count(tracer, args, result)
        return result

    return wrapper


def _bindings():
    """``(owner, attribute, span name, counter)`` for every wrapped
    function.  ``owner`` is where the layer's caller looks the function
    up: the schedulers are rebound on ``repro.frameworks.personality``,
    ``measure_stream`` on the runner, ``prepare`` on the sweep."""
    import repro.edgeorder.orders as edgeorder_orders
    import repro.experiments.runner as runner
    import repro.experiments.sweep as sweep
    import repro.frameworks.personality as personality
    import repro.partition.algorithm1 as algorithm1
    import repro.store as store
    from repro.algorithms import ALGORITHMS
    from repro.experiments.results import ResultsStore
    from repro.ordering import ORDERING_REGISTRY
    from repro.store.cache import ArtifactCache
    from repro.store.registry import DatasetSpec

    out = [
        (personality.FrameworkModel, "price", "machine.price", _count_price),
        (runner, "measure_stream", "machine.locality", _count_locality),
        (store, "save_trace", "store.trace_save", _count_trace_save),
        (store, "load_trace", "store.trace_load", _count_trace_load),
        (store, "load_graph", "store.graph_load", _count_graph_load),
        (ArtifactCache, "store", "store.write", _count_write),
        (ArtifactCache, "load", "store.read", _count_read),
        (DatasetSpec, "build", "graph.build", _count_build),
        (sweep, "prepare", "ordering.prepare", None),
        (algorithm1, "partition_by_destination", "partition.build", None),
        (edgeorder_orders, "order_edges", "edgeorder.hilbert", None),
        (ResultsStore, "append", "experiments.results_append", None),
    ]
    for scheduler in (
        "static_block_schedule",
        "greedy_dynamic_schedule",
        "cilk_recursive_schedule",
        "static_numa_schedule",
        "hierarchical_numa_schedule",
    ):
        out.append((personality, scheduler, "machine.schedule", _count_schedule))
    for algo in ALGORITHMS:
        out.append((ALGORITHMS, algo, "frameworks.execute", _count_execute))
    for ordering in ("vebo", "rcm", "slashburn", "gorder"):
        out.append((ORDERING_REGISTRY, ordering, f"ordering.{ordering}", None))
    return out


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every layer function to a span-recording wrapper for the
    duration of the block; the original bindings are restored on exit."""
    undo = []
    try:
        for owner, attr, name, count in _bindings():
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = _wrap(tracer, name, original, count)
                undo.append(lambda o=owner, a=attr, f=original: o.__setitem__(a, f))
            else:
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, _wrap(tracer, name, original, count))
                undo.append(lambda o=owner, a=attr, f=original: setattr(o, a, f))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()
