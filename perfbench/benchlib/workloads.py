"""The benchmark's two workloads, driven through the public ``repro`` API.

Every workload runs in this one process at ``jobs=1`` on the vectorized
engine backend, against its own artifact cache under the run's work
directory.  A workload exposes the same four steps to the measuring loop:

* ``new_cache()`` — replace the cache with an empty one (untimed);
* ``cold_phase()`` — the cold builds one set-up round repeats (timed);
* ``before_pass()`` — reset the state a pass must start from (untimed);
* ``run_pass(region)`` — one pass; only the work inside ``region`` is
  timed, and the outputs are checked against digests afterwards.

Why these workloads (see ``perfbench/README.md``): ``table3-sweep`` is the
paper's headline table and the only one where the engine and pricing
run; ``cold-build`` is the only one where graph generation, orderings,
partitioning, edge orders and artifact writes run.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import store
from repro.experiments.results import ResultsStore
from repro.experiments.runner import prepare
from repro.experiments.sweep import expand_matrix, group_cells, run_matrix
from repro.frameworks.personality import FRAMEWORKS as FRAMEWORK_MODELS
from repro.graph.datasets import DEFAULT_SUITE
from repro.store import serialization

from benchlib.checks import artifact_digest, cell_digest

DEFAULT_SEED = 12345
BACKEND = "vectorized"

# The Table III matrix of benchmarks/conftest.py (BENCH_SCALE, TABLE3_*).
SCALE = 0.4
SWEEP_GRAPHS = ("twitter", "friendster", "usaroad")
ALGORITHMS = ("PR", "BFS", "PRD", "BF", "CC", "BC", "SPMV", "BP")
FRAMEWORKS = ("ligra", "polymer", "graphgrind")
ORDERINGS = ("original", "vebo")
ALGO_KWARGS = {"PR": {"num_iterations": 10}, "BP": {"num_iterations": 10}}

# cold-build: every paper stand-in at SCALE, plus Gorder at Table VI's
# configuration (at SCALE it alone would take 6-116 s per graph).
COLD_GRAPHS = DEFAULT_SUITE
COLD_PARTITIONS = 384
COLD_ORDERINGS = ("rcm", "slashburn")
GORDER_GRAPH, GORDER_SCALE, GORDER_WINDOW = "twitter", 0.15, 5

#: Set-up rounds per run; ``setup_s`` reports their median.
SETUP_ROUNDS = 3


@dataclass
class PassResult:
    seconds: float
    op_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _remove(path: Path) -> None:
    """Delete a file or tree and flush the deletion to disk."""
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()
    os.sync()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


class _Workload:
    name = ""
    setup_rounds = SETUP_ROUNDS

    def __init__(self, workdir: Path, seed: int, pins: dict, scale: float = SCALE):
        self.workdir = Path(workdir)
        self.scale = scale
        self.params = {"scale": scale, "seed": seed}
        self._pins = pins if pins.get("seed") == seed and pins.get("scale") == scale else {}
        self._caches = 0
        self.cache_root = self.workdir / "cache-0"
        self.cache = store.ArtifactCache(self.cache_root)

    def new_cache(self) -> None:
        _remove(self.cache_root)
        self._caches += 1
        self.cache_root = self.workdir / f"cache-{self._caches}"
        self.cache_root.mkdir(parents=True)
        self.cache = store.ArtifactCache(self.cache_root)

    def cold_phase(self) -> None:
        """The cold builds one set-up round repeats (none by default)."""

    def before_pass(self) -> None:
        raise NotImplementedError

    def run_pass(self, region=nullcontext) -> PassResult:
        raise NotImplementedError


class SweepWorkload(_Workload):
    """``table3-sweep``: ``run_matrix`` over the Table III matrix with warm
    graphs and orderings and an empty trace store, every cell persisted
    to a fresh ``ResultsStore`` as ``sweep run`` does.  An op is one
    execution group (one execution, priced under each framework)."""

    name = "table3-sweep"

    def __init__(self, workdir, seed, pins, scale=SCALE, graphs=SWEEP_GRAPHS,
                 algorithms=ALGORITHMS):
        super().__init__(workdir, seed, pins, scale)
        self.graphs = tuple(graphs)
        self.algorithms = tuple(algorithms)
        cells = expand_matrix(
            self.graphs, self.algorithms, FRAMEWORKS, ORDERINGS,
            params=self.params, algo_kwargs=ALGO_KWARGS, backend=BACKEND,
        )
        self.groups = [[cell.label() for cell in g] for g in group_cells(cells)]
        pinned = self._pins.get("cells")
        self.expected = (
            {label: pinned.get(label) for g in self.groups for label in g}
            if pinned else None
        )
        self.results_path = self.workdir / "results.jsonl"

    def cold_phase(self) -> None:
        partitions = {FRAMEWORK_MODELS[f].default_partitions for f in FRAMEWORKS}
        for name in self.graphs:
            graph = store.load_graph(name, cache=self.cache, **self.params)
            for ordering in ORDERINGS:
                for p in partitions:
                    prepare(graph, ordering, p, cache=self.cache)

    def before_pass(self) -> None:
        _remove(self.results_path)
        _remove(self.cache_root / "trace")

    def run_pass(self, region=nullcontext) -> PassResult:
        done: list = []
        stamps: list[float] = []

        def progress(cell, result, skipped):
            stamps.append(time.perf_counter())
            done.append((cell, result))

        results = ResultsStore(self.results_path)
        with region():
            t0 = time.perf_counter()
            try:
                run_matrix(
                    self.graphs, self.algorithms, FRAMEWORKS, ORDERINGS,
                    params=self.params, algo_kwargs=ALGO_KWARGS, backend=BACKEND,
                    jobs=1, store=results, cache=self.cache, progress=progress,
                )
            except Exception:
                _report_failure(f"{self.name} pass")
            seconds = time.perf_counter() - t0

        digests = {cell.label(): cell_digest(result) for cell, result in done}
        if self.expected is None:
            self.expected = digests  # the warm-up pass is the reference
        bad = {label for label, d in digests.items() if self.expected.get(label) != d}
        out = PassResult(seconds=seconds, attempted=len(self.groups))
        start, n = t0, 0
        for group in self.groups:
            n += len(group)
            if n > len(stamps):
                out.failed += 1  # the pass raised before this group ended
                continue
            out.op_seconds.append(stamps[n - 1] - start)
            start = stamps[n - 1]
            if bad.intersection(group):
                out.failed += 1
        return out


class ColdBuildWorkload(_Workload):
    """``cold-build``: every pass starts from an empty cache and builds,
    for each paper stand-in, the graph, its VEBO partition, its Hilbert
    edge order and its RCM and SlashBurn orderings, plus Gorder on
    twitter at Table VI's scale.  An op is one artifact build."""

    name = "cold-build"
    setup_rounds = 0  # the warm-up pass is itself the cold build

    def __init__(self, workdir, seed, pins, scale=SCALE, graphs=COLD_GRAPHS,
                 gorder_scale=GORDER_SCALE):
        super().__init__(workdir, seed, pins, scale)
        self.graphs = tuple(graphs)
        self.gorder_params = {"scale": gorder_scale, "seed": seed}
        self.expected = self._pins.get("artifacts")

    def before_pass(self) -> None:
        self.new_cache()

    def _builds(self):
        """``(label, build, pack)`` per op, in build order; ``build`` takes
        the outputs so far (the graph ops feed the others)."""
        cache = self.cache
        ops = []
        for name in self.graphs:
            ops.append((f"{name}/graph",
                        lambda out, n=name: store.load_graph(n, cache=cache, **self.params),
                        lambda g: (serialization.pack_graph(g),)))
            ops.append((f"{name}/partition-vebo",
                        lambda out, n=name: store.cached_partition(
                            out[f"{n}/graph"], COLD_PARTITIONS, ordering="vebo", cache=cache),
                        lambda pg: (serialization.pack_partition(pg),)))
            ops.append((f"{name}/edgeorder-hilbert",
                        lambda out, n=name: store.cached_edge_order(
                            out[f"{n}/graph"], "hilbert", cache=cache),
                        lambda eo: (serialization.pack_edge_order(eo),)))
            for ordering in COLD_ORDERINGS:
                ops.append((f"{name}/ordering-{ordering}",
                            lambda out, n=name, o=ordering: store.cached_ordering(
                                out[f"{n}/graph"], o, cache=cache),
                            lambda r: (serialization.pack_ordering(r),)))

        def gorder(out):
            graph = store.load_graph(GORDER_GRAPH, cache=cache, **self.gorder_params)
            return graph, store.cached_ordering(
                graph, "gorder", window=GORDER_WINDOW, cache=cache)

        ops.append((f"{GORDER_GRAPH}@{self.gorder_params['scale']}/ordering-gorder",
                    gorder,
                    lambda pair: (serialization.pack_graph(pair[0]),
                                  serialization.pack_ordering(pair[1]))))
        return ops

    def run_pass(self, region=nullcontext) -> PassResult:
        ops = self._builds()
        outputs: dict = {}
        op_seconds: list[float] = []
        with region():
            t0 = time.perf_counter()
            for label, build, _pack in ops:
                t = time.perf_counter()
                try:
                    outputs[label] = build(outputs)
                except Exception:  # includes a missing input graph
                    _report_failure(f"{self.name} op {label}")
                op_seconds.append(time.perf_counter() - t)
            seconds = time.perf_counter() - t0

        digests = {
            label: artifact_digest(*pack(outputs[label]))
            for label, _build, pack in ops if label in outputs
        }
        if self.expected is None:
            self.expected = digests  # the warm-up pass is the reference
        failed = sum(
            1 for label, _b, _p in ops
            if label not in digests or self.expected.get(label) != digests[label]
        )
        return PassResult(seconds, op_seconds, attempted=len(ops), failed=failed)


WORKLOADS = {
    w.name: w for w in (SweepWorkload, ColdBuildWorkload)
}
