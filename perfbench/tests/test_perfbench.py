"""Tests of the repository benchmark itself (``perfbench/``), on tiny
matrices so they run in seconds."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

from benchlib import layers, measure, workloads as wl  # noqa: E402

SEED = 7
TINY = 0.05


def _conftest():
    spec = importlib.util.spec_from_file_location(
        "perfbench_table3_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep(tmp_path, pins=None):
    return wl.SweepWorkload(tmp_path, SEED, pins or {}, scale=TINY,
                            graphs=("twitter",), algorithms=("PR", "BFS"))


def _cold(tmp_path, pins=None):
    return wl.ColdBuildWorkload(tmp_path, SEED, pins or {}, scale=TINY,
                                graphs=("usaroad",), gorder_scale=TINY)


def _set_up(workload) -> measure.Report:
    report = measure.Report(metrics={}, units={})
    measure.set_up(workload, 0.0, report)
    return report


def test_matrix_is_the_table3_matrix_of_the_gates():
    conftest = _conftest()
    assert wl.SCALE == conftest.BENCH_SCALE
    assert list(wl.ALGORITHMS) == conftest.TABLE3_ALGOS
    assert list(wl.FRAMEWORKS) == conftest.TABLE3_FRAMEWORKS
    assert list(wl.ORDERINGS) == conftest.TABLE3_ORDERINGS
    assert wl.ALGO_KWARGS == conftest.TABLE3_ALGO_KWARGS
    assert set(wl.SWEEP_GRAPHS) <= set(conftest.ALL_GRAPHS)
    assert set(wl.COLD_GRAPHS) == set(conftest.ALL_GRAPHS)


def test_perturbed_pinned_cell_digest_fails_ops(tmp_path):
    reference = _sweep(tmp_path / "ref")
    assert _set_up(reference).error_rate == 0
    cells = dict(reference.expected)
    pins = {"seed": SEED, "scale": TINY, "cells": cells}
    assert _set_up(_sweep(tmp_path / "same", pins)).error_rate == 0

    label = next(iter(cells))
    cells[label] = "0" * 16
    report = _set_up(_sweep(tmp_path / "perturbed", pins))
    assert report.failed == 1 and report.error_rate > 0


def test_perturbed_pinned_artifact_digest_fails_ops(tmp_path):
    reference = _cold(tmp_path / "ref")
    assert _set_up(reference).error_rate == 0
    artifacts = dict(reference.expected)
    artifacts["usaroad/ordering-rcm"] = "0" * 40
    report = _set_up(_cold(tmp_path / "perturbed",
                           {"seed": SEED, "scale": TINY, "artifacts": artifacts}))
    assert report.failed == 1 and report.error_rate > 0


def test_every_pass_must_reproduce_the_first(tmp_path):
    workload = _sweep(tmp_path)
    _set_up(workload)
    workload.expected[next(iter(workload.expected))] = "0" * 16
    assert measure._one_pass(workload).failed == 1


def _traced_pass(workload):
    tracer = layers.Tracer()
    import repro.store

    original = repro.store.load_graph
    result = measure._one_pass(workload, tracer)
    assert repro.store.load_graph is original  # bindings restored
    return result, tracer


@pytest.mark.parametrize("make", [_sweep, _cold])
def test_traced_self_times_account_for_the_traced_pass(tmp_path, make):
    workload = make(tmp_path)
    _set_up(workload)
    result, tracer = _traced_pass(workload)
    assert result.failed == 0
    metrics = tracer.pass_metrics()
    self_times = sum(metrics[name] for name in layers.SPAN_METRICS.values())
    assert self_times == pytest.approx(tracer.pass_seconds(), rel=1e-9, abs=1e-9)
    assert all(metrics[name] >= 0 for name in layers.COUNT_METRICS)

    if workload.name == "table3-sweep":
        assert metrics["frameworks.executions"] == len(workload.groups)
        assert metrics["machine.cells_priced"] == sum(map(len, workload.groups))
        assert metrics["store.hit_ratio"] == 1.0
    else:
        assert metrics["frameworks.executions"] == 0
        assert metrics["machine.cells_priced"] == 0
        assert metrics["store.writes"] == result.attempted + 1  # gorder: graph + ordering


def test_metric_names_are_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    emitted = {
        "end_to_end": measure.END_TO_END_UNITS,
        "per_layer": layers.metric_units(),
    }
    for kind in declared:
        assert emitted[kind] == declared[kind]
        for name in emitted[kind]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
