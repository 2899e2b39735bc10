"""Machine-model calibration: coefficient recovery + personality files.

Two contracts live here.  The fitter
(`repro.machine.calibrate.fit_machine`): generate synthetic (work,
seconds) pairs under a *known* MachineModel via the exact pricing
arithmetic, fit, and the known knobs must come back — near-exactly when
noiseless, within loose tolerance under measurement noise; knobs the
data cannot identify fall back to the base model instead of fitting
noise.  The personality files (`repro.machine.models`):
save -> load -> save is byte-identical, and malformed files are rejected
with `CalibrationError`, never half-parsed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CalibrationError
from repro.machine.calibrate import (
    DEFAULT_DST_MISS,
    DEFAULT_SRC_MISS,
    CalibrationSample,
    fit_machine,
    predict_seconds,
)
from repro.machine.cost import DEFAULT_COST_MODEL
from repro.machine.models import (
    MACHINES,
    MachineModel,
    get_machine,
    load_machine,
    load_user_machines,
    machine_from_dict,
    machine_to_dict,
    save_machine,
    user_machines_dir,
)

# ----------------------------------------------------------------------
# synthetic-pair generation: features varied enough to identify every knob
# ----------------------------------------------------------------------

# (edges, unique_dsts, unique_srcs, vertices) work mixes: edge-heavy,
# dst-heavy, vertexmap-like, balanced — spread so no two feature columns
# are collinear.
WORK_MIXES = [
    (50_000, 300, 800, 0),
    (5_000, 2_000, 100, 0),
    (0, 0, 0, 4_000),
    (20_000, 1_000, 1_000, 500),
    (80_000, 50, 4_000, 200),
]


def synthetic_samples(machine: MachineModel, *, remote=(0.0, 0.3, 0.7),
                      misses=((0.05, 0.02), (0.3, 0.1), (0.6, 0.4)),
                      noise: np.ndarray | None = None):
    """Price every (work mix, miss pair, remote fraction) combination
    under ``machine`` with the exact deployed arithmetic."""
    samples = []
    for e, d, s_, v in WORK_MIXES:
        for sm, dm in misses:
            for r in remote:
                samples.append(CalibrationSample(
                    seconds=0.0, edges=e, unique_dsts=d, unique_srcs=s_,
                    vertices=v, src_miss=sm, dst_miss=dm, remote_fraction=r,
                ))
    seconds = predict_seconds(samples, machine)
    if noise is not None:
        seconds = seconds * (1.0 + noise[: len(samples)])
    return [
        CalibrationSample(
            seconds=float(sec), edges=s.edges, unique_dsts=s.unique_dsts,
            unique_srcs=s.unique_srcs, vertices=s.vertices,
            src_miss=s.src_miss, dst_miss=s.dst_miss,
            remote_fraction=s.remote_fraction,
        )
        for s, sec in zip(samples, seconds)
    ]


knobs = st.tuples(
    st.floats(min_value=0.05, max_value=8.0),   # time_scale
    st.floats(min_value=0.25, max_value=12.0),  # miss_penalty
    st.floats(min_value=1.0, max_value=4.0),    # remote_factor
)


@settings(max_examples=40, deadline=None)
@given(knobs)
def test_fit_recovers_known_knobs_noiseless(tup):
    ts, mp, rf = tup
    truth = MachineModel(name="truth", miss_penalty=mp, remote_factor=rf,
                         time_scale=ts)
    cal = fit_machine(synthetic_samples(truth), name="fit")
    m = cal.machine
    assert m.time_scale == pytest.approx(ts, rel=1e-6)
    assert m.miss_penalty == pytest.approx(mp, rel=1e-5, abs=1e-9)
    # rf enters through mp*(rf-1): at rf == 1 the C column is all zero
    # and the knob is unobservable -> base fallback is the contract.
    if rf > 1.0 + 1e-9:
        assert m.remote_factor == pytest.approx(rf, rel=1e-4)
    assert cal.overall_relative_error == pytest.approx(0.0, abs=1e-9)
    assert cal.num_samples == len(WORK_MIXES) * 9


@settings(max_examples=15, deadline=None)
@given(knobs, st.integers(min_value=0, max_value=2**31 - 1))
def test_fit_recovers_known_knobs_under_noise(tup, seed):
    ts, mp, rf = tup
    truth = MachineModel(name="truth", miss_penalty=mp, remote_factor=rf,
                         time_scale=ts)
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-0.02, 0.02, size=len(WORK_MIXES) * 9)
    cal = fit_machine(synthetic_samples(truth, noise=noise), name="fit")
    # 2% multiplicative noise: knobs within loose tolerance, prediction
    # aggregate within a few percent.
    assert cal.machine.time_scale == pytest.approx(ts, rel=0.25)
    assert cal.overall_relative_error < 0.05


def test_fit_thread_only_samples_keeps_base_remote_factor():
    """Real thread measurements are all NUMA-local (r = 0 throughout):
    the remote factor is unobservable and must fall back to the base."""
    truth = MachineModel(name="truth", miss_penalty=2.0, remote_factor=3.0,
                         time_scale=0.5)
    cal = fit_machine(synthetic_samples(truth, remote=(0.0,)), name="fit")
    assert cal.machine.remote_factor == DEFAULT_COST_MODEL.remote_factor
    assert cal.machine.time_scale == pytest.approx(0.5, rel=1e-6)
    assert cal.machine.miss_penalty == pytest.approx(2.0, rel=1e-5)


def test_fit_miss_free_samples_keeps_base_miss_penalty():
    truth = MachineModel(name="truth", miss_penalty=5.0, time_scale=2.0)
    cal = fit_machine(
        synthetic_samples(truth, misses=((0.0, 0.0),), remote=(0.0,)),
        name="fit",
    )
    assert cal.machine.miss_penalty == DEFAULT_COST_MODEL.miss_penalty
    assert cal.machine.remote_factor == DEFAULT_COST_MODEL.remote_factor
    assert cal.machine.time_scale == pytest.approx(2.0, rel=1e-6)


def test_fit_backs_off_to_physical_solution():
    """Noise that drives the full basis unphysical (negative weights)
    must degrade to a smaller basis, not raise or emit an invalid
    machine — the real-measurement case."""
    truth = MachineModel(name="truth", time_scale=0.5)
    # Identical miss fractions everywhere make A and B nearly collinear;
    # alternating noise then pushes the joint solve unphysical.
    samples = synthetic_samples(truth, misses=((0.2, 0.2),), remote=(0.0,))
    rng = np.random.default_rng(7)
    noisy = [
        CalibrationSample(
            seconds=s.seconds * float(rng.uniform(0.5, 1.5)),
            edges=s.edges, unique_dsts=s.unique_dsts,
            unique_srcs=s.unique_srcs, vertices=s.vertices,
            src_miss=s.src_miss, dst_miss=s.dst_miss,
            remote_fraction=s.remote_fraction,
        )
        for s in samples
    ]
    cal = fit_machine(noisy, name="fit")
    assert cal.machine.time_scale > 0
    assert cal.machine.miss_penalty >= 0
    assert cal.machine.remote_factor >= 1.0


def test_fit_error_paths():
    with pytest.raises(CalibrationError, match="no measurement samples"):
        fit_machine([])
    zero_work = [CalibrationSample(seconds=1.0)]
    with pytest.raises(CalibrationError, match="no modelled work"):
        fit_machine(zero_work)
    bad = [CalibrationSample(seconds=float("nan"), edges=100.0)]
    with pytest.raises(CalibrationError, match="finite"):
        fit_machine(bad)
    neg = [CalibrationSample(seconds=-1.0, edges=100.0)]
    with pytest.raises(CalibrationError, match="finite"):
        fit_machine(neg)


def test_fit_report_groups_by_algorithm_and_graph():
    truth = MachineModel(name="truth", time_scale=1.5)
    labelled = [
        CalibrationSample(
            seconds=s.seconds, edges=s.edges, unique_dsts=s.unique_dsts,
            unique_srcs=s.unique_srcs, vertices=s.vertices,
            src_miss=s.src_miss, dst_miss=s.dst_miss,
            remote_fraction=s.remote_fraction,
            algorithm="PR" if i % 2 == 0 else "BFS",
            graph="twitter",
        )
        for i, s in enumerate(synthetic_samples(truth))
    ]
    cal = fit_machine(labelled, name="fit")
    rows = cal.report_rows()
    assert [(r["algorithm"], r["graph"]) for r in rows] == [
        ("BFS", "twitter"), ("PR", "twitter"),
    ]
    assert sum(r["samples"] for r in rows) == cal.num_samples
    for r in rows:
        assert r["rel_error"] == pytest.approx(0.0, abs=1e-9)
        assert r["measured_s"] > 0


def test_sample_from_record_sentinels_and_malformed():
    s = CalibrationSample.from_record(
        {"seconds": 0.25, "edges": 10, "src_miss": -1.0, "dst_miss": -1.0}
    )
    assert s.src_miss == DEFAULT_SRC_MISS and s.dst_miss == DEFAULT_DST_MISS
    s = CalibrationSample.from_record(
        {"seconds": 0.25, "src_miss": 0.4, "dst_miss": 0.0}
    )
    assert s.src_miss == 0.4 and s.dst_miss == 0.0
    with pytest.raises(CalibrationError, match="malformed"):
        CalibrationSample.from_record({})  # no seconds at all
    with pytest.raises(CalibrationError, match="malformed"):
        CalibrationSample.from_record({"seconds": "soon"})


# ----------------------------------------------------------------------
# personality files: round-trip byte identity + strict rejection
# ----------------------------------------------------------------------

def test_save_load_save_is_byte_identical(tmp_path):
    model = MachineModel(
        name="bench", description="fitted",
        num_sockets=2, threads_per_socket=24,
        miss_penalty=3.25, remote_factor=1.75,
        time_scale=0.7317280091828403,  # full-precision float survives
    )
    p1, p2 = tmp_path / "a.json", tmp_path / "sub" / "b.json"
    save_machine(model, p1)
    loaded = load_machine(p1)
    assert loaded == model
    save_machine(loaded, p2)  # save_machine mkdirs parents
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")


def test_dict_round_trip_and_builtin_coverage():
    for name in MACHINES:
        model = get_machine(name)
        assert machine_from_dict(machine_to_dict(model)) == model


def test_load_rejects_malformed_files(tmp_path):
    cases = {
        "notjson.json": "{nope",
        "list.json": "[1, 2]\n",
        "unknown.json": json.dumps({"name": "x", "cores": 8}),
        "noname.json": json.dumps({"time_scale": 1.0}),
        "badvalue.json": json.dumps({"name": "x", "num_sockets": "many"}),
        "invalid.json": json.dumps({"name": "x", "time_scale": -1.0}),
        "emptyname.json": json.dumps({"name": ""}),
    }
    for fname, text in cases.items():
        path = tmp_path / fname
        path.write_text(text)
        with pytest.raises(CalibrationError):
            load_machine(path)
    with pytest.raises(CalibrationError):
        load_machine(tmp_path / "missing.json")


@pytest.mark.parametrize("knob", ["miss_penalty", "remote_factor", "time_scale"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_non_finite_knobs(tmp_path, knob, literal):
    # Python's json parser accepts these literals, and NaN passes every
    # ordered range check; the loader must refuse them all the same.
    path = tmp_path / "nanbox.json"
    path.write_text('{"name": "nanbox", "%s": %s}' % (knob, literal))
    with pytest.raises(CalibrationError, match="finite"):
        load_machine(path)


def test_load_user_machines_registers_and_guards(tmp_path):
    mdir = user_machines_dir(tmp_path)
    model = MachineModel(name="usertest-calib", time_scale=0.9)
    save_machine(model, mdir / "usertest-calib.json")
    try:
        assert load_user_machines(tmp_path) == [model]
        assert get_machine("usertest-calib") == model
        # Idempotent: an identical re-load registers nothing new.
        assert load_user_machines(tmp_path) == []
        # A *conflicting* redefinition of a live name is an error, not a
        # silent overwrite.
        clash = MachineModel(name="usertest-calib", time_scale=0.1)
        save_machine(clash, mdir / "clash.json")
        with pytest.raises(CalibrationError, match="redefines"):
            load_user_machines(tmp_path)
    finally:
        MACHINES.pop("usertest-calib", None)
