"""Unit tests for the scheduling simulators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schedule_oracle
from repro.errors import SimulationError
from repro.machine import schedule
from repro.machine.schedule import (
    cilk_recursive_schedule,
    greedy_dynamic_schedule,
    hierarchical_numa_schedule,
    static_block_schedule,
    static_numa_schedule,
)


class TestStaticBlock:
    def test_uniform_costs_balanced(self):
        r = static_block_schedule(np.full(48, 1.0), 8)
        assert r.makespan == pytest.approx(6.0)
        assert r.imbalance_ratio == pytest.approx(1.0)

    def test_clustered_costs_hurt(self):
        costs = np.zeros(16)
        costs[:4] = 1.0  # all heavy tasks in worker 0's block
        r = static_block_schedule(costs, 4)
        assert r.makespan == pytest.approx(4.0)
        assert r.imbalance_ratio == pytest.approx(4.0)

    def test_spread_costs_fine(self):
        costs = np.zeros(16)
        costs[::4] = 1.0  # one heavy task per block
        r = static_block_schedule(costs, 4)
        assert r.makespan == pytest.approx(1.0)

    def test_fewer_tasks_than_workers(self):
        r = static_block_schedule(np.array([3.0, 1.0]), 8)
        assert r.makespan == pytest.approx(3.0)

    def test_total_work_conserved(self):
        rng = np.random.default_rng(0)
        costs = rng.random(37)
        r = static_block_schedule(costs, 5)
        assert r.total_work == pytest.approx(costs.sum())


class TestGreedyDynamic:
    def test_absorbs_clustering(self):
        costs = np.zeros(16)
        costs[:4] = 1.0
        r = greedy_dynamic_schedule(costs, 4)
        assert r.makespan == pytest.approx(1.0)  # each worker takes one

    def test_graham_bound(self):
        rng = np.random.default_rng(1)
        costs = rng.random(100)
        w = 7
        r = greedy_dynamic_schedule(costs, w)
        opt_lb = max(costs.max(), costs.sum() / w)
        assert r.makespan <= (2 - 1 / w) * opt_lb + 1e-12

    def test_empty(self):
        r = greedy_dynamic_schedule(np.array([]), 4)
        assert r.makespan == 0.0


class TestCilk:
    def test_contiguous_leaves(self):
        # Heavy cluster hurts less than static but more than ideal when it
        # fits into one grain-sized leaf.
        costs = np.zeros(64)
        costs[:8] = 1.0
        r = cilk_recursive_schedule(costs, 4, grain=8)
        assert 2.0 <= r.makespan <= 8.0

    def test_balanced_input_near_ideal(self):
        costs = np.full(384, 1.0)
        r = cilk_recursive_schedule(costs, 48)
        assert r.makespan == pytest.approx(384 / 48, rel=0.3)

    def test_steal_overhead_charged(self):
        costs = np.full(64, 1.0)
        a = cilk_recursive_schedule(costs, 4, steal_overhead=0.0)
        b = cilk_recursive_schedule(costs, 4, steal_overhead=0.5)
        assert b.makespan >= a.makespan

    def test_empty(self):
        r = cilk_recursive_schedule(np.array([]), 4)
        assert r.makespan == 0.0


class TestNumaSchedules:
    def test_static_hier_socket_isolation(self):
        # 8 tasks, 2 sockets x 2 threads; socket 1's tasks are heavy.
        costs = np.array([1, 1, 1, 1, 4, 4, 4, 4], dtype=float)
        homes = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        r = static_numa_schedule(costs, homes, 2, 2)
        assert r.makespan == pytest.approx(8.0)  # socket 1: 16 work / 2 threads

    def test_hier_dynamic_within_socket(self):
        costs = np.array([4, 0, 0, 0, 1, 1, 1, 1], dtype=float)
        homes = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        r = hierarchical_numa_schedule(costs, homes, 2, 2)
        # socket 0: dynamic over [4,0,0,0] with 2 threads = 4
        assert r.makespan == pytest.approx(4.0)

    def test_mismatched_homes_rejected(self):
        with pytest.raises(SimulationError):
            static_numa_schedule(np.ones(4), np.zeros(3, dtype=np.int64), 2, 2)

    def test_negative_costs_rejected(self):
        with pytest.raises(SimulationError):
            static_block_schedule(np.array([-1.0]), 2)

    def test_zero_workers_rejected(self):
        with pytest.raises(SimulationError):
            greedy_dynamic_schedule(np.ones(4), 0)


class TestPolicyComparison:
    def test_dynamic_tolerates_clusters(self):
        """The paper's core systems claim: dynamic scheduling tolerates the
        clustered imbalance that static block scheduling suffers from."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            costs = np.zeros(96)
            heavy = rng.integers(0, 12)  # heavy run inside one block
            costs[heavy * 8 : heavy * 8 + 8] = rng.pareto(1.5, 8) + 1.0
            s = static_block_schedule(costs, 12).makespan
            d = greedy_dynamic_schedule(costs, 12).makespan
            assert d <= s + 1e-12

    def test_dynamic_within_graham_factor_of_static(self):
        """On arbitrary inputs greedy list scheduling may lose to a lucky
        static split, but never by more than Graham's (2 - 1/W) factor."""
        rng = np.random.default_rng(3)
        w = 8
        for _ in range(10):
            costs = rng.pareto(1.5, size=96)
            s = static_block_schedule(costs, w).makespan
            d = greedy_dynamic_schedule(costs, w).makespan
            assert d <= (2 - 1 / w) * s + 1e-12


class TestValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_costs_rejected(self, bad):
        # The heap scheduler once returned a silent 3.0 for [1, nan, 2, 3];
        # a NaN or infinite task cost is refused by every policy instead.
        costs = np.array([1.0, bad, 2.0, 3.0])
        homes = np.array([0, 0, 1, 1])
        calls = [
            lambda c: static_block_schedule(c, 2),
            lambda c: greedy_dynamic_schedule(c, 2),
            lambda c: cilk_recursive_schedule(c, 2),
            lambda c: static_numa_schedule(c, homes, 2, 1),
            lambda c: hierarchical_numa_schedule(c, homes, 2, 1),
        ]
        for call in calls:
            with pytest.raises(SimulationError, match="finite"):
                call(costs)
            with pytest.raises(SimulationError, match="finite"):
                call(np.vstack([np.ones(4), costs]))

    def test_three_dimensional_costs_rejected(self):
        with pytest.raises(SimulationError):
            static_block_schedule(np.ones((2, 2, 2)), 2)


# ----------------------------------------------------------------------
# Batched kernels against the original one-vector implementations
# ----------------------------------------------------------------------

def _policies(num_workers, grain, steal_overhead, homes, num_sockets, threads):
    """(name, call) pairs; ``call(module, costs)`` runs one policy."""
    return [
        ("static", lambda m, c: m.static_block_schedule(c, num_workers)),
        ("dynamic", lambda m, c: m.greedy_dynamic_schedule(c, num_workers)),
        ("cilk", lambda m, c: m.cilk_recursive_schedule(
            c, num_workers, grain=grain, steal_overhead=steal_overhead)),
        ("static-hier", lambda m, c: m.static_numa_schedule(
            c, homes, num_sockets, threads)),
        ("numa-hier", lambda m, c: m.hierarchical_numa_schedule(
            c, homes, num_sockets, threads)),
    ]


def _assert_matches_oracle(costs, **config):
    for name, call in _policies(**config):
        batched = call(schedule, costs)
        assert batched.policy == name
        assert batched.makespan.shape == (costs.shape[0],)
        for row in range(costs.shape[0]):
            want = call(schedule_oracle, costs[row])
            single = call(schedule, costs[row])
            assert isinstance(single.makespan, float), name
            for got in (batched.makespan[row], single.makespan):
                assert np.float64(got).tobytes() == np.float64(want.makespan).tobytes(), name
            for got in (batched.per_worker[row], single.per_worker):
                assert got.tobytes() == want.per_worker.tobytes(), name


_task_cost = st.one_of(
    st.just(0.0),  # about half the tasks are empty chunks
    st.one_of(
        st.sampled_from([0.25, 1.0, 3.0]),  # ties between workers
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)
        .map(abs),
    ),
)


@st.composite
def _schedule_cases(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    tasks = draw(st.integers(min_value=0, max_value=48))
    costs = np.array(
        draw(st.lists(_task_cost, min_size=rows * tasks, max_size=rows * tasks)),
        dtype=np.float64,
    ).reshape(rows, tasks)
    num_sockets = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        homes = (np.arange(tasks) * num_sockets) // max(tasks, 1)
    else:  # arbitrary, non-contiguous homes
        homes = np.array(
            draw(st.lists(st.integers(0, num_sockets - 1), min_size=tasks, max_size=tasks)),
            dtype=np.int64,
        )
    config = dict(
        num_workers=draw(st.integers(min_value=1, max_value=12)),  # W > T too
        grain=draw(st.integers(min_value=1, max_value=6)),
        steal_overhead=draw(st.sampled_from([0.0, 2.0e-7, 0.5])),
        homes=homes,
        num_sockets=num_sockets,
        threads=draw(st.integers(min_value=1, max_value=5)),
    )
    return costs, config


@given(_schedule_cases())
@settings(max_examples=200, deadline=None)
def test_batched_schedulers_match_oracle_bit_for_bit(case):
    costs, config = case
    _assert_matches_oracle(costs, **config)


def test_segment_sums_round_like_one_dimensional_sums():
    """Regression: 8-element segments of 96-column rows (the paper
    machine's Polymer thread blocks).  Summing gathered segments as a
    3-D ``sum(axis=2)``, or straight from a fancy-index gather that came
    back non-contiguous, rounds 1 ulp away from ``row[lo:hi].sum()`` on
    many of these rows."""
    rng = np.random.default_rng(0)
    costs = 10.0 ** rng.uniform(-9, -3, size=(16, 96))
    homes = np.repeat(np.arange(4), 24)
    _assert_matches_oracle(
        costs, num_workers=12, grain=8, steal_overhead=2.0e-7,
        homes=homes, num_sockets=4, threads=3,
    )
    _assert_matches_oracle(  # one 8-element segment per socket
        costs, num_workers=12, grain=1, steal_overhead=0.0,
        homes=np.repeat(np.arange(12), 8), num_sockets=12, threads=1,
    )


def test_empty_matrix_and_empty_rows():
    for costs in (np.zeros((0, 8)), np.zeros((3, 0))):
        _assert_matches_oracle(
            costs, num_workers=4, grain=1, steal_overhead=0.1,
            homes=np.zeros(costs.shape[1], dtype=np.int64), num_sockets=2, threads=2,
        )
