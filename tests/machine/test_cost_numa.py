"""Unit tests for the cost model and NUMA topology."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.machine.cost import CostModel, PartitionWork
from repro.machine.numa import NUMATopology, PAPER_MACHINE


class TestNUMATopology:
    def test_paper_machine(self):
        assert PAPER_MACHINE.num_threads == 48
        assert PAPER_MACHINE.num_sockets == 4

    def test_socket_of_thread(self):
        assert PAPER_MACHINE.socket_of_thread(0) == 0
        assert PAPER_MACHINE.socket_of_thread(12) == 1
        assert PAPER_MACHINE.socket_of_thread(47) == 3

    def test_partition_homes_block_distribution(self):
        homes = PAPER_MACHINE.partition_home_sockets(384)
        assert homes[0] == 0
        assert homes[-1] == 3
        counts = np.bincount(homes)
        assert list(counts) == [96, 96, 96, 96]

    def test_partition_homes_uneven(self):
        topo = NUMATopology(2, 4)
        homes = topo.partition_home_sockets(3)
        assert homes.size == 3
        assert set(homes.tolist()) <= {0, 1}

    def test_thread_blocks_cover(self):
        blocks = PAPER_MACHINE.thread_blocks(100)
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 100
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_topology(self):
        with pytest.raises(SimulationError):
            NUMATopology(0, 4)


class TestCostModel:
    def _work(self, **kw):
        base = dict(
            edges=np.array([100.0]),
            unique_dsts=np.array([10.0]),
            unique_srcs=np.array([50.0]),
            vertices=np.array([10.0]),
            src_miss_fraction=0.0,
            dst_miss_fraction=0.0,
        )
        base.update(kw)
        return PartitionWork(**base)

    def test_zero_miss_baseline(self):
        m = CostModel(miss_penalty=10.0)
        t = m.partition_seconds(self._work())
        expected = m.t_edge * 100 + m.t_dst * 10 + m.t_src * 50 + m.t_vertex * 10
        assert t[0] == pytest.approx(expected)

    def test_misses_increase_cost(self):
        m = CostModel()
        base = m.partition_seconds(self._work())
        missy = m.partition_seconds(self._work(src_miss_fraction=0.5))
        assert missy[0] > base[0]

    def test_remote_fraction_increases_cost(self):
        m = CostModel()
        w = self._work(src_miss_fraction=0.5)
        local = m.partition_seconds(w, remote_fraction=0.0)
        remote = m.partition_seconds(w, remote_fraction=1.0)
        assert remote[0] > local[0]

    def test_more_destinations_cost_more(self):
        """The Figure 1 phenomenology: at equal edge counts, partitions
        with more unique destinations take longer."""
        m = CostModel()
        few = m.partition_seconds(self._work(unique_dsts=np.array([5.0])))
        many = m.partition_seconds(self._work(unique_dsts=np.array([500.0])))
        assert many[0] > 2 * few[0]

    def test_vectorized_over_partitions(self):
        m = CostModel()
        w = PartitionWork(
            edges=np.array([10.0, 20.0]),
            unique_dsts=np.array([1.0, 2.0]),
            unique_srcs=np.array([5.0, 5.0]),
            vertices=np.array([1.0, 1.0]),
        )
        t = m.partition_seconds(w)
        assert t.shape == (2,)
        assert t[1] > t[0]

    def test_vertexmap_numa_penalty(self):
        m = CostModel()
        v = np.array([100.0])
        assert m.vertexmap_seconds(v, 1.0)[0] > m.vertexmap_seconds(v, 0.0)[0]

    def test_scaled(self):
        m = CostModel()
        m2 = m.scaled(2.0)
        assert m2.t_edge == pytest.approx(2 * m.t_edge)
        with pytest.raises(SimulationError):
            m.scaled(0.0)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(SimulationError):
            CostModel(t_edge=-1.0)
        with pytest.raises(SimulationError):
            CostModel(remote_factor=0.5)

    @pytest.mark.parametrize("knob", [
        "t_edge", "t_dst", "t_src", "t_vertex", "miss_penalty", "remote_factor",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_coefficients(self, knob, value):
        # NaN passes every ordered range check; it must still be refused.
        with pytest.raises(SimulationError, match="finite"):
            CostModel(**{knob: value})
        with pytest.raises(SimulationError):
            CostModel().scaled(value)

    def test_from_stats(self, small_powerlaw):
        from repro.partition import chunk_boundaries, compute_stats

        b = chunk_boundaries(small_powerlaw.in_degrees(), 4)
        st = compute_stats(small_powerlaw, b)
        w = PartitionWork.from_stats(st)
        assert w.edges.sum() == small_powerlaw.num_edges
