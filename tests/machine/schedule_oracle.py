"""Reference oracle for the batched schedulers in
:mod:`repro.machine.schedule`.

These are the original one-vector implementations — a ``heapq`` list
scheduler and per-segment Python loops — kept verbatim so the property
tests can demand that every batched kernel reproduces them bit for bit
(``makespan`` and ``per_worker`` bytes) on every row of a cost matrix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "ScheduleResult",
    "static_block_schedule",
    "greedy_dynamic_schedule",
    "cilk_recursive_schedule",
    "static_numa_schedule",
    "hierarchical_numa_schedule",
]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a set of tasks on ``num_workers`` workers."""

    makespan: float
    per_worker: np.ndarray  # busy time of each worker
    policy: str

    @property
    def total_work(self) -> float:
        return float(self.per_worker.sum())

    @property
    def imbalance_ratio(self) -> float:
        """makespan / ideal — 1.0 means perfectly balanced."""
        num_workers = self.per_worker.size
        ideal = self.total_work / num_workers if num_workers else 0.0
        return self.makespan / ideal if ideal > 0 else 1.0


def _check(costs: np.ndarray, num_workers: int) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 1:
        raise SimulationError("task costs must be a 1-D array")
    if np.any(costs < 0):
        raise SimulationError("task costs must be non-negative")
    if num_workers <= 0:
        raise SimulationError("num_workers must be positive")
    return costs


def static_block_schedule(costs: np.ndarray, num_workers: int) -> ScheduleResult:
    """Contiguous block assignment: worker w gets tasks [w*T/W, (w+1)*T/W).

    This is OpenMP ``schedule(static)`` / Polymer's partition binding: the
    loop completes when the most loaded worker does, so any imbalance in
    the cost vector translates 1:1 into lost time.
    """
    costs = _check(costs, num_workers)
    per_worker = np.zeros(num_workers, dtype=np.float64)
    n = costs.size
    base, extra = divmod(n, num_workers)
    lo = 0
    for w in range(num_workers):
        hi = lo + base + (1 if w < extra else 0)
        per_worker[w] = costs[lo:hi].sum()
        lo = hi
    return ScheduleResult(
        makespan=float(per_worker.max(initial=0.0)),
        per_worker=per_worker,
        policy="static",
    )


def greedy_dynamic_schedule(costs: np.ndarray, num_workers: int) -> ScheduleResult:
    """List scheduling: each finishing worker grabs the next task in order.

    Models a dynamic work queue (OpenMP ``schedule(dynamic,1)``); Graham's
    bound caps the makespan at (2 - 1/W) x optimal, so fine-grained queues
    absorb most imbalance — the reason Ligra benefits less from VEBO.
    """
    costs = _check(costs, num_workers)
    if costs.size and not costs.all():
        # Zero-cost tasks are exact no-ops: the popped (time, worker) key
        # is pushed back unchanged — keys are unique tuples, so the heap
        # *set* (hence every later pop) and the accumulators are
        # bit-identical with the zeros dropped.  Sparse edgemap records
        # leave most of the 384 chunks empty, so this turns an O(P log W)
        # Python loop into O(active log W).
        costs = costs[costs != 0.0]
    finish = [(0.0, w) for w in range(num_workers)]
    heapq.heapify(finish)
    acc = [0.0] * num_workers
    # Plain-Python floats throughout the hot loop: element-wise numpy
    # scalar indexing costs ~10x a list append, and tolist() round-trips
    # float64 exactly, so the heap arithmetic is bit-identical.
    for c in costs.tolist():
        t, w = heapq.heappop(finish)
        t += c
        acc[w] += c
        heapq.heappush(finish, (t, w))
    per_worker = np.array(acc, dtype=np.float64)
    makespan = max(t for t, _ in finish) if num_workers else 0.0
    return ScheduleResult(makespan=makespan, per_worker=per_worker, policy="dynamic")


def cilk_recursive_schedule(
    costs: np.ndarray,
    num_workers: int,
    grain: int = 1,
    steal_overhead: float = 0.0,
) -> ScheduleResult:
    """Cilk-style recursive range splitting with randomized-steal semantics
    approximated by greedy placement of the split leaves.

    The iteration range is halved until a leaf holds at most
    ``max(grain, ceil(T / (8 W)))`` consecutive tasks (Cilk's default grain
    heuristic), and the resulting *contiguous* leaves are list-scheduled.
    Contiguity is the key fidelity point: a Cilk worker executes a
    consecutive chunk of the range, so per-chunk costs aggregate exactly the
    way Ligra's implicit chunking aggregates vertices — VEBO helps because
    every 1/384th range slice carries equal work (Section V-A).
    ``steal_overhead`` seconds are charged per leaf beyond the first.
    """
    costs = _check(costs, num_workers)
    n = costs.size
    if n == 0:
        return ScheduleResult(0.0, np.zeros(num_workers), "cilk")
    auto_grain = max(int(grain), (n + 8 * num_workers - 1) // (8 * num_workers))
    if auto_grain == 1:
        # Halving a range down to grain 1 yields exactly the singleton
        # leaves [i, i+1) in order — the common 384-chunk / 48-thread
        # configuration — so skip the recursion and the per-leaf Python
        # sums.  ``cost + steal_overhead`` is the same single float64
        # addition the generic path performs per leaf.
        leaf_costs = costs.copy()
        leaf_costs[1:] += steal_overhead
    else:
        # Build leaf ranges by iterative halving.
        leaves: list[tuple[int, int]] = []
        stack = [(0, n)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo <= auto_grain:
                leaves.append((lo, hi))
            else:
                mid = (lo + hi) // 2
                stack.append((mid, hi))
                stack.append((lo, mid))
        leaves.sort()
        leaf_costs = np.array(
            [costs[lo:hi].sum() + (steal_overhead if i else 0.0) for i, (lo, hi) in enumerate(leaves)]
        )
    inner = greedy_dynamic_schedule(leaf_costs, num_workers)
    return ScheduleResult(
        makespan=inner.makespan, per_worker=inner.per_worker, policy="cilk"
    )


def static_numa_schedule(
    costs: np.ndarray,
    home_sockets: np.ndarray,
    num_sockets: int,
    threads_per_socket: int,
) -> ScheduleResult:
    """Polymer's policy: static at both levels.

    Each task (chunk) is pinned to its home socket; inside a socket the
    chunks are *statically* block-distributed over the socket's threads.
    No thread ever helps another, so imbalance at either level translates
    directly into lost time — the configuration the paper finds most
    sensitive to vertex ordering.
    """
    costs = _check(costs, num_sockets * threads_per_socket)
    home_sockets = np.asarray(home_sockets, dtype=np.int64)
    if home_sockets.shape != costs.shape:
        raise SimulationError("home_sockets must match the cost vector")
    per_worker = np.zeros(num_sockets * threads_per_socket, dtype=np.float64)
    makespan = 0.0
    for s in range(num_sockets):
        mine = costs[home_sockets == s]
        inner = static_block_schedule(mine, threads_per_socket)
        per_worker[s * threads_per_socket : (s + 1) * threads_per_socket] = inner.per_worker
        makespan = max(makespan, inner.makespan)
    return ScheduleResult(makespan=makespan, per_worker=per_worker, policy="static-hier")


def hierarchical_numa_schedule(
    costs: np.ndarray,
    home_sockets: np.ndarray,
    num_sockets: int,
    threads_per_socket: int,
) -> ScheduleResult:
    """GraphGrind's policy: static across sockets, dynamic within.

    Each task (partition) is pinned to its home socket; inside a socket the
    partitions are dynamically distributed over the socket's threads.  The
    loop completes when the slowest socket does.
    """
    costs = _check(costs, num_sockets * threads_per_socket)
    home_sockets = np.asarray(home_sockets, dtype=np.int64)
    if home_sockets.shape != costs.shape:
        raise SimulationError("home_sockets must match the cost vector")
    per_worker = np.zeros(num_sockets * threads_per_socket, dtype=np.float64)
    makespan = 0.0
    for s in range(num_sockets):
        mine = costs[home_sockets == s]
        inner = greedy_dynamic_schedule(mine, threads_per_socket)
        per_worker[s * threads_per_socket : (s + 1) * threads_per_socket] = inner.per_worker
        makespan = max(makespan, inner.makespan)
    return ScheduleResult(makespan=makespan, per_worker=per_worker, policy="numa-hier")
