"""Deterministic parallel-loop scheduling simulators.

The paper's central systems distinction (Section IV) is *how parallel work
is scheduled*:

* **Ligra** expresses loops in Cilk, which recursively splits the iteration
  range and lets an idle worker steal the other half — effectively dynamic
  load balancing at chunk granularity.
* **Polymer** statically binds one partition per NUMA socket and its
  threads: loop time = the slowest thread (makespan of a fixed assignment).
* **GraphGrind** statically binds partition *groups* to sockets, then
  schedules dynamically inside each socket.

Given a task-cost *matrix* — one row per parallel loop, one column per
task (seconds per partition or per chunk) — these simulators compute every
row's loop completion time under each policy in one array program: one
kernel per policy, batched over the rows.  A 1-D cost vector is the
one-row case and yields scalar results.  The simulators are deterministic
— no random victim selection — so experiment output is reproducible
bit-for-bit.

Bit-for-bit also constrains *how* a segment of a row is summed: NumPy
sums a contiguous run pairwise, but a strided slice
(``costs[:, lo:hi].sum(axis=1)``) or a 3-D ``sum(axis=2)`` may round
differently.  Every segment sum below therefore gathers its segments into
the contiguous rows of a 2-D block first, so a row's segment sums equal
``row[lo:hi].sum()`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    """Outcome of scheduling tasks on ``num_workers`` workers.

    For a cost matrix, ``makespan`` has shape ``(rows,)`` and
    ``per_worker`` ``(rows, num_workers)``; for a 1-D cost vector
    ``makespan`` is a float and ``per_worker`` has shape ``(num_workers,)``.
    """

    makespan: float | np.ndarray
    per_worker: np.ndarray  # busy time of each worker
    policy: str

    @property
    def total_work(self) -> float | np.ndarray:
        total = self.per_worker.sum(axis=-1)
        return float(total) if total.ndim == 0 else total

    @property
    def imbalance_ratio(self) -> float | np.ndarray:
        """makespan / ideal — 1.0 means perfectly balanced."""
        ideal = np.asarray(self.total_work) / self.per_worker.shape[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(ideal > 0, np.asarray(self.makespan) / ideal, 1.0)
        return float(ratio) if ratio.ndim == 0 else ratio


def _check(costs: np.ndarray, num_workers: int) -> tuple[np.ndarray, bool]:
    """Validate ``costs``; return it as a 2-D ``(rows, tasks)`` matrix and
    whether the caller passed a matrix (rather than one vector)."""
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim not in (1, 2):
        raise SimulationError("task costs must be a 1-D vector or a 2-D matrix")
    if not np.all(np.isfinite(costs)):
        raise SimulationError("task costs must be finite")
    if np.any(costs < 0):
        raise SimulationError("task costs must be non-negative")
    if num_workers <= 0:
        raise SimulationError("num_workers must be positive")
    batched = costs.ndim == 2
    return (costs if batched else costs[np.newaxis]), batched


def _result(per_worker: np.ndarray, policy: str, batched: bool) -> ScheduleResult:
    """Every policy's loop ends when its most loaded worker does."""
    makespan = per_worker.max(axis=1, initial=0.0)
    if batched:
        return ScheduleResult(makespan=makespan, per_worker=per_worker, policy=policy)
    return ScheduleResult(
        makespan=float(makespan[0]), per_worker=per_worker[0], policy=policy
    )


def _block_split(columns: np.ndarray, num_workers: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Static block split of ``columns`` over ``num_workers`` workers.

    Worker w gets ``columns[w*T/W : (w+1)*T/W]`` (the first ``T % W``
    workers one extra).  Returned as ``(workers, index)`` groups of
    equal-length segments, ``index`` of shape ``(len(workers), length)``.
    """
    base, extra = divmod(columns.size, num_workers)
    cut = extra * (base + 1)
    return [
        (np.arange(extra), columns[:cut].reshape(extra, base + 1)),
        (np.arange(extra, num_workers), columns[cut:].reshape(num_workers - extra, base)),
    ]


def _segment_sums(
    costs: np.ndarray, groups: list[tuple[np.ndarray, np.ndarray]], num_segments: int
) -> np.ndarray:
    """``(rows, num_segments)`` sums of the column segments in ``groups``.

    Each segment becomes one row of a C-contiguous 2-D block (a fancy-index
    gather alone may come back in another memory layout), so each sum
    rounds exactly like the 1-D ``row[segment].sum()``; a 3-D
    ``sum(axis=2)`` does not.
    """
    rows = costs.shape[0]
    out = np.zeros((rows, num_segments), dtype=np.float64)
    for segments, index in groups:
        block = np.ascontiguousarray(costs[:, index]).reshape(
            rows * segments.size, index.shape[1]
        )
        out[:, segments] = block.sum(axis=1).reshape(rows, segments.size)
    return out


def static_block_schedule(costs: np.ndarray, num_workers: int) -> ScheduleResult:
    """Contiguous block assignment: worker w gets tasks [w*T/W, (w+1)*T/W).

    This is OpenMP ``schedule(static)`` / Polymer's partition binding: the
    loop completes when the most loaded worker does, so any imbalance in
    the cost vector translates 1:1 into lost time.
    """
    costs, batched = _check(costs, num_workers)
    columns = np.arange(costs.shape[1])
    per_worker = _segment_sums(costs, _block_split(columns, num_workers), num_workers)
    return _result(per_worker, "static", batched)


def _greedy(costs: np.ndarray, num_workers: int) -> np.ndarray:
    """Per-row list scheduling of a validated cost matrix; returns the
    ``(rows, num_workers)`` finish times.

    Each task goes to the earliest-finishing worker — ``argmin`` takes the
    lowest worker index on ties, the ``(time, worker)`` order of a heap.
    A worker's finish time *is* its busy time (both start at 0.0 and take
    the same additions in the same order), and zero-cost tasks are exact
    no-ops.
    """
    rows = costs.shape[0]
    finish = np.zeros((rows, num_workers), dtype=np.float64)
    flat = finish.reshape(-1)
    offsets = np.arange(rows) * num_workers
    for column in np.ascontiguousarray(costs.T):
        flat[offsets + finish.argmin(axis=1)] += column
    return finish


def greedy_dynamic_schedule(costs: np.ndarray, num_workers: int) -> ScheduleResult:
    """List scheduling: each finishing worker grabs the next task in order.

    Models a dynamic work queue (OpenMP ``schedule(dynamic,1)``); Graham's
    bound caps the makespan at (2 - 1/W) x optimal, so fine-grained queues
    absorb most imbalance — the reason Ligra benefits less from VEBO.
    """
    costs, batched = _check(costs, num_workers)
    return _result(_greedy(costs, num_workers), "dynamic", batched)


@lru_cache(maxsize=64)
def _cilk_leaves(num_tasks: int, grain: int) -> tuple[int, list[tuple[np.ndarray, np.ndarray]]]:
    """Leaves of halving ``[0, num_tasks)`` down to ``grain`` tasks, as
    ``(leaf count, equal-length segment groups)``.  Depends only on the
    shape, so every row of a cost matrix — and every call with the same
    shape — shares one split."""
    leaves: list[tuple[int, int]] = []
    stack = [(0, num_tasks)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= grain:
            leaves.append((lo, hi))
        else:
            mid = (lo + hi) // 2
            stack.append((mid, hi))
            stack.append((lo, mid))
    leaves.sort()
    lengths = np.array([hi - lo for lo, hi in leaves])
    starts = np.array([lo for lo, _ in leaves])
    groups = []
    for length in np.unique(lengths):
        which = np.flatnonzero(lengths == length)
        groups.append((which, starts[which, None] + np.arange(length)))
    return len(leaves), groups


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
    costs, batched = _check(costs, num_workers)
    n = costs.shape[1]
    auto_grain = max(int(grain), (n + 8 * num_workers - 1) // (8 * num_workers))
    num_leaves, groups = _cilk_leaves(n, auto_grain)
    leaf_costs = _segment_sums(costs, groups, num_leaves)
    leaf_costs[:, 1:] += steal_overhead
    return _result(_greedy(leaf_costs, num_workers), "cilk", batched)


def _socket_columns(
    num_tasks: int, home_sockets: np.ndarray, num_sockets: int
) -> list[np.ndarray]:
    """The task columns homed on each socket, in task order."""
    home_sockets = np.asarray(home_sockets, dtype=np.int64)
    if home_sockets.shape != (num_tasks,):
        raise SimulationError("home_sockets must match the cost vector")
    return [np.flatnonzero(home_sockets == s) for s in range(num_sockets)]


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
    costs, batched = _check(costs, num_sockets * threads_per_socket)
    groups = []
    for s, columns in enumerate(_socket_columns(costs.shape[1], home_sockets, num_sockets)):
        for workers, index in _block_split(columns, threads_per_socket):
            groups.append((s * threads_per_socket + workers, index))
    per_worker = _segment_sums(costs, groups, num_sockets * threads_per_socket)
    return _result(per_worker, "static-hier", batched)


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

    The sockets run as independent list schedules, so they are stacked as
    rows of one ``(rows * sockets, tasks per socket)`` greedy run; a
    socket with fewer tasks is padded with zero-cost tasks, which the
    greedy kernel treats as exact no-ops.
    """
    costs, batched = _check(costs, num_sockets * threads_per_socket)
    rows = costs.shape[0]
    sockets = _socket_columns(costs.shape[1], home_sockets, num_sockets)
    width = max(columns.size for columns in sockets)
    padded = np.hstack([costs, np.zeros((rows, 1))])
    index = np.full((num_sockets, width), costs.shape[1])
    for s, columns in enumerate(sockets):
        index[s, : columns.size] = columns
    stacked = padded[:, index].reshape(rows * num_sockets, width)
    per_worker = _greedy(stacked, threads_per_socket).reshape(
        rows, num_sockets * threads_per_socket
    )
    return _result(per_worker, "numa-hier", batched)
