"""Explicit lane assignments for batched delta application.

``run_conflict_schedule`` simulates LPT packing of conflict components
onto parallel lanes but never materialises *which* transaction runs
where — the assignment exists only inside the simulation.
:func:`lpt_schedule` reproduces the same deterministic packing as a
first-class :class:`LaneSchedule` value that the certifier can inspect and
the integrators can be handed, and :func:`plant_lane_swap` derives the
seeded ``swap-lane-ops`` fault from it for the race drill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ...core.opdelta import OpDeltaTransaction
from ...errors import AnalysisError
from ..conflict import ConflictGraph


@dataclass(frozen=True)
class LaneSchedule:
    """A proposed parallel application order: transaction ids per lane.

    Lanes run concurrently; inside one lane transactions run serially in
    the listed order.  The schedule is pure data — certifying it proves
    (or refutes) that executing it is equivalent to the source serial
    order.
    """

    lanes: tuple[tuple[int, ...], ...]

    @property
    def lane_count(self) -> int:
        return len(self.lanes)

    @property
    def transaction_ids(self) -> tuple[int, ...]:
        return tuple(txn_id for lane in self.lanes for txn_id in lane)

    def lane_of(self, txn_id: int) -> int | None:
        for index, lane in enumerate(self.lanes):
            if txn_id in lane:
                return index
        return None

    def position_of(self, txn_id: int) -> tuple[int, int] | None:
        """``(lane, slot)`` of a transaction, or ``None`` if unscheduled."""
        for lane_index, lane in enumerate(self.lanes):
            for slot, candidate in enumerate(lane):
                if candidate == txn_id:
                    return lane_index, slot
        return None

    def to_dict(self) -> dict[str, object]:
        return {"lanes": [list(lane) for lane in self.lanes]}


def single_lane_schedule(
    groups: Sequence[OpDeltaTransaction],
) -> LaneSchedule:
    """The serial schedule: every transaction on one lane, given order."""
    return LaneSchedule(lanes=(tuple(g.txn_id for g in groups),))


def lpt_schedule(
    groups: Sequence[OpDeltaTransaction],
    graph: ConflictGraph,
    *,
    lanes: int = 4,
    costs: Mapping[int, float] | None = None,
) -> LaneSchedule:
    """Deterministic LPT packing of conflict components onto lanes.

    Mirrors ``run_conflict_schedule``: components are sorted by total
    cost descending (stable, so equal-cost components keep graph order)
    and each next component goes wholly to the earliest-free lane, ties
    broken by lowest lane index (the simulation breaks exact ties by
    event order, so tied lanes may swap numbers — loads and finish times
    agree).  Component members stay in capture
    order on their lane, which is what makes the result certifiable.

    ``costs`` maps transaction id to its estimated apply cost; when
    omitted the operation count is used — any *deterministic* proxy
    yields a valid (certifiable) schedule, the proxy only affects packing
    quality.
    """
    if lanes < 1:
        raise AnalysisError(f"lane count must be >= 1, got {lanes}")
    by_id = {g.txn_id: g for g in groups}

    def txn_cost(txn_id: int) -> float:
        if costs is not None and txn_id in costs:
            return float(costs[txn_id])
        group = by_id.get(txn_id)
        return float(len(group.operations)) if group is not None else 0.0

    queue = sorted(
        (component for component in graph.components if component),
        key=lambda component: sum(txn_cost(t) for t in component),
        reverse=True,
    )
    free_at = [0.0] * lanes
    assigned: list[list[int]] = [[] for _ in range(lanes)]
    for component in queue:
        lane = min(range(lanes), key=lambda i: (free_at[i], i))
        assigned[lane].extend(component)
        free_at[lane] += sum(txn_cost(t) for t in component)
    return LaneSchedule(lanes=tuple(tuple(lane) for lane in assigned))


def plant_lane_swap(
    schedule: LaneSchedule, graph: ConflictGraph
) -> LaneSchedule:
    """Seed the ``swap-lane-ops`` race: move one side of a conflict edge.

    Takes the first conflict edge ``(a, b)`` of the graph and moves ``b``
    to the *front* of a different lane than ``a``'s, so the conflicting
    pair no longer shares a lane and nothing orders it — the planted
    schedule admits an interleaving that applies ``b`` before ``a``.
    Deterministic: same schedule + graph always plants the same race.
    """
    if schedule.lane_count < 2:
        raise AnalysisError(
            "planting a lane swap needs at least two lanes"
        )
    for edge_a, edge_b in graph.edges:
        lane_a = schedule.lane_of(edge_a)
        lane_b = schedule.lane_of(edge_b)
        if lane_a is None or lane_b is None:
            continue
        target = (lane_a + 1) % schedule.lane_count
        lanes = [list(lane) for lane in schedule.lanes]
        lanes[lane_b].remove(edge_b)
        lanes[target].insert(0, edge_b)
        return LaneSchedule(lanes=tuple(tuple(lane) for lane in lanes))
    raise AnalysisError(
        "cannot plant a lane swap: the conflict graph has no edges"
    )
