"""Explicit lane assignments for batched delta application.

:func:`lpt_pack` is the one packer of conflict components onto parallel
lanes.  ``run_conflict_schedule`` reads the finish times it folds;
:func:`lpt_schedule` turns its lane choices into a first-class
:class:`LaneSchedule` value that the certifier can inspect and the
integrators can be handed, and :func:`plant_lane_swap` derives the seeded
``swap-lane-ops`` fault from it for the race drill.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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

    @cached_property
    def _positions(self) -> dict[int, tuple[int, int]]:
        positions: dict[int, tuple[int, int]] = {}
        for lane_index, lane in enumerate(self.lanes):
            for slot, txn_id in enumerate(lane):
                positions.setdefault(txn_id, (lane_index, slot))
        return positions

    def lane_of(self, txn_id: int) -> int | None:
        position = self._positions.get(txn_id)
        return None if position is None else position[0]

    def position_of(self, txn_id: int) -> tuple[int, int] | None:
        """``(lane, slot)`` of a transaction, or ``None`` if unscheduled."""
        return self._positions.get(txn_id)

    def to_dict(self) -> dict[str, object]:
        return {"lanes": [list(lane) for lane in self.lanes]}


def single_lane_schedule(
    groups: Sequence[OpDeltaTransaction],
) -> LaneSchedule:
    """The serial schedule: every transaction on one lane, given order."""
    return LaneSchedule(lanes=(tuple(g.txn_id for g in groups),))


def lpt_pack(
    components: Sequence[Sequence[float]], lanes: int
) -> list[tuple[int, int, float]]:
    """Longest-processing-time packing: ``(component index, lane, finish
    time)`` per component, in packing order.

    Components are taken by total duration, longest first (a stable sort,
    so equal totals keep their order), and each goes wholly to the lane
    free earliest — the lowest-numbered one on a tie — whose clock it
    advances one duration at a time, in order.
    """
    free_at = [0.0] * lanes
    packed = []
    for index in sorted(
        range(len(components)), key=lambda i: sum(components[i]), reverse=True
    ):
        lane = min(range(lanes), key=lambda i: (free_at[i], i))
        for duration in components[index]:
            free_at[lane] += duration
        packed.append((index, lane, free_at[lane]))
    return packed


def lpt_schedule(
    groups: Sequence[OpDeltaTransaction],
    graph: ConflictGraph,
    *,
    lanes: int = 4,
) -> LaneSchedule:
    """Deterministic LPT packing of conflict components onto lanes.

    :func:`lpt_pack` over the graph's non-empty components, a transaction
    costing its operation count — any *deterministic* proxy yields a valid
    (certifiable) schedule, the proxy only affects packing quality.
    Component members stay in capture order on their lane, which is what
    makes the result certifiable.
    """
    if lanes < 1:
        raise AnalysisError(f"lane count must be >= 1, got {lanes}")
    operations = {g.txn_id: float(len(g.operations)) for g in groups}
    components = [component for component in graph.components if component]
    assigned: list[list[int]] = [[] for _ in range(lanes)]
    for index, lane, _finish in lpt_pack(
        [[operations.get(t, 0.0) for t in component] for component in components],
        lanes,
    ):
        assigned[lane].extend(components[index])
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
