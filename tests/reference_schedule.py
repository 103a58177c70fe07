"""The conflict-aware lane schedule as a discrete-event simulation, as
``run_conflict_schedule`` computed it before it folded :func:`lpt_pack`'s
finish times — kept as the oracle of ``tests/test_property_schedule.py``.

One worker process per lane ran on the simulation kernel: when it fell idle
it popped the longest remaining component and waited out its durations one
timeout at a time.  Which of two lanes free at the same instant popped first
was the kernel's event order, not the lane number, so lanes could swap
numbers; the finish times cannot differ.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim import Environment


def simulated_schedule(
    component_durations_ms: Sequence[Sequence[float]], workers: int
) -> tuple[float, float, list[float]]:
    """``(serial_ms, parallel_ms, component_finish_ms)`` by simulation."""
    serial_ms = sum(sum(c) for c in component_durations_ms)
    queue = sorted(
        (list(c) for c in component_durations_ms if c), key=sum, reverse=True
    )
    if not queue:
        return serial_ms, 0.0, []
    env = Environment()
    finished: list[float] = []

    def worker():
        while queue:
            component = queue.pop(0)
            for duration in component:
                yield env.timeout(duration)
            finished.append(env.now)

    for lane in range(workers):
        env.process(worker(), name=f"apply-lane-{lane}")
    env.run()
    return serial_ms, env.now, finished
