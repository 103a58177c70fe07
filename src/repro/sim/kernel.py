"""A small discrete-event simulation kernel (SimPy-flavoured).

The warehouse availability experiment (paper §4.1: Op-Delta "can be applied
concurrently with existing user queries ... not requiring the data
warehouse be shutdown") needs concurrency over virtual time.  The engine
itself is single-threaded, so concurrency is modelled here: processes are
generators yielding events; the environment advances time to the next
scheduled event.

Supported yields:

* :meth:`Environment.timeout` — resume after a delay
* another :class:`Process` — resume when it finishes (join)
* a lock request from :mod:`repro.sim.resources`
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator

from ..errors import SimulationError


class Event:
    """Something that will happen; processes wait on events."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.triggered = False
        self.value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event scheduled ``delay`` into the future."""

    def __init__(self, env: "Environment", delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay cannot be negative: {delay}")
        super().__init__(env)
        env._schedule(env.now + delay, self)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Drives a generator; is itself an event that fires on completion."""

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str = "process") -> None:
        super().__init__(env)
        self.name = name
        self._generator = generator
        # Start at the current time (first resume happens via the queue so
        # process creation order does not matter within a timestep).
        bootstrap = Event(env)
        bootstrap.add_callback(self._resume)
        env._schedule(env.now, bootstrap)

    def _resume(self, completed: Event) -> None:
        try:
            target = self._generator.send(completed.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield events (timeout, lock request, or another process)"
            )
        target.add_callback(self._resume)


class Environment:
    """The event queue and the simulation clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()

    def _schedule(self, at: float, event: Event) -> None:
        heapq.heappush(self._queue, (at, next(self._sequence), event))

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator: ProcessGenerator, name: str = "process") -> Process:
        return Process(self, generator, name)

    def run(self, until: float | None = None) -> float:
        """Process events until the queue is empty (or ``until`` is reached)."""
        while self._queue:
            at, _seq, event = self._queue[0]
            if until is not None and at > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            self.now = at
            if not event.triggered:
                event.succeed(event.value)
        if until is not None and until > self.now:
            self.now = until
        return self.now
