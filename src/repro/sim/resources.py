"""Locks for the simulation kernel.

The availability experiment needs exactly the classic warehouse locking
picture: OLAP queries take *shared* locks on the fact table; integrators
take *exclusive* locks.  Value-delta integration holds its exclusive lock
for the whole indivisible batch (the outage); Op-Delta integration holds it
per source transaction (interleaving with queries).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from ..errors import SimulationError
from .kernel import Environment, Event


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass
class _Waiter:
    event: Event
    mode: LockMode


class RWLock:
    """A fair readers-writer lock (FIFO, no starvation of either side)."""

    def __init__(self, env: Environment, name: str = "lock") -> None:
        self._env = env
        self.name = name
        self._readers = 0
        self._writer = False
        self._waiters: deque[_Waiter] = deque()
        # Telemetry for the availability report.
        self.exclusive_acquisitions = 0
        self.shared_acquisitions = 0

    # ----------------------------------------------------------------- acquire
    def acquire(self, mode: LockMode) -> Event:
        """Request the lock; yield the returned event to wait for the grant."""
        event = Event(self._env)
        waiter = _Waiter(event, mode)
        self._waiters.append(waiter)
        self._dispatch()
        return event

    def release(self, mode: LockMode) -> None:
        if mode is LockMode.SHARED:
            if self._readers <= 0:
                raise SimulationError(f"lock {self.name!r}: shared release underflow")
            self._readers -= 1
        else:
            if not self._writer:
                raise SimulationError(f"lock {self.name!r}: exclusive release without hold")
            self._writer = False
        self._dispatch()

    # ---------------------------------------------------------------- dispatch
    def _dispatch(self) -> None:
        while self._waiters:
            head = self._waiters[0]
            if head.mode is LockMode.EXCLUSIVE:
                if self._writer or self._readers:
                    return
                self._waiters.popleft()
                self._writer = True
                self.exclusive_acquisitions += 1
                head.event.succeed()
                return
            if self._writer:
                return
            # Grant the shared head (and any further leading shared waiters
            # are granted on subsequent loop iterations).
            self._waiters.popleft()
            self._readers += 1
            self.shared_acquisitions += 1
            head.event.succeed()
