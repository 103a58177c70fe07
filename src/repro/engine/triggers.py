"""Row-level triggers.

Triggers are the third extraction method the paper analyses (§3.1.3): they
fire inside the user's transaction, see the old and/or new row images, and
their failures abort the user transaction.  The engine implements exactly
that contract:

* ``BEFORE``/``AFTER`` timing on ``INSERT``/``UPDATE``/``DELETE``;
* the action runs in the same transaction (its own data changes register
  undo actions on the triggering transaction);
* an exception in the action is wrapped in :class:`TriggerError` and
  propagates, aborting the user statement.

The standard delta-capture trigger used by
:class:`repro.extraction.trigger.TriggerExtractor` lives there; this module
is the generic machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..errors import CatalogError, TriggerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import Table
    from .transactions import Transaction


class TriggerEvent(enum.Enum):
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"


class TriggerTiming(enum.Enum):
    BEFORE = "BEFORE"
    AFTER = "AFTER"


@dataclass(frozen=True)
class TriggerContext:
    """What a firing trigger sees: the txn and the old/new row images.

    ``old_values`` is ``None`` for inserts; ``new_values`` is ``None`` for
    deletes; updates carry both — this is how the paper's capture trigger
    records before and after images.
    """

    transaction: "Transaction"
    table: "Table"
    event: TriggerEvent
    old_values: tuple[Any, ...] | None
    new_values: tuple[Any, ...] | None


TriggerAction = Callable[[TriggerContext], None]


@dataclass(frozen=True)
class Trigger:
    """A named row-level trigger definition."""

    name: str
    event: TriggerEvent
    timing: TriggerTiming
    action: TriggerAction


class TriggerSet:
    """The triggers attached to one table, fired by the DML paths."""

    def __init__(self, clock, costs) -> None:
        self._clock = clock
        self._costs = costs
        self._triggers: dict[str, Trigger] = {}
        #: The triggers of each (event, timing), in definition order: what
        #: one firing runs, rebuilt when a trigger is added or dropped.
        self._armed: dict[tuple[TriggerEvent, TriggerTiming], tuple[Trigger, ...]] = {}
        self.firings = 0

    def add(self, trigger: Trigger) -> None:
        if trigger.name in self._triggers:
            raise CatalogError(f"trigger {trigger.name!r} already exists")
        self._triggers[trigger.name] = trigger
        self._rearm()

    def drop(self, name: str) -> None:
        if name not in self._triggers:
            raise CatalogError(f"trigger {name!r} does not exist")
        del self._triggers[name]
        self._rearm()

    def _rearm(self) -> None:
        armed: dict[tuple[TriggerEvent, TriggerTiming], list[Trigger]] = {}
        for trigger in self._triggers.values():
            armed.setdefault((trigger.event, trigger.timing), []).append(trigger)
        self._armed = {slot: tuple(triggers) for slot, triggers in armed.items()}

    def armed(self, event: TriggerEvent, timing: TriggerTiming) -> bool:
        """Whether a firing of ``event`` at ``timing`` would run a trigger."""
        return (event, timing) in self._armed

    def names(self) -> tuple[str, ...]:
        return tuple(self._triggers)

    def __len__(self) -> int:
        return len(self._triggers)

    def fire(self, timing: TriggerTiming, context: TriggerContext) -> None:
        """Fire every matching trigger; failures abort the user statement."""
        for trigger in self._armed.get((context.event, timing), ()):
            self.firings += 1
            self._clock.advance(self._costs.trigger_invoke)
            try:
                trigger.action(context)
            except TriggerError:
                raise
            except Exception as exc:
                raise TriggerError(
                    f"trigger {trigger.name!r} failed on "
                    f"{context.event.value} of {context.table.name!r}: {exc}"
                ) from exc
