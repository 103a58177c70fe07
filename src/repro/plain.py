"""One record shape: a dataclass's JSON is its fields, written once.

A :class:`Record` dataclass serializes itself by one rule instead of a
hand-written ``to_dict`` that restates its fields (and silently drops any
field added later):

* its fields in declaration order, ``_private`` ones skipped;
* each value through :func:`plain`: an ``Enum`` becomes its ``.value``,
  tuples and lists become lists at any depth (JSON has only arrays),
  mappings become dicts, and a value with its own ``to_dict`` is
  serialized by it;
* then the trailing derived properties the class names in ``derived``.

A record whose JSON interleaves derived keys or orders its keys its own way
keeps its own ``to_dict``, and may call :func:`plain` for nested values.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import fields
from typing import Any, ClassVar


def plain(value: Any) -> Any:
    """``value`` as JSON-ready data, by the rule above."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, Mapping):
        return {key: plain(item) for key, item in value.items()}
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


class Record:
    """Base of the dataclasses whose JSON is their public fields, in order."""

    #: Properties appended after the fields, in this order.
    derived: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict[str, Any]:
        names = [f.name for f in fields(self)]  # type: ignore[arg-type]
        return {
            name: plain(getattr(self, name))
            for name in [*names, *self.derived]
            if not name.startswith("_")
        }
