"""Scopes: how long a derived fact may be believed.

A fact computed from a statement's shape *and* something else — a table's
index list, an analyzer's view catalog, a transformer's mappings — holds
only while that something else stays as it was.  Its owner stands for one
state of it with a :class:`Scope` and replaces the scope when the state
changes; whatever was filed under the old one
(:meth:`repro.sql.templates.StatementTemplate.fact`) is held weakly by it and
is gone with it.  Nothing is ever *told* to invalidate.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary


class Scope:
    """One state of whatever a per-shape fact read besides the shape."""

    __slots__ = ("__weakref__", "_joints")

    def __init__(self) -> None:
        self._joints: WeakKeyDictionary[Scope, Scope] | None = None

    def joint(self, other: Scope) -> Scope:
        """The scope of a fact that read both this state and ``other``'s: the
        same one for the same two, gone as soon as either is."""
        joints = self._joints
        if joints is None:
            joints = self._joints = WeakKeyDictionary()
        found = joints.get(other)
        if found is None:
            found = joints[other] = Scope()
        return found
