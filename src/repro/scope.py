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


class Scope:
    """One state of whatever a per-shape fact read besides the shape."""

    __slots__ = ("__weakref__",)
