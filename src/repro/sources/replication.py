"""COTS-controlled (dynamic) replication between systems (§2.2).

"When multiple representations exist for the same information in source
systems, an extraction method should be able to extract an authoritative
value ... Solutions based on database replication products often do not
apply because the COTS software control the replication logic and the
DBMSs are essentially unaware of the replication."

A :class:`ReplicationLink` forwards each business statement from the owning
system to a replica database over a costed link.  The link can *lag*
(``max_lag`` statements buffered) and *drop* statements deterministically
(``drop_every``), producing the replica divergence that makes naive
database-level extraction yield conflicting deltas — the problem the
reconciler (:mod:`repro.sources.reconcile`) and, more fundamentally,
Op-Delta's capture-above-replication solve.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..engine.remote import LinkKind, RemoteSession, open_remote

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cots import CotsSystem


class ReplicationLink:
    """Statement-based replication from one system's table to another's."""

    def __init__(
        self,
        source: "CotsSystem",
        replica: "CotsSystem",
        link: LinkKind = LinkKind.LAN,
        max_lag: int = 0,
        drop_every: int | None = None,
    ) -> None:
        self.source = source
        self.replica = replica
        self._remote: RemoteSession = open_remote(
            source.vendor_database(), replica.vendor_database(), link
        )
        self.max_lag = max_lag
        self.drop_every = drop_every
        self._buffer: deque[str] = deque()
        self.statements_forwarded = 0
        self.statements_dropped = 0
        source.replication_links.append(self)

    def forward(self, sql: str) -> None:
        """Queue (and possibly apply) one statement at the replica."""
        self.statements_forwarded += 1
        if self.drop_every and self.statements_forwarded % self.drop_every == 0:
            self.statements_dropped += 1
            return
        self._buffer.append(sql)
        while len(self._buffer) > self.max_lag:
            self._remote.execute(self._buffer.popleft())

    def flush(self) -> int:
        """Apply everything still lagging; returns statements applied."""
        applied = 0
        while self._buffer:
            self._remote.execute(self._buffer.popleft())
            applied += 1
        return applied
