"""COTS-controlled (dynamic) replication between systems (§2.2).

"When multiple representations exist for the same information in source
systems, an extraction method should be able to extract an authoritative
value ... Solutions based on database replication products often do not
apply because the COTS software control the replication logic and the
DBMSs are essentially unaware of the replication."

A :class:`ReplicationLink` forwards each business statement from the owning
system to a replica database over a costed link, so database-level
extraction sees every change once per replica — the duplicated deltas the
reconciler (:mod:`repro.sources.reconcile`) and, more fundamentally,
Op-Delta's capture-above-replication solve.
"""

from __future__ import annotations

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
    ) -> None:
        self.source = source
        self.replica = replica
        self._remote: RemoteSession = open_remote(
            source.vendor_database(), replica.vendor_database(), link
        )
        source.replication_links.append(self)

    def forward(self, sql: str) -> None:
        """Apply one statement at the replica."""
        self._remote.execute(sql)
