"""COTS software systems: encapsulated databases behind business APIs (§2.1).

"The COTS software often encapsulate their underlying databases and they
only expose APIs through which to access the encapsulated data."  A
:class:`CotsSystem` owns a database that outsiders are not supposed to
touch: delta extraction must either negotiate vendor cooperation
(``allows_triggers``; the logs are never exposed) or attach at the wrapper
seam — the COTS session's capture hooks, which is where Op-Delta lives.

Business API methods issue SQL through the internal session and forward
the same logical changes to replicas (COTS-controlled replication, §2.2:
"the COTS software control the replication logic and the DBMSs are
essentially unaware of the replication").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NoReturn

from ..clock import VirtualClock
from ..engine.database import Database
from ..engine.session import Session
from ..engine.table import InsertMode
from ..errors import ExtractionError
from ..workloads.records import PartsGenerator, parts_schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .replication import ReplicationLink


class CotsSystem:
    """One vertical application: encapsulated DBMS + business API."""

    def __init__(
        self,
        name: str,
        clock: VirtualClock | None = None,
        product: str = "ReproDB",
        allows_triggers: bool = False,
    ) -> None:
        self.name = name
        self._db = Database(f"{name}-db", clock=clock, product=product)
        self.allows_triggers = allows_triggers
        self._db.create_table(parts_schema(), auto_timestamp=True)
        self._session = self._db.internal_session()
        self._generator = PartsGenerator(seed=1)
        self.replication_links: list["ReplicationLink"] = []
        self.business_operations = 0
        #: Observers of business API invocations — the application/COTS
        #: boundary capture point of §2.4 (see sources.middleware).
        self.method_listeners: list[Callable[[str, tuple], None]] = []

    # -------------------------------------------------------------- the seams
    @property
    def wrapper_session(self) -> Session:
        """The COTS session — the seam where Op-Delta capture attaches.

        Attaching hooks here requires no change to user applications and
        no database privileges, exactly the wrapper approach of §2.4/§4.
        """
        return self._session

    @property
    def clock(self) -> VirtualClock:
        return self._db.clock

    def vendor_database(self) -> Database:
        """Vendor-only access to the encapsulated database.

        Extraction code must go through :meth:`open_database_for_triggers`,
        which enforces the vendor's consent; :meth:`open_database_for_logs`
        always refuses.
        """
        return self._db

    def open_database_for_triggers(self) -> Database:
        if not self.allows_triggers:
            raise ExtractionError(
                f"COTS system {self.name!r} does not permit triggers inside "
                "its encapsulated database (source autonomy, §3.1.3)"
            )
        return self._db

    def open_database_for_logs(self) -> NoReturn:
        raise ExtractionError(
            f"COTS system {self.name!r} does not expose its database "
            "logs (proprietary internals, §3.1.4)"
        )

    # ------------------------------------------------------------ business API
    def load_parts(self, count: int, start_id: int = 0) -> int:
        """Initial load (vendor utility path, not captured as business ops)."""
        table = self._db.table("parts")
        txn = self._db.begin()
        for row in self._generator.rows(count, start_id=start_id):
            table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
        self._db.commit(txn)
        return count

    def revise_parts(self, low_ref: int, high_ref: int, status: str = "revised") -> int:
        """Business operation: mark a contiguous range of parts revised."""
        self._notify("revise_parts", (low_ref, high_ref, status))
        return self._business(
            f"UPDATE parts SET status = '{status}' "
            f"WHERE part_ref >= {low_ref} AND part_ref < {high_ref}"
        )

    def reprice_supplier(self, supplier_id: int, factor: float) -> int:
        """Business operation: adjust all of one supplier's prices."""
        self._notify("reprice_supplier", (supplier_id, factor))
        return self._business(
            f"UPDATE parts SET price = price * {factor!r} "
            f"WHERE supplier_id = {supplier_id}"
        )

    def retire_parts(self, low_ref: int, high_ref: int) -> int:
        """Business operation: remove a contiguous range of parts."""
        self._notify("retire_parts", (low_ref, high_ref))
        return self._business(
            f"DELETE FROM parts WHERE part_ref >= {low_ref} AND part_ref < {high_ref}"
        )

    def part_rows(self) -> list[tuple]:
        return sorted(self._db.table("parts").scan_values())

    # --------------------------------------------------------------- internals
    def _notify(self, method: str, arguments: tuple) -> None:
        for listener in self.method_listeners:
            listener(method, arguments)

    def _business(self, sql: str) -> int:
        """Run one business statement locally, then replicate it.

        Replication is COTS-level: the same *statement* is forwarded to each
        replica database over its link, outside any global transaction —
        which is why database-level extraction sees the change once per
        replica.
        """
        self.business_operations += 1
        result = self._session.execute(sql)
        for link in self.replication_links:
            link.forward(sql)
        return result.rows_affected
