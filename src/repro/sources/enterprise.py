"""An integrated enterprise: distributed, heterogeneous, non-serializable (§2).

Multiple COTS systems connected by integration middleware:

* **Distribution** — the PARTS key space is range-partitioned across
  systems; business transactions can span partitions.
* **Heterogeneity** — systems may run different DBMS products/versions,
  which breaks Export/Import and log shipping between them.
* **No global serializability** — "Global serializability is often not
  enforced in the COTS software systems for incompatibility and performance
  reasons."  Cross-system business transactions commit locally per system
  with no global coordinator; :meth:`IntegratedEnterprise.interleaved_transfers`
  reproduces a globally non-serializable execution from two locally
  serializable ones.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..clock import VirtualClock
from ..errors import ReproError
from ..sql.ast_nodes import sql_literal
from .cots import CotsSystem


@dataclass
class Partition:
    """One key range hosted by one system (half-open: [low, high))."""

    low: int
    high: int
    system: CotsSystem


class IntegratedEnterprise:
    """COTS systems glued together by (simulated) integration middleware."""

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self._partitions: list[Partition] = []
        self.systems: dict[str, CotsSystem] = {}
        self.global_transactions = 0
        #: Observers of cross-system business transactions — the
        #: integration-layer capture point of §2.4 (sources.middleware).
        self.method_listeners: list = []

    # ------------------------------------------------------------------- setup
    def add_system(self, system: CotsSystem, key_low: int, key_high: int) -> None:
        if key_high <= key_low:
            raise ReproError(f"empty partition [{key_low}, {key_high})")
        for partition in self._partitions:
            if key_low < partition.high and partition.low < key_high:
                raise ReproError(
                    f"partition [{key_low}, {key_high}) overlaps "
                    f"[{partition.low}, {partition.high})"
                )
        self.systems[system.name] = system
        self._partitions.append(Partition(key_low, key_high, system))
        self._partitions.sort(key=lambda p: p.low)

    def system_for(self, part_id: int) -> CotsSystem:
        lows = [p.low for p in self._partitions]
        position = bisect_right(lows, part_id) - 1
        if position < 0 or part_id >= self._partitions[position].high:
            raise ReproError(f"no partition hosts part id {part_id}")
        return self._partitions[position].system

    def load(self, parts_per_system: int) -> None:
        """Populate every partition with its share of parts."""
        for partition in self._partitions:
            count = min(parts_per_system, partition.high - partition.low)
            partition.system.load_parts(count, start_id=partition.low)

    # ------------------------------------------------------ business processes
    def _adjust(self, part_id: int, delta: int) -> None:
        system = self.system_for(part_id)
        session = system.wrapper_session
        session.execute(
            f"UPDATE parts SET quantity = quantity + {sql_literal(delta)} "
            f"WHERE part_id = {part_id}"
        )

    def interleaved_transfers(
        self, part_a: int, part_b: int, amount_one: int, amount_two: int
    ) -> None:
        """Two concurrent transfers interleaved without global ordering.

        Transfer 1 moves ``amount_one`` from A to B; transfer 2 moves
        ``amount_two`` from B to A.  The halves execute in the order
        1a, 2b, 2a, 1b — each system sees a serializable local history, but
        no global serial order of the two transfers produces the observed
        intermediate states.  Database-level extraction that timestamps or
        logs per system cannot reconstruct a single consistent global
        ordering, which is the §2.1 challenge.
        """
        self.global_transactions += 2
        self._notify("transfer_quantity", (part_a, part_b, amount_one))
        self._notify("transfer_quantity", (part_b, part_a, amount_two))
        self._adjust(part_a, -amount_one)  # transfer 1, first half
        self._adjust(part_b, -amount_two)  # transfer 2, first half
        self._adjust(part_a, amount_two)   # transfer 2, second half
        self._adjust(part_b, amount_one)   # transfer 1, second half

    def _notify(self, method: str, arguments: tuple) -> None:
        for listener in self.method_listeners:
            listener(method, arguments)

    # --------------------------------------------------------------- inventory
    def total_quantity(self, part_ids: list[int]) -> int:
        total = 0
        for part_id in part_ids:
            system = self.system_for(part_id)
            rows = system.wrapper_session.query(
                f"SELECT quantity FROM parts WHERE part_id = {part_id}"
            )
            if not rows:
                raise ReproError(f"part {part_id} does not exist")
            total += rows[0][0]
        return total

    def is_heterogeneous(self) -> bool:
        """Whether the systems span more than one DBMS product/version."""
        identities = {
            (s.vendor_database().product, s.vendor_database().product_version)
            for s in self.systems.values()
        }
        return len(identities) > 1
