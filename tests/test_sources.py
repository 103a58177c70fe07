"""Tests for COTS systems, replication, the enterprise and reconciliation."""

import pytest

from repro.engine.remote import LinkKind
from repro.errors import ExtractionError, ReproError
from repro.extraction import TriggerExtractor
from repro.sources import (
    CotsSystem,
    IntegratedEnterprise,
    Reconciler,
    ReplicationLink,
)
from repro.workloads import parts_schema, strip_timestamp


def consistent(link):
    """Whether source and replica hold the same logical rows.

    Timestamps are excluded: each database stamps rows from its own clock
    position, so they legitimately differ between replicas.
    """
    schema = parts_schema()
    return strip_timestamp(schema, link.source.part_rows()) == strip_timestamp(
        schema, link.replica.part_rows()
    )


class TestCotsEncapsulation:
    def test_triggers_refused_by_default(self):
        system = CotsSystem("crm")
        with pytest.raises(ExtractionError, match="autonomy"):
            system.open_database_for_triggers()

    def test_logs_refused_by_default(self):
        system = CotsSystem("crm")
        with pytest.raises(ExtractionError, match="proprietary"):
            system.open_database_for_logs()

    def test_cooperating_vendor_allows_triggers(self):
        system = CotsSystem("crm", allows_triggers=True)
        system.load_parts(20)
        database = system.open_database_for_triggers()
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        system.revise_parts(0, 5)
        assert len(extractor.drain_to_batch()) == 5

    def test_wrapper_seam_always_available(self):
        """Op-Delta's advantage: no vendor cooperation needed."""
        from repro.core import FileLogStore, OpDeltaCapture

        system = CotsSystem("locked-down")
        system.load_parts(20)
        store = FileLogStore(system.vendor_database())
        OpDeltaCapture(system.wrapper_session, store, tables={"parts"}).attach()
        system.revise_parts(0, 5)
        groups = store.drain()
        assert len(groups) == 1 and len(groups[0]) == 1

    def test_business_operations_counted(self):
        system = CotsSystem("crm")
        system.load_parts(10)
        system.revise_parts(0, 5)
        system.reprice_supplier(0, 1.1)
        system.retire_parts(0, 2)
        assert system.business_operations == 3


class TestReplication:
    def make_pair(self):
        source = CotsSystem("a")
        replica = CotsSystem("b", clock=source.clock)
        source.load_parts(50)
        replica.load_parts(50)
        link = ReplicationLink(source, replica, LinkKind.LAN)
        return source, replica, link

    def test_statements_replicate(self):
        source, replica, link = self.make_pair()
        source.revise_parts(0, 10)
        assert consistent(link)

    def test_dbms_level_extraction_sees_change_twice(self):
        """§2.2: the replication problem for database-level extraction."""
        source, replica, _link = self.make_pair()
        source_cdc = TriggerExtractor(source.vendor_database(), "parts")
        source_cdc.install()
        replica_cdc = TriggerExtractor(replica.vendor_database(), "parts")
        replica_cdc.install()
        source.revise_parts(0, 10)
        assert len(source_cdc.drain_to_batch()) == 10
        assert len(replica_cdc.drain_to_batch()) == 10  # the duplicate

    def test_wrapper_capture_sees_change_once(self):
        """§4.1: capturing above the replication layer avoids duplication."""
        from repro.core import FileLogStore, OpDeltaCapture

        source, _replica, _link = self.make_pair()
        store = FileLogStore(source.vendor_database())
        OpDeltaCapture(source.wrapper_session, store, tables={"parts"}).attach()
        source.revise_parts(0, 10)
        groups = store.drain()
        assert sum(len(g) for g in groups) == 1


class TestEnterprise:
    def make_enterprise(self):
        enterprise = IntegratedEnterprise()
        for name, low, high in (("s1", 0, 1_000), ("s2", 1_000, 2_000)):
            enterprise.add_system(
                CotsSystem(name, clock=enterprise.clock), low, high
            )
        enterprise.load(100)
        return enterprise

    def test_routing_by_partition(self):
        enterprise = self.make_enterprise()
        assert enterprise.system_for(5).name == "s1"
        assert enterprise.system_for(1_005).name == "s2"

    def test_unhosted_key_rejected(self):
        enterprise = self.make_enterprise()
        with pytest.raises(ReproError):
            enterprise.system_for(5_000)

    def test_overlapping_partition_rejected(self):
        enterprise = self.make_enterprise()
        with pytest.raises(ReproError, match="overlaps"):
            enterprise.add_system(CotsSystem("s3", clock=enterprise.clock), 500, 1_500)

    def test_cross_system_transfer_conserves_quantity(self):
        enterprise = self.make_enterprise()
        before = [enterprise.total_quantity([part]) for part in (0, 1_000)]
        enterprise.interleaved_transfers(0, 1_000, 7, 0)  # 7 across, none back
        after = [enterprise.total_quantity([part]) for part in (0, 1_000)]
        assert after == [before[0] - 7, before[1] + 7]

    def test_interleaved_transfers_conserve_but_interleave(self):
        enterprise = self.make_enterprise()
        before = enterprise.total_quantity([0, 1_000])
        enterprise.interleaved_transfers(0, 1_000, 5, 3)
        assert enterprise.total_quantity([0, 1_000]) == before
        assert enterprise.global_transactions == 2

    def test_heterogeneity_detection(self):
        enterprise = IntegratedEnterprise()
        enterprise.add_system(CotsSystem("a", clock=enterprise.clock), 0, 10)
        enterprise.add_system(
            CotsSystem("b", clock=enterprise.clock, product="OtherDB"), 10, 20
        )
        assert enterprise.is_heterogeneous()

    def test_homogeneous_detection(self):
        enterprise = self.make_enterprise()
        assert not enterprise.is_heterogeneous()


class TestReconciler:
    def capture_batches(self):
        source = CotsSystem("auth", allows_triggers=True)
        replica = CotsSystem("rep", clock=source.clock, allows_triggers=True)
        source.load_parts(50)
        replica.load_parts(50)
        ReplicationLink(source, replica, LinkKind.LAN)
        source_cdc = TriggerExtractor(source.vendor_database(), "parts")
        source_cdc.install()
        replica_cdc = TriggerExtractor(replica.vendor_database(), "parts")
        replica_cdc.install()
        source.revise_parts(0, 4, status="revised")
        source.revise_parts(4, 7, status="audited")
        source.revise_parts(7, 10, status="retired")
        return {
            "auth": source_cdc.drain_to_batch(),
            "rep": replica_cdc.drain_to_batch(),
        }

    def test_clean_replication_dedupes(self):
        batches = self.capture_batches()
        result = Reconciler("auth").reconcile(batches)
        assert result.clean
        assert result.duplicates_dropped == 10
        assert len(result.batch) == 10

    def test_divergence_detected(self):
        batches = self.capture_batches()
        del batches["rep"].records[::3]  # changes the replica never saw
        result = Reconciler("auth").reconcile(batches)
        assert not result.clean or result.missing_at_replicas > 0

    def test_missing_authoritative_batch(self):
        batches = self.capture_batches()
        with pytest.raises(ExtractionError, match="authoritative"):
            Reconciler("nope").reconcile(batches)

    def test_wrong_table_rejected(self):
        batches = self.capture_batches()
        from repro.extraction.deltas import DeltaBatch
        from repro.workloads import parts_schema

        batches["rep"] = DeltaBatch("other", parts_schema("other"))
        with pytest.raises(ExtractionError, match="other"):
            Reconciler("auth").reconcile(batches)
