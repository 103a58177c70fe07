"""Tests for middleware-level method-call capture (paper §2.4)."""

import pytest

from repro.errors import ExtractionError, WarehouseError
from repro.sources import (
    CotsSystem,
    IntegratedEnterprise,
    MethodCallMapper,
    MethodDeltaApplier,
    MiddlewareCapture,
)
from repro.warehouse import Warehouse
from repro.workloads import parts_schema, strip_timestamp


@pytest.fixture
def system():
    cots = CotsSystem("crm")
    cots.load_parts(100)
    return cots


@pytest.fixture
def enterprise():
    ent = IntegratedEnterprise()
    ent.add_system(CotsSystem("s1", clock=ent.clock), 0, 1_000)
    ent.add_system(CotsSystem("s2", clock=ent.clock), 1_000, 2_000)
    ent.load(50)
    return ent


class TestCapture:
    def test_cots_api_calls_captured(self, system):
        capture = MiddlewareCapture()
        capture.tap_system(system)
        system.revise_parts(0, 10)
        system.retire_parts(10, 12)
        deltas = capture.drain()
        assert [(d.level, d.method) for d in deltas] == [
            ("cots-api", "revise_parts"),
            ("cots-api", "retire_parts"),
        ]
        assert deltas[0].system == "crm"
        assert deltas[0].arguments == (0, 10, "revised")

    def test_integration_layer_calls_captured(self, enterprise):
        capture = MiddlewareCapture()
        capture.tap_enterprise(enterprise)
        enterprise.interleaved_transfers(0, 1_000, 5, 3)
        deltas = capture.drain()
        assert [(d.level, d.system) for d in deltas] == [("integration-layer", None)] * 2
        assert [d.arguments for d in deltas] == [(0, 1_000, 5), (1_000, 0, 3)]

    def test_interleaved_transfers_captured_as_two_calls(self, enterprise):
        capture = MiddlewareCapture()
        capture.tap_enterprise(enterprise)
        enterprise.interleaved_transfers(0, 1_000, 5, 3)
        assert len(capture.drain()) == 2

    def test_detach(self, system):
        capture = MiddlewareCapture()
        capture.tap_system(system)
        capture.detach()
        system.revise_parts(0, 5)
        assert capture.drain() == []

    def test_sequences_increase(self, system):
        capture = MiddlewareCapture()
        capture.tap_system(system)
        system.revise_parts(0, 5)
        system.revise_parts(5, 10)
        first, second = capture.drain()
        assert second.sequence > first.sequence

    def test_method_delta_is_tiny(self, system):
        """A method call's transport size beats even the Op-Delta statement."""
        capture = MiddlewareCapture()
        capture.tap_system(system)
        system.revise_parts(0, 50)
        (delta,) = capture.drain()
        assert delta.size_bytes < 64


class TestMapperAndApplier:
    def make_warehouse(self, system):
        warehouse = Warehouse(clock=system.clock)
        warehouse.create_mirror(parts_schema())
        warehouse.initial_load_rows("parts", system.part_rows())
        return warehouse

    def standard_mapper(self):
        mapper = MethodCallMapper()
        mapper.register(
            "revise_parts",
            lambda args: [
                f"UPDATE parts SET status = '{args[2]}' "
                f"WHERE part_ref >= {args[0]} AND part_ref < {args[1]}"
            ],
        )
        mapper.register(
            "retire_parts",
            lambda args: [
                f"DELETE FROM parts WHERE part_ref >= {args[0]} "
                f"AND part_ref < {args[1]}"
            ],
        )
        return mapper

    def test_mapped_calls_converge_warehouse(self, system):
        warehouse = self.make_warehouse(system)
        capture = MiddlewareCapture()
        capture.tap_system(system)
        system.revise_parts(0, 20)
        system.retire_parts(20, 25)
        applier = MethodDeltaApplier(
            warehouse.database.internal_session(), self.standard_mapper()
        )
        applier.apply(capture.drain())
        assert applier.calls_applied == 2
        schema = parts_schema()
        assert strip_timestamp(schema, system.part_rows()) == strip_timestamp(
            schema, (v for _r, v in warehouse.database.table("parts").scan())
        )

    def test_unmapped_method_raises_feasibility_error(self, system):
        warehouse = self.make_warehouse(system)
        capture = MiddlewareCapture()
        capture.tap_system(system)
        system.reprice_supplier(1, 1.1)  # not in the mapper
        applier = MethodDeltaApplier(
            warehouse.database.internal_session(), self.standard_mapper()
        )
        with pytest.raises(ExtractionError, match="not be always feasible"):
            applier.apply(capture.drain())

    def test_duplicate_registration_rejected(self):
        mapper = self.standard_mapper()
        with pytest.raises(ExtractionError, match="already mapped"):
            mapper.register("revise_parts", lambda args: [])

    def test_failed_call_rolls_back_atomically(self, system):
        warehouse = self.make_warehouse(system)
        mapper = MethodCallMapper()
        mapper.register(
            "revise_parts",
            lambda args: [
                f"UPDATE parts SET status = 'x' WHERE part_ref < {args[1]}",
                "INSERT INTO parts VALUES (0, 0, 'DUP', 'd', 'x', 1, 1.0, "
                "NULL, 0)",  # PK collision
            ],
        )
        capture = MiddlewareCapture()
        capture.tap_system(system)
        system.revise_parts(0, 10)
        before = sorted(
            v for _r, v in warehouse.database.table("parts").scan()
        )
        applier = MethodDeltaApplier(
            warehouse.database.internal_session(), mapper
        )
        with pytest.raises(WarehouseError):
            applier.apply(capture.drain())
        after = sorted(v for _r, v in warehouse.database.table("parts").scan())
        assert before == after

    def test_cross_system_transfer_replayed(self, enterprise):
        warehouse = Warehouse(clock=enterprise.clock)
        warehouse.create_mirror(parts_schema())
        rows = []
        for system in enterprise.systems.values():
            rows.extend(system.part_rows())
        warehouse.initial_load_rows("parts", rows)

        mapper = MethodCallMapper()
        mapper.register(
            "transfer_quantity",
            lambda args: [
                f"UPDATE parts SET quantity = quantity - {args[2]} "
                f"WHERE part_id = {args[0]}",
                f"UPDATE parts SET quantity = quantity + {args[2]} "
                f"WHERE part_id = {args[1]}",
            ],
        )
        capture = MiddlewareCapture()
        capture.tap_enterprise(enterprise)
        enterprise.interleaved_transfers(0, 1_000, 7, 2)
        applier = MethodDeltaApplier(
            warehouse.database.internal_session(), mapper
        )
        applier.apply(capture.drain())
        # One captured global txn -> ONE warehouse txn each: the boundary
        # that no per-system extraction method could reconstruct (§2.1).
        assert applier.calls_applied == 2
        session = warehouse.database.internal_session()
        quantities = dict(
            session.query("SELECT part_id, quantity FROM parts "
                          "WHERE part_id = 0 OR part_id = 1000")
        )
        expected = {
            part_id: enterprise.system_for(part_id)
            .wrapper_session.query(
                f"SELECT quantity FROM parts WHERE part_id = {part_id}"
            )[0][0]
            for part_id in (0, 1_000)
        }
        assert quantities == expected
