"""Materialising a view takes the semantic checker's verdict on its SELECT.

Every broken definition below is refused where it is materialised —
``Warehouse.define_view``, ``MaterializedView`` or
``MaterializedAggregateView`` — with a :class:`SemanticError` carrying the
checker's diagnostics, all of one code, before any storage is created.
The predicate cases were once accepted and failed at the first row the
view evaluated.
"""

import pytest

from repro.core import JoinSpec, ViewDefinition
from repro.engine import Database
from repro.errors import SemanticError
from repro.semantics import TYPE_MISMATCH, UNKNOWN_COLUMN, UNKNOWN_TABLE
from repro.warehouse import (
    AggregateSpec,
    AggregateViewDefinition,
    MaterializedAggregateView,
    MaterializedView,
    Warehouse,
)
from repro.workloads import parts_schema, suppliers_schema


def spj(**fields):
    fields.setdefault("columns", ("part_id", "quantity"))
    fields.setdefault("key_column", "part_id")
    return ViewDefinition("v", "parts", **fields)


def aggregate(group_by=("supplier_id",), aggregates=("SUM", "quantity"), **fields):
    return AggregateViewDefinition(
        "g", "parts", group_by=group_by,
        aggregates=(AggregateSpec(*aggregates),), **fields,
    )


SUPPLIER_REGION = JoinSpec(
    "suppliers", "supplier_id", "supplier_id", columns=("region",)
)

#: (id, definition, schema it is materialised over, the one code refused).
SPJ_CASES = [
    ("projected-column", spj(columns=("part_id", "nope")), parts_schema(),
     UNKNOWN_COLUMN),
    ("key-column", spj(key_column="nope"), parts_schema(), UNKNOWN_COLUMN),
    ("join-left-column",
     spj(join=JoinSpec("suppliers", "nope", "supplier_id")), parts_schema(),
     UNKNOWN_COLUMN),
    ("predicate-column", spj(predicate="quantity > 1 AND nope = 2"),
     parts_schema(), UNKNOWN_COLUMN),
    ("predicate-type", spj(predicate="status > 5"), parts_schema(),
     TYPE_MISMATCH),
    ("unmirrored-join", spj(join=SUPPLIER_REGION), parts_schema(),
     UNKNOWN_TABLE),
    ("wrong-base-schema", spj(), suppliers_schema(), UNKNOWN_TABLE),
]
AGGREGATE_CASES = [
    ("group-by-column", aggregate(group_by=("nope",)), parts_schema(),
     UNKNOWN_COLUMN),
    ("aggregated-column", aggregate(aggregates=("SUM", "nope")),
     parts_schema(), UNKNOWN_COLUMN),
    ("non-numeric-sum", aggregate(aggregates=("SUM", "status")),
     parts_schema(), TYPE_MISMATCH),
    ("non-numeric-avg", aggregate(aggregates=("AVG", "part_no")),
     parts_schema(), TYPE_MISMATCH),
    ("predicate-column", aggregate(predicate="nope IS NULL"), parts_schema(),
     UNKNOWN_COLUMN),
    ("predicate-type", aggregate(predicate="price = 'cheap'"), parts_schema(),
     TYPE_MISMATCH),
    ("wrong-base-schema", aggregate(), suppliers_schema(), UNKNOWN_TABLE),
]


def _ids(cases):
    return [case[0] for case in cases]


def assert_refused(materialise, definition, schema, code):
    warehouse = Warehouse()
    with pytest.raises(SemanticError) as caught:
        materialise(warehouse, definition, schema)
    diagnostics = caught.value.diagnostics
    assert {d.code for d in diagnostics} == {code}
    # The message quotes the text the diagnostics' positions index: the
    # predicate's, or the SELECT's where none has a position.
    positioned = any(d.position is not None for d in diagnostics)
    quoted = definition.predicate if positioned else definition.select.to_sql()
    assert f"in {quoted!r}: " in str(caught.value)
    assert not warehouse.views
    assert not warehouse.database.has_table(definition.name)


#: The doors a definition is materialised through.
SPJ_DOORS = {
    "define_view": lambda warehouse, *args: warehouse.define_view(*args),
    "MaterializedView": lambda warehouse, *args: (
        MaterializedView(warehouse.database, *args)
    ),
}


@pytest.mark.parametrize("door", SPJ_DOORS)
@pytest.mark.parametrize(("_id", "definition", "schema", "code"), SPJ_CASES,
                         ids=_ids(SPJ_CASES))
def test_a_broken_spj_definition_is_refused(door, _id, definition, schema, code):
    assert_refused(SPJ_DOORS[door], definition, schema, code)


@pytest.mark.parametrize(("_id", "definition", "schema", "code"),
                         AGGREGATE_CASES, ids=_ids(AGGREGATE_CASES))
def test_a_broken_aggregate_definition_is_refused(_id, definition, schema, code):
    assert_refused(
        lambda warehouse, *args: MaterializedAggregateView(warehouse.database, *args),
        definition, schema, code,
    )


def test_a_predicate_error_is_positioned_in_the_predicate():
    definition = spj(predicate="quantity > 1 AND nope = 2")
    with pytest.raises(SemanticError) as caught:
        MaterializedView(Database("definition-check"), definition, parts_schema())
    (found,) = caught.value.diagnostics
    assert found.position == definition.predicate.index("nope")


def test_the_message_quotes_the_text_its_positions_index():
    definition = spj(predicate="quantity > 1 AND nope = 2")
    with pytest.raises(SemanticError) as caught:
        MaterializedView(Database("definition-check"), definition, parts_schema())
    message = str(caught.value)
    assert "in 'quantity > 1 AND nope = 2': SEM002 at 17" in message
    assert definition.predicate[17:].startswith("nope")


def test_sound_definitions_materialise():
    database = Database("definition-check")
    database.create_table(suppliers_schema())
    view = MaterializedView(
        database, spj(predicate="quantity > 1", join=SUPPLIER_REGION),
        parts_schema(),
    )
    assert view.table.schema.column_names == ("part_id", "quantity", "region")
    grouped = MaterializedAggregateView(
        database, aggregate(predicate="price > 1.5"), parts_schema()
    )
    assert grouped.table.schema.column_names[0] == "supplier_id"
