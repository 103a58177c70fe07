"""Tests for the access-path chooser's one sarg list and its two settles."""

import math

import pytest

from repro.sql.expressions import no_slot
from repro.sql.parser import parse_expression
from repro.sql.planner import choose_path, sargs, settle_path

from .test_sql_executor import _session

MIXED = "part_ref >= 5 AND part_id = 3"


@pytest.fixture
def session():
    return _session()


def test_an_unindexed_sarg_ahead_of_an_indexed_one_is_skipped(session):
    table = session.database.table("parts")
    assert choose_path(table, "parts", parse_expression(MIXED)).description == (
        "index(pk_parts)"
    )
    update = session.execute(f"UPDATE parts SET quantity = 0 WHERE {MIXED}")
    assert (update.plan, update.rows_affected) == ("update:index(pk_parts)", 0)


def test_a_non_sarg_conjunct_keeps_the_probe_and_drops_the_bounds(session):
    table = session.database.table("parts")
    where = parse_expression("part_id = 3 AND quantity + 0 > -1 AND part_ref >= 0")
    found, whole = sargs(table, "parts", where, no_slot)
    assert [(s.at, s.index and s.index.name) for s in found] == [
        (0, "pk_parts"), (1, None),
    ]
    assert not whole  # so the scan is not page-bounded
    update = session.execute(
        "UPDATE parts SET quantity = 0 WHERE part_id = 3 AND quantity + 0 > -1"
    )
    assert (update.plan, update.rows_affected) == ("update:index(pk_parts)", 1)


@pytest.mark.parametrize(
    "op, plan",
    [("=", "index"), ("<", "index-range"), (">", "index-range"),
     ("<=", "index-range"), (">=", "index-range")],
)
def test_a_nan_key_keeps_its_one_sided_plan(session, op, plan):
    """A NaN end spans no key, closed or not, so every range on NaN is
    estimated empty and probes the index for nothing."""
    table = session.database.table("parts")
    where = parse_expression(f"part_id {op} 1.5")
    found, whole = sargs(table, "parts", where, lambda value: 0)
    assert whole and [(s.at, s.index.name, s.slot) for s in found] == [
        (0, "pk_parts", 0)
    ]
    assert settle_path(found, (math.nan,)).description.split("(")[0] == plan
