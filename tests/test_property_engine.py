"""Property-based tests: engine integrity under random DML sequences.

After any sequence of inserts/updates/deletes/aborts:

* every index agrees exactly with a full scan;
* the heap's record count matches the scan;
* a WAL-recovery replay reproduces the same state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, TableSchema
from repro.engine.types import INTEGER, char

SCHEMA = TableSchema(
    "t",
    [
        Column("k", INTEGER, nullable=False),
        Column("v", INTEGER, nullable=False),
        Column("tag", char(4), nullable=False),
    ],
    primary_key="k",
)

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "abort_insert",
                         "abort_update", "abort_delete"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=30,
)


def apply_ops(database: Database, operations) -> dict[int, tuple]:
    """Drive the engine and a Python oracle side by side."""
    table = database.table("t")
    table.create_index("by_v", "v", kind="hash")
    oracle: dict[int, tuple] = {}
    for kind, key, value in operations:
        txn = database.begin()
        try:
            if kind.endswith("insert"):
                if key in oracle:
                    database.abort(txn)
                    continue
                row = (key, value, f"g{value % 5}")
                table.insert(txn, row)
                outcome = {key: row}
            elif kind.endswith("update"):
                matches = table.lookup("k", key)
                if not matches:
                    database.abort(txn)
                    continue
                rid = matches[0][0]
                _old, new = table.update(txn, rid, {"v": value})
                outcome = {key: new}
            else:  # delete
                matches = table.lookup("k", key)
                if not matches:
                    database.abort(txn)
                    continue
                table.delete(txn, matches[0][0])
                outcome = {key: None}
        except Exception:
            database.abort(txn)
            continue
        if kind.startswith("abort"):
            database.abort(txn)
        else:
            database.commit(txn)
            for k, row in outcome.items():
                if row is None:
                    oracle.pop(k, None)
                else:
                    oracle[k] = row
    return oracle


@given(_ops)
@settings(max_examples=50, deadline=None)
def test_state_indexes_and_counts_agree(operations):
    database = Database("prop-engine")
    database.create_table(SCHEMA)
    oracle = apply_ops(database, operations)
    table = database.table("t")

    scanned = {row[0]: row for _rid, row in table.scan()}
    assert scanned == oracle
    assert table.num_rows == len(oracle)

    # Primary-key index agrees with the scan for every live and dead key.
    for key in range(16):
        matches = table.lookup("k", key)
        if key in oracle:
            assert len(matches) == 1 and matches[0][1] == oracle[key]
        else:
            assert matches == []

    # Secondary hash index agrees with a scan-side grouping.
    by_v: dict[int, int] = {}
    for row in oracle.values():
        by_v[row[1]] = by_v.get(row[1], 0) + 1
    for value, expected_count in by_v.items():
        assert len(table.lookup("v", value)) == expected_count


@given(_ops)
@settings(max_examples=25, deadline=None)
def test_recovery_reproduces_random_histories(operations):
    from repro.engine import clone_schemas, recover_from_archive

    database = Database("prop-engine-wal", archive_mode=True)
    database.create_table(SCHEMA)
    apply_ops(database, operations)
    database.checkpoint()

    standby = Database("prop-standby", clock=database.clock)
    clone_schemas(database, standby)
    recover_from_archive(standby, database.log.drain_archive())
    assert sorted(v for _r, v in standby.table("t").scan()) == sorted(
        v for _r, v in database.table("t").scan()
    )
