"""Property-based tests: Op-Delta replay equivalence.

For random sequences of source transactions (random operation kinds, sizes
and predicates), replaying the captured Op-Deltas at the warehouse must
always converge the mirror to the source's logical state — and so must the
trigger-captured value deltas, and the two mirrors must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FileLogStore, OpDeltaCapture
from repro.engine import Database
from repro.extraction import TriggerExtractor
from repro.warehouse import OpDeltaIntegrator, ValueDeltaIntegrator, Warehouse
from repro.workloads import OltpWorkload, parts_schema, strip_timestamp

_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "reprice", "abort"]),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=1,
    max_size=8,
)


def run_source_operations(workload, operations):
    session = workload.session
    for kind, size in operations:
        if kind == "insert":
            workload.run_insert(size)
        elif kind == "update":
            if workload.live_rows >= size:
                workload.run_update(size, assignment=f"quantity = {size}")
        elif kind == "delete":
            if workload.live_rows > size:
                workload.run_delete(size, top_up=False)
        elif kind == "reprice":
            if workload.live_rows >= size:
                workload.run_update(size, assignment="price = price * 1.5")
        else:  # aborted transaction: must leave no trace anywhere
            session.execute("BEGIN")
            session.execute(
                f"UPDATE parts SET status = 'ghost' WHERE part_ref < {size}"
            )
            session.execute("ROLLBACK")


def logical(database):
    return strip_timestamp(
        parts_schema(), (v for _r, v in database.table("parts").scan())
    )


@given(_operations)
@settings(max_examples=25, deadline=None)
def test_opdelta_and_value_delta_replay_agree(operations):
    source = Database("prop-src")
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(60)

    store = FileLogStore(source)
    OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
    triggers = TriggerExtractor(source, "parts")
    triggers.install()

    op_wh = Warehouse("op-wh", clock=source.clock)
    value_wh = Warehouse("value-wh", clock=source.clock)
    initial = [v for _r, v in source.table("parts").scan()]
    for wh in (op_wh, value_wh):
        wh.create_mirror(parts_schema())
        wh.initial_load_rows("parts", initial)

    run_source_operations(workload, operations)

    OpDeltaIntegrator(op_wh.database.internal_session()).integrate(store.drain())
    batch = triggers.drain_to_batch()
    if len(batch):
        ValueDeltaIntegrator(value_wh.database.internal_session()).integrate(batch)

    expected = logical(source)
    assert logical(op_wh.database) == expected
    assert logical(value_wh.database) == expected


@given(_operations)
@settings(max_examples=15, deadline=None)
def test_log_recovery_equivalence(operations):
    """Redo from archive logs re-creates the exact source state."""
    from repro.engine import clone_schemas, recover_from_archive

    source = Database("prop-log-src", archive_mode=True)
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(60)
    run_source_operations(workload, operations)
    source.checkpoint()

    standby = Database("prop-standby", clock=source.clock)
    clone_schemas(source, standby)
    recover_from_archive(standby, source.log.drain_archive())
    assert sorted(v for _r, v in standby.table("parts").scan()) == sorted(
        v for _r, v in source.table("parts").scan()
    )
