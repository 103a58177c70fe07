"""Microbenchmarks of the engine primitives (real wall-clock time).

Unlike the experiment benches (which report deterministic *virtual* time),
these measure the Python implementation itself: row codec, page ops, SQL
parsing, DML statements, scans.  Useful for catching performance
regressions in the substrate that the experiments run on.

The record codec and the column-pruned scan have their own numbers:
``test_row_codec_roundtrip`` / ``test_row_decode`` time the compiled
per-schema codec on one 112-byte ``parts`` record, and
``test_full_scan_all_columns`` / ``test_pruned_scan_one_column`` time the
same 10,000-row heap scan decoding nine columns and one.
``test_admit_row`` times what a written row pays before it is stored — one
admission pass over the same ``parts`` row — against
``test_validate_then_encode_row``, the checked path admission falls back to.

``test_scan_filter_no_match`` times the filtering scan end to end — a range
UPDATE on the unindexed ``part_ref`` that examines all 10,000 records and
keeps none, through the session — and ``test_compile_point_predicate`` the
cost of compiling ``part_id = <literal>`` with a different literal every
time: the expression compiler emits source, and this is the number that
shows whether its shape-keyed memo holds (an un-hoisted literal would make
every compile a fresh ``exec``, ~80 us instead of ~5).

Reads work a heap page at a time, and each piece of that has its number:
``test_page_decode_numeric`` / ``test_page_decode_text`` decode one full page
of ``parts`` records (73) to one column and to all nine (compare with 73 x
``test_row_decode``); ``test_scan_page_filter_no_match`` is the engine half of
``test_scan_filter_no_match`` — ``Table.scan`` with the emitted loop form of
the same WHERE, no session, no DML; ``test_values_only_scan`` reads all
10,000 rows through ``Table.scan_values`` (compare with
``test_full_scan_all_columns``, which also builds the row ids);
``test_group_by_key_kernel`` groups those rows by ``status`` with the one
``row -> tuple`` kernel; ``test_row_id_construct`` builds one ``RowId``.

A page keeps its decoded rows until it is next written, so every repeated
scan here (the module's table is written only by the DML benchmarks) reads
kept decodes after its first round.  ``test_scan_kept_pages`` is that read
on its own, ``test_scan_after_point_update`` the same read after a one-row
UPDATE (one page decoded again) and ``test_point_update_write_count`` the
UPDATE alone: the writer's side, which pays one integer add per page write.
What the written page costs a reader has three more:
``test_page_decode_one_record`` (the one record a one-slot patch decodes),
``test_page_patch_one_slot`` (the patch itself: a page's kept decode after
one of its slots is overwritten) and ``test_kept_aggregate_after_point_update``
(a kept ``COUNT(*), SUM(quantity)`` after a one-row UPDATE: the written
page's partial derived again and the plan's kept total retallied by it).

What a scanned row still pays beside its data has three numbers:
``test_filtered_count`` (a WHERE against a string literal, whose class is
tested once per statement), ``test_sum_one_column`` (an aggregate's column
read by slot and admitted by one type-set test) and
``test_advance_each_one_page`` (one page's clock charge, computed per binade
of the total instead of one addition at a time).

``test_parse_template_hit`` / ``test_parse_template_miss`` time ``parse`` on
PK-point UPDATE texts that differ in their literals, with the statement
template table warm and cleared before every call (~13 us against ~75 on the
box this was written on), and ``test_analyze_statement_template_hit`` the
analyzer's record for such a statement once its shape is known.

``test_walk_predicate`` times the one AST traversal
(:func:`repro.sql.ast_nodes.walk`) over a five-conjunct WHERE, and
``test_transform_update_template_miss`` the transformer's rewrite of an
UPDATE of a shape it has not filed yet — both built on the table of child
fields derived from the node classes.

The row-vs-columnar pair at the bottom compares two *bindings* of the one
SQL expression compiler (:mod:`repro.sql.expressions`) — a kernel over row
tuples and a kernel over column arrays run the same interior-node code —
and then the two statement-apply paths built on them.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import OpDeltaAnalyzer
from repro.clock import VirtualClock
from repro.columnar import ColumnBatch, ColumnarApplier, compile_predicate
from repro.core import StatementTransformer, TableMapping
from repro.core.selfmaint import ViewDefinition
from repro.engine import Database
from repro.engine.costs import CostModel
from repro.engine.page import Page, slots_per_page
from repro.engine.rows import RowId, decode_row, encode_row
from repro.extraction.deltas import ChangeKind, DeltaBatch, DeltaRecord
from repro.sql import expressions
from repro.sql.parser import TemplateTable, parse
from repro.warehouse import ValueDeltaIntegrator
from repro.warehouse.value_integrator import delete_by_key, row_insert
from repro.workloads import OltpWorkload, PartsGenerator, parts_schema


@pytest.fixture(scope="module")
def populated():
    database = Database("micro")
    workload = OltpWorkload(database)
    workload.create_table()
    workload.populate(10_000)
    return database, workload


def test_row_codec_roundtrip(benchmark):
    schema = parts_schema()
    row = PartsGenerator().row(42, timestamp=123.0)

    def roundtrip():
        return decode_row(schema, encode_row(schema, row))

    assert benchmark(roundtrip)[0] == 42


def test_row_decode(benchmark):
    schema = parts_schema()
    record = encode_row(schema, PartsGenerator().row(42, timestamp=123.0))
    assert benchmark(decode_row, schema, record)[0] == 42


def test_admit_row(benchmark):
    schema = parts_schema()
    row = PartsGenerator().row(42, timestamp=123.0)
    values, record = benchmark(schema.admit, row)
    assert values == row and record == encode_row(schema, row)


def test_validate_then_encode_row(benchmark):
    schema = parts_schema()
    row = PartsGenerator().row(42, timestamp=123.0)

    def checked():
        validated = schema.validate_values(row)
        return validated, encode_row(schema, validated)

    assert benchmark(checked) == schema.admit(row)


def test_sql_parse_update(benchmark):
    sql = (
        "UPDATE parts SET status = 'revised', price = price * 1.05 "
        "WHERE quantity > 10 AND supplier_id IN (1, 2, 3)"
    )
    statement = benchmark(parse, sql)
    assert statement.table == "parts"


def _point_updates():
    """PK-point UPDATE texts of one shape, a different key and value each."""
    return itertools.cycle(
        f"UPDATE parts SET status = 's{part_id % 7}' WHERE part_id = {part_id}"
        for part_id in range(1_000)
    )


def test_parse_template_hit(benchmark):
    """A text whose shape the template table knows: split, look up, bind.

    Beside ``test_sql_parse_update`` (one text, so also a hit) this varies
    the literals, and it is timed in runs of 200 like every few-microsecond
    number here.
    """
    texts = _point_updates()
    parse(next(texts))
    statement = benchmark.pedantic(
        lambda: parse(next(texts)), iterations=200, rounds=150, warmup_rounds=2
    )
    assert statement.table == "parts" and statement.binding is not None


def test_parse_template_miss(benchmark):
    """A shape the table has never seen: tokenize, run the grammar, build the
    template, bind — what every parse cost before there were templates."""
    table = TemplateTable()
    texts = _point_updates()

    def parse_cold():
        table.clear()
        return table.parse(next(texts))

    statement = benchmark.pedantic(
        parse_cold, iterations=200, rounds=30, warmup_rounds=1
    )
    assert statement.table == "parts" and table.misses == 1


_FIVE_CONJUNCTS = (
    "quantity > 10 AND supplier_id = 3 AND status <> 'retired' "
    "AND price <= 99.5 AND part_ref >= 100"
)


def test_walk_predicate(benchmark):
    """Every node of a five-conjunct WHERE: what the executor's
    ``_columns_read`` pays once per statement shape, when the shape is
    planned."""
    where = parse(f"DELETE FROM parts WHERE {_FIVE_CONJUNCTS}").where
    nodes = benchmark.pedantic(
        expressions.walk, (where,), iterations=200, rounds=150, warmup_rounds=2
    )
    assert len(nodes) == 19


def test_transform_update_template_miss(benchmark):
    """An UPDATE onto a renaming warehouse schema, its shape not yet filed:
    the tree rewrite, the rewritten shape's template, one bind — what the
    first statement of a shape costs at the integrator (every later one is a
    bind)."""
    names = parts_schema().column_names
    mapping = TableMapping(
        "parts", "dw_parts", {name: f"w_{name}" for name in names}, names
    )
    statement = parse(
        "UPDATE parts SET status = 'revised', price = price * 1.05 "
        f"WHERE {_FIVE_CONJUNCTS}"
    )

    def transform_cold():
        # A transformer files rewritten shapes under its own scope.
        return StatementTransformer({"parts": mapping}).transform(statement)

    transformed = benchmark.pedantic(
        transform_cold, iterations=50, rounds=60, warmup_rounds=1
    )
    assert transformed.table == "dw_parts" and "w_price" in transformed.to_sql()


def test_analyze_statement_template_hit(benchmark):
    """The analyzer's record for a statement of a known shape: the footprint
    off the template with its row range recomputed, the row tests of
    relevance — the capture-side cost per PK-point statement."""
    columns = parts_schema().column_names
    view = ViewDefinition(
        name="parts_catalog", base_table="parts", columns=columns,
        predicate=None, key_column="part_id", base_columns=columns,
    )
    analyzer = OpDeltaAnalyzer(
        views=[view], mirrored_tables={"parts"},
        key_columns={"parts": "part_id"}, table_columns={"parts": columns},
    )
    texts = _point_updates()
    bindings = itertools.cycle([parse(next(texts)).binding for _ in range(1_000)])
    analyzer.analyze_statement(parse(next(texts)))

    def analyze_fresh_statement():
        # A new statement object each time (bound again from its literals):
        # what is kept per statement — its footprint — is worked out again,
        # what is kept per shape is not.
        binding = next(bindings)
        return analyzer.analyze_statement(
            binding.template.bind(binding.values, binding.shifts)
        )

    record = benchmark.pedantic(
        analyze_fresh_statement, iterations=200, rounds=100, warmup_rounds=2
    )
    assert record.safe and not record.pruned


def test_insert_statement(benchmark, populated):
    database, workload = populated
    session = database.internal_session()
    counter = iter(range(10_000_000, 99_000_000))

    def insert():
        part_id = next(counter)
        session.execute(
            f"INSERT INTO parts VALUES ({part_id}, {part_id}, 'PN-X', 'd', "
            f"'new', 1, 1.0, NULL, 1)"
        )

    benchmark(insert)


def test_indexed_point_query(benchmark, populated):
    database, _workload = populated
    session = database.internal_session()
    rows = benchmark(session.query, "SELECT * FROM parts WHERE part_id = 5000")
    assert len(rows) == 1


def test_full_scan_aggregate(benchmark, populated):
    database, _workload = populated
    session = database.internal_session()
    count = benchmark(session.scalar, "SELECT COUNT(*) FROM parts")
    assert count >= 10_000


def test_full_scan_all_columns(benchmark, populated):
    database, _workload = populated
    table = database.table("parts")
    rows = benchmark(lambda: sum(len(values) for _rid, values in table.scan()))
    assert rows >= 9 * 10_000


def test_pruned_scan_one_column(benchmark, populated):
    database, _workload = populated
    table = database.table("parts")
    part_ref = (table.schema.column_index("part_ref"),)
    rows = benchmark(lambda: sum(len(values) for _rid, values in table.scan(part_ref)))
    assert rows >= 10_000


def test_scan_filter_no_match(benchmark, populated):
    database, _workload = populated
    session = database.internal_session()
    sql = (
        "UPDATE parts SET quantity = quantity + 1 "
        "WHERE part_ref >= 90000000 AND part_ref < 90000100"
    )
    assert session.execute(sql).plan == "update:scan"
    assert benchmark(lambda: session.execute(sql).rows_affected) == 0


def _parts_page():
    schema = parts_schema()
    generator = PartsGenerator()
    return schema, [
        encode_row(schema, generator.row(part_id, timestamp=123.0))
        for part_id in range(slots_per_page(schema.record_size))  # 73
    ]


def test_page_decode_numeric(benchmark):
    schema, records = _parts_page()
    decode = schema.codec.page_decoder((schema.column_index("part_ref"),))
    assert len(benchmark(decode, records)) == len(records)


def test_page_decode_text(benchmark):
    schema, records = _parts_page()
    rows = benchmark(schema.codec.decode_page, records)
    assert rows[42] == decode_row(schema, records[42])


def test_page_decode_one_record(benchmark):
    """What a written slot's patch decodes: one record, handed to the
    single-record decoder rather than through a page's join and unpack."""
    schema, records = _parts_page()
    rows = benchmark(schema.codec.decode_page, records[42:43])
    assert rows == [decode_row(schema, records[42])]


def test_page_patch_one_slot(benchmark):
    """One slot of a full page overwritten, then the page's kept decode of
    one column asked for: the written record decoded and spliced into
    copies of the lists."""
    schema, records = _parts_page()
    page = Page(schema.record_size)
    for record in records:
        page.insert(record)
    decode = schema.codec.page_decoder((schema.column_index("quantity"),))
    slots_before = page.decoded(decode)[0]

    def write_then_decode():
        page.overwrite(42, records[42])
        return page.decoded(decode)

    slots, rows = benchmark(write_then_decode)
    assert slots == slots_before and len(rows) == len(records)


def test_scan_page_filter_no_match(benchmark, populated):
    database, _workload = populated
    table = database.table("parts")
    part_ref = (table.schema.column_index("part_ref"),)
    where = parse(
        "DELETE FROM parts WHERE part_ref >= 90000000 AND part_ref < 90000100"
    ).where
    keep = expressions.page_filter_maker(
        where, expressions.RowBinding(["part_ref"]), expressions.no_slot
    )((), expressions.NO_SESSION)
    assert benchmark(lambda: list(table.scan(part_ref, keep))) == []


def test_values_only_scan(benchmark, populated):
    database, _workload = populated
    table = database.table("parts")
    rows = benchmark(lambda: sum(map(len, table.scan_values())))
    assert rows >= 9 * 10_000


def _scan_three_columns(table):
    """A read of ``part_id, status, quantity`` through ``scan_values``,
    returning the row count."""
    columns = tuple(
        table.schema.column_index(name) for name in ("part_id", "status", "quantity")
    )
    return lambda: len(list(table.scan_values(columns)))


def test_scan_kept_pages(benchmark, populated):
    """Scans of a table nothing writes between them: every page's decode
    is the one the scan before kept, so a scan is the walk and the charge."""
    database, _workload = populated
    assert benchmark(_scan_three_columns(database.table("parts"))) >= 10_000


def _point_update(database):
    """One committed engine-level UPDATE of one row (no SQL): one page
    written, its kept decodes left behind."""
    table = database.table("parts")
    [(row_id, _values)] = table.lookup("part_id", 4242)
    quantities = itertools.count()

    def update():
        txn = database.begin()
        table.update(txn, row_id, {"quantity": next(quantities)})
        database.commit(txn)

    return table, update


def test_scan_after_point_update(benchmark, populated):
    """A point update, then the scan of ``test_scan_kept_pages``: the one
    page written is decoded again, the others are read as kept."""
    database, _workload = populated
    table, update = _point_update(database)
    scan = _scan_three_columns(table)

    def update_then_scan():
        update()
        return scan()

    assert benchmark(update_then_scan) >= 10_000


def test_kept_aggregate_after_point_update(benchmark, populated):
    """A point update, then ``COUNT(*), SUM(quantity)`` of a plan that keeps
    its partials: the written page's derived again and the kept total
    retallied by it, every other page's handed back."""
    database, _workload = populated
    _table, update = _point_update(database)
    session = database.internal_session()
    sql = "SELECT COUNT(*), SUM(quantity) FROM parts"

    def update_then_aggregate():
        update()
        return session.execute(sql).rows

    [(count, _total)] = benchmark(update_then_aggregate)
    assert count >= 10_000


def test_point_update_write_count(benchmark, populated):
    """The writer's side of the kept decode: the point update alone, whose
    page mutators each add one to the page's write count and do nothing else."""
    database, _workload = populated
    _table, update = _point_update(database)
    benchmark.pedantic(update, iterations=50, rounds=100, warmup_rounds=2)


def test_filtered_count(benchmark, populated):
    """A WHERE against a literal over 10,000 rows: the literal's class is
    tested once per statement, the row's class once per row."""
    database, _workload = populated
    session = database.internal_session()
    sql = "SELECT COUNT(*) FROM parts WHERE status = 'active'"
    assert benchmark(session.scalar, sql) > 0


def test_sum_one_column(benchmark, populated):
    """An aggregate over 10,000 rows: its column read by slot, its values
    admitted by one type-set test."""
    database, _workload = populated
    session = database.internal_session()
    assert benchmark(session.scalar, "SELECT SUM(quantity) FROM parts") > 0


def test_advance_each_one_page(benchmark):
    """The scan charge of one 72-record page: one per-binade run of the
    virtual clock (72 additions one by one would be ~5x this)."""
    clock = VirtualClock()
    clock.advance(1_000.0)
    charge = CostModel().row_scan_cpu
    benchmark.pedantic(
        clock.advance_each, (charge, 72), iterations=200, rounds=150, warmup_rounds=2
    )
    assert clock.now > 1_000.0


def test_group_by_key_kernel(benchmark, populated):
    database, _workload = populated
    rows = list(database.table("parts").scan_values())
    bind = expressions.RowBinding(parts_schema().column_names)
    key = expressions.row_maker(
        parse("SELECT COUNT(*) FROM parts GROUP BY status").group_by, bind,
        expressions.no_slot,
    )((), expressions.NO_SESSION)

    def group():
        groups = {}
        for row in rows:
            groups.setdefault(key(row), []).append(row)
        return groups

    assert sum(map(len, benchmark(group).values())) == len(rows)


def test_row_id_construct(benchmark):
    assert benchmark(RowId, 3, 4) == RowId(3, 4)


def test_compile_point_predicate(benchmark):
    bind = expressions.RowBinding(parts_schema().column_names)
    predicates = itertools.cycle(
        parse(f"DELETE FROM parts WHERE part_id = {part_id}").where
        for part_id in range(1_000)
    )
    # A compile is a few microseconds: time it in runs of 200, not one call
    # per round, or the timer's own cost is most of the number.
    kernel = benchmark.pedantic(
        lambda: expressions.compile_predicate(next(predicates), bind),
        iterations=200, rounds=150, warmup_rounds=2,
    )
    assert kernel((0,) * 9) in (True, False)


def test_sized_update_transaction(benchmark, populated):
    database, workload = populated

    def update():
        return workload.run_update(100).response_ms

    assert benchmark(update) > 0


# --------------------------------------------------------- row vs columnar
# The columnar experiment gates the *end-to-end* speedup in virtual time;
# these pin down where the real-wall-clock win comes from, stage by stage:
# predicate evaluation (the one compiler bound to row tuples vs bound to
# column arrays) and statement apply (executor row loop vs batch DML).

_PREDICATE_SQL = "quantity > 500 AND status != 'retired'"


@pytest.fixture(scope="module")
def parts_image(populated):
    database, _workload = populated
    return ColumnBatch.from_table(database.table("parts"))


def test_predicate_eval_row_at_a_time(benchmark, populated):
    database, _workload = populated
    where = parse(f"DELETE FROM parts WHERE {_PREDICATE_SQL}").where
    bind = expressions.RowBinding(parts_schema().column_names)
    kernel = expressions.compile_predicate(where, bind)
    rows = list(database.table("parts").scan_values())

    def row_filter():
        return sum(1 for values in rows if kernel(values, expressions.NO_SESSION))

    assert benchmark(row_filter) > 0


def test_predicate_eval_columnar_kernel(benchmark, populated, parts_image):
    where = parse(f"DELETE FROM parts WHERE {_PREDICATE_SQL}").where
    kernel = compile_predicate(where, parts_image.layout)
    cols = parts_image.columns

    def kernel_filter():
        return sum(
            1 for pos in range(parts_image.num_rows) if kernel(cols, pos)
        )

    assert benchmark(kernel_filter) > 0


_UPDATE_SQL = "UPDATE parts SET status = 'benched' WHERE quantity > 500"


def test_update_apply_row_path(benchmark, populated):
    database, _workload = populated
    session = database.internal_session()

    def row_apply():
        return session.execute(_UPDATE_SQL).rows_affected

    assert benchmark(row_apply) > 0


def test_update_apply_columnar(benchmark, populated):
    database, _workload = populated
    session = database.internal_session()
    applier = ColumnarApplier(session)
    statement = parse(_UPDATE_SQL)

    def columnar_apply():
        applier.begin_component()  # fresh image: same work as the row scan
        session.begin()
        txn = session.current_transaction
        affected = applier.apply_mirror(statement, txn)
        session.commit()
        return affected

    assert benchmark(columnar_apply) > 0


_POINT_UPDATE_SQL = "UPDATE parts SET status = 'benched' WHERE part_id = 4242"


def test_point_update_apply_columnar(benchmark, populated):
    """One PK-point statement per fresh component: the per-statement cost the
    host benchmark's ``opdelta_batched`` workload is made of (the batch is the
    row the key index reaches, whatever the table holds)."""
    database, _workload = populated
    session = database.internal_session()
    applier = ColumnarApplier(session)
    statement = parse(_POINT_UPDATE_SQL)

    def columnar_point_apply():
        applier.begin_component()  # nothing resident: the chooser is asked
        session.begin()
        txn = session.current_transaction
        affected = applier.apply_mirror(statement, txn)
        session.commit()
        return affected

    assert benchmark(columnar_point_apply) == 1


# ------------------------------------------------------- value-delta apply
# What the value integrator's maintenance window is made of: one DELETE by
# key per delete record, DELETE + INSERT per update record, one array INSERT
# per run of insert records — each batch of 100 records applied through
# ``ValueDeltaIntegrator.integrate`` (one warehouse transaction), so the
# numbers are per 100 records.  ``test_insert_row_with_expression`` is the
# row that does need compiling: one INSERT text whose VALUES hold two
# expressions beside the literals.  ``test_value_pair_prepared`` /
# ``test_value_pair_tree`` are one update record's two statements on a
# 4,000-row mirror, run from their values and through bound trees.

_BATCH_ROWS = 100


@pytest.fixture(scope="module")
def mirror():
    database = Database("mirror")
    workload = OltpWorkload(database)
    workload.create_table(auto_timestamp=False)
    workload.populate(2_000)
    generator = PartsGenerator()
    rows = [generator.row(100_000 + at, timestamp=1.0) for at in range(_BATCH_ROWS)]
    integrator = ValueDeltaIntegrator(database.internal_session())

    def batch(kind, before=None, after=None):
        records = [
            DeltaRecord(
                kind, row[0],
                before=None if before is None else before[at],
                after=None if after is None else after[at],
            )
            for at, row in enumerate(rows)
        ]
        return DeltaBatch("parts", database.table("parts").schema, records)

    changed = [row[:5] + (row[5] + 1,) + row[6:] for row in rows]
    batches = {
        "insert": batch(ChangeKind.INSERT, after=rows),
        "delete": batch(ChangeKind.DELETE, before=rows),
        "update": batch(ChangeKind.UPDATE, before=rows, after=changed),
    }
    return integrator, batches


def test_value_delta_delete_by_key(benchmark, mirror):
    integrator, batches = mirror
    report = benchmark.pedantic(
        integrator.integrate, (batches["delete"],),
        setup=lambda: integrator.integrate(batches["insert"]) and None,
        rounds=60, warmup_rounds=2,
    )
    assert report.statements_issued == report.rows_affected == _BATCH_ROWS


def test_value_delta_update_record(benchmark, mirror):
    integrator, batches = mirror
    integrator.integrate(batches["insert"])
    try:
        report = benchmark.pedantic(
            integrator.integrate, (batches["update"],), rounds=60, warmup_rounds=2
        )
    finally:
        integrator.integrate(batches["delete"])
    assert report.statements_issued == report.rows_affected == 2 * _BATCH_ROWS


def test_array_insert_100_rows(benchmark, mirror):
    integrator, batches = mirror
    integrator.integrate(batches["insert"])
    report = benchmark.pedantic(
        integrator.integrate, (batches["insert"],),
        setup=lambda: integrator.integrate(batches["delete"]) and None,
        rounds=60, warmup_rounds=2,
    )
    integrator.integrate(batches["delete"])
    assert report.statements_issued == 1 and report.rows_affected == _BATCH_ROWS


@pytest.fixture
def value_pair():
    """A 4,000-row mirror in an open warehouse transaction, the value
    integrator's two templates, and one of its rows."""
    database = Database("pair")
    workload = OltpWorkload(database)
    workload.create_table(auto_timestamp=False)
    workload.populate(4_000)
    schema = database.table("parts").schema
    row = next(iter(database.table("parts").scan_values()))
    session = database.internal_session()
    session.begin()
    yield session, delete_by_key("parts", "part_id", row[0]), row_insert("parts", schema), row
    session.commit()


def _pair_rounds(benchmark, pair):
    # A fixed number of rounds: every pair leaves a deleted slot behind.
    return benchmark.pedantic(pair, rounds=2_000, warmup_rounds=50)


def test_value_pair_prepared(benchmark, value_pair):
    """One update record's DELETE by key and row INSERT, run from their
    values through ``Session.execute_prepared``: no tree."""
    session, delete, insert, row = value_pair

    def pair():
        session.execute_prepared(delete, ((row[0],),))
        return session.execute_prepared(insert, (row,)).rows_affected

    assert _pair_rounds(benchmark, pair) == 1


def test_value_pair_tree(benchmark, value_pair):
    """The same two statements bound as trees from the same templates and
    run through ``Session.execute_statement``: the route they replaced."""
    session, delete, insert, row = value_pair

    def pair():
        session.execute_statement(delete.bind((row[0],), ()))
        return session.execute_statement(insert.bind(row, ())).rows_affected

    assert _pair_rounds(benchmark, pair) == 1


def test_insert_row_with_expression(benchmark, populated):
    database, _workload = populated
    session = database.internal_session()
    counter = iter(range(200_000_000, 299_000_000))

    def insert():
        part_id = next(counter)
        return session.execute(
            f"INSERT INTO parts VALUES ({part_id}, {part_id}, 'PN-X', 'd', "
            f"UPPER('new'), 1 + {part_id}, 1.0, NULL, 1)"
        ).rows_affected

    assert benchmark(insert) == 1
