"""Tests for sessions: SQL entry point, txn scoping, capture hooks."""

import pytest

from repro.engine import Database
from repro.errors import SqlAnalysisError, TransactionError
from repro.sql import ast_nodes as ast


@pytest.fixture
def session(db, small_schema):
    db.create_table(small_schema)
    return db.internal_session()


class TestAutocommit:
    def test_statement_commits_automatically(self, session, db):
        session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        assert not session.in_transaction
        assert db.metrics.value("engine.txn.commit", db="test") >= 1
        assert db.table("items").num_rows == 1

    def test_failed_statement_rolls_back(self, session, db):
        session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        with pytest.raises(SqlAnalysisError):
            session.execute("SELECT nope FROM items")
        assert db.table("items").num_rows == 1

    def test_connect_charges_setup(self, db):
        before = db.clock.now
        db.connect()
        assert db.clock.now - before >= db.costs.connection_setup

    def test_internal_session_free(self, db):
        before = db.clock.now
        db.internal_session()
        assert db.clock.now == before


class TestExplicitTransactions:
    def test_begin_commit(self, session, db):
        session.execute("BEGIN")
        assert session.in_transaction
        session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        session.execute("INSERT INTO items VALUES (2, 'b', 1.0)")
        session.execute("COMMIT")
        assert not session.in_transaction
        assert db.table("items").num_rows == 2

    def test_rollback_undoes_all(self, session, db):
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        session.execute("ROLLBACK")
        assert db.table("items").num_rows == 0

    def test_nested_begin_rejected(self, session):
        session.execute("BEGIN")
        with pytest.raises(TransactionError):
            session.execute("BEGIN")
        session.execute("ROLLBACK")

    def test_commit_without_begin(self, session):
        with pytest.raises(TransactionError):
            session.execute("COMMIT")

    def test_error_in_txn_rolls_back_whole_txn(self, session, db):
        session.execute("INSERT INTO items VALUES (9, 'keep', 1.0)")
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        with pytest.raises(Exception):
            session.execute("INSERT INTO items VALUES (9, 'dup', 1.0)")
        assert not session.in_transaction
        assert db.table("items").num_rows == 1  # only the pre-txn row


class TestCaptureHooks:
    def test_hook_sees_dml_presubmit(self, session):
        captured = []

        def hook(statement, sql_text, sess):
            captured.append((type(statement).__name__, sql_text))
            # Pre-submit: the row must not exist yet.
            assert sess.database.table("items").num_rows == 0

        session.capture_hooks.append(hook)
        session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        assert captured == [
            ("InsertStmt", "INSERT INTO items VALUES (1, 'a', 1.0)")
        ]

    def test_hook_not_fired_for_select(self, session):
        captured = []
        session.capture_hooks.append(lambda *a: captured.append(1))
        session.execute("SELECT * FROM items")
        assert captured == []

    def test_hook_sees_autocommit_transaction(self, session):
        seen = []

        def hook(statement, sql_text, sess):
            txn = sess.current_transaction
            assert txn is not None and txn.is_active
            seen.append(txn.txn_id)

        session.capture_hooks.append(hook)
        session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        session.execute("INSERT INTO items VALUES (2, 'b', 1.0)")
        assert len(set(seen)) == 2  # two autocommit txns

    def test_hook_exception_aborts_statement(self, session, db):
        def hook(*_args):
            raise RuntimeError("capture store full")

        session.capture_hooks.append(hook)
        with pytest.raises(RuntimeError):
            session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        assert db.table("items").num_rows == 0


class TestConveniences:
    def test_query(self, session):
        session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        assert session.query("SELECT item_id FROM items") == [(1,)]

    def test_scalar(self, session):
        session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        assert session.scalar("SELECT COUNT(*) FROM items") == 1

    def test_execute_statement_prebuilt_ast(self, session, db):
        statement = ast.InsertStmt(
            "items", None,
            rows=((ast.Literal(5), ast.Literal("z"), ast.Literal(2.0)),),
        )
        result = session.execute_statement(statement)
        assert result.rows_affected == 1
        assert db.table("items").num_rows == 1

    def test_statement_counter(self, session):
        session.execute("INSERT INTO items VALUES (1, 'a', 1.0)")
        session.execute("SELECT * FROM items")
        assert session.statements_executed == 2
