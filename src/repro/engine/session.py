"""Client sessions: the SQL entry point and the Op-Delta capture seam.

A :class:`Session` parses and executes SQL against its database, scoping
statements into transactions (autocommit by default, explicit
``BEGIN``/``COMMIT``/``ROLLBACK`` otherwise).

Crucially for the paper, a session exposes **capture hooks**: callables that
observe every client DML statement *right before it is submitted to the
DBMS*.  This is the level at which §4.2 captures Op-Delta — "right before it
is submitted to the DBMS to simulate the capture mechanism that will be
implemented by COTS software or by the wrapper approach".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

from ..errors import SqlError, TransactionError
from ..sql import ast_nodes as ast

# The module, not its classes: the executor is built on this package, so
# when ``repro.sql`` is imported first it is still initialising here and
# its names only exist by the time a session is created.
from ..sql import executor as sql_executor
from ..sql.parser import parse
from .database import Database
from .transactions import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sql.executor import Result


class CaptureHook(Protocol):
    """Observer of client DML statements, invoked pre-submit."""

    def __call__(
        self, statement: ast.Statement, sql_text: str, session: "Session"
    ) -> None: ...


class Session:
    """One client connection to a :class:`Database`."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._executor = sql_executor.Executor(database)
        self._txn: Transaction | None = None
        self._stmt_txn: Transaction | None = None
        #: Pre-submit observers of client DML (the COTS/wrapper seam).
        self.capture_hooks: list[CaptureHook] = []
        self.statements_executed = 0

    # ------------------------------------------------------------ transactions
    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.is_active

    @property
    def current_transaction(self) -> Transaction | None:
        """The transaction statements run in right now.

        For explicit transactions this is the BEGUN transaction; during an
        autocommit statement it is the implicit per-statement transaction
        (capture hooks rely on this).
        """
        if self.in_transaction:
            return self._txn
        if self._stmt_txn is not None and self._stmt_txn.is_active:
            return self._stmt_txn
        return None

    def begin(self) -> Transaction:
        if self.in_transaction:
            raise TransactionError("session already has an active transaction")
        self._txn = self.database.begin()
        return self._txn

    def commit(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no active transaction to commit")
        assert self._txn is not None
        self.database.commit(self._txn)
        self._txn = None

    def rollback(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no active transaction to roll back")
        assert self._txn is not None
        self.database.abort(self._txn)
        self._txn = None

    # -------------------------------------------------------------- statements
    def execute(self, sql: str) -> Result:
        """Parse and execute one client statement."""
        statement = parse(sql)
        return self.execute_statement(statement, sql_text=sql)

    def execute_statement(
        self, statement: ast.Statement, sql_text: str | None = None
    ) -> Result:
        """Execute a pre-parsed statement as a client statement.

        Charges the per-statement overhead, fires capture hooks for DML,
        and manages autocommit scoping.
        """
        if isinstance(statement, ast.BeginStmt):
            self.begin()
            return sql_executor.Result(plan="begin")
        if isinstance(statement, ast.CommitStmt):
            self.commit()
            return sql_executor.Result(plan="commit")
        if isinstance(statement, ast.RollbackStmt):
            self.rollback()
            return sql_executor.Result(plan="rollback")

        self.database.clock.advance(self.database.costs.stmt_overhead)
        self.statements_executed += 1

        autocommit = not self.in_transaction
        txn = self._txn if self._txn is not None and self._txn.is_active else None
        if txn is None:
            txn = self.database.begin()
            if not autocommit:  # pragma: no cover - defensive
                self._txn = txn

        self._stmt_txn = txn
        try:
            if ast.is_dml(statement) and self.capture_hooks:
                text = sql_text if sql_text is not None else statement.to_sql()
                for hook in self.capture_hooks:
                    hook(statement, text, self)
            result = self._executor.execute(statement, txn)
        except Exception:
            if autocommit:
                self.database.abort(txn)
            else:
                self.rollback()
            raise
        finally:
            self._stmt_txn = None
        if autocommit:
            self.database.commit(txn)
        return result

    # ------------------------------------------------------------ conveniences
    def query(self, sql: str) -> list[tuple[Any, ...]]:
        """Execute a SELECT and return its rows."""
        result = self.execute(sql)
        if result.columns or result.rows:
            return result.rows
        raise SqlError(f"statement returned no result set: {sql!r}")

    def scalar(self, sql: str) -> Any:
        """Execute a SELECT returning a single value."""
        return self.execute(sql).scalar()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Session(database={self.database.name!r}, in_txn={self.in_transaction})"
