"""OLTP transaction workloads with controlled transaction sizes.

The paper's §3/§4 experiments vary "the size of transaction (number of
affected records)" from 10 to 10,000 against a 100,000-row PARTS table,
measuring per-transaction response time.  :class:`OltpWorkload` reproduces
that shape:

* ``run_insert(n)`` — one transaction inserting *n* fresh rows (a single
  array-insert statement, the way an application loads a batch);
* ``run_update(n)`` / ``run_delete(n)`` — one transaction whose predicate
  selects exactly *n* rows **via the unindexed** ``part_ref`` column, so
  the statement performs the table scan the paper describes;
* the table is topped back up after deletes (untimed) so "the size of the
  source table remains constant".

The workload tracks the live id range itself: deletes always remove the
oldest ``n`` ids and refills append fresh ids at the tail, so every
predicate range is dense by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.database import Database
from ..engine.table import InsertMode
from ..errors import ReproError
from ..sql import ast_nodes as ast
from .records import PartsGenerator, parts_schema

#: The paper's transaction sizes (Figures 2-3, Table 4).
PAPER_TXN_SIZES = (10, 100, 1_000, 10_000)

#: The paper's source-table size for those experiments.
PAPER_TABLE_ROWS = 100_000


@dataclass
class TxnResult:
    """One measured transaction."""

    kind: str
    size: int
    rows_affected: int
    response_ms: float


class OltpWorkload:
    """Drives sized transactions against a PARTS table."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.session = database.internal_session()
        self.generator = PartsGenerator(seed=42)
        self._next_id = 0   # next fresh id to hand out
        self._min_live = 0  # oldest live id (deletes consume from here)
        self._steady_rows: int | None = None

    # ------------------------------------------------------------------- setup
    def create_table(self, auto_timestamp: bool = True) -> None:
        self.database.create_table(
            parts_schema(), auto_timestamp=auto_timestamp
        )

    def populate(self, rows: int) -> None:
        """Fill the table (untimed path: direct bulk inserts, no statements)."""
        table = self.database.table("parts")
        txn = self.database.begin()
        for row in self.generator.rows(rows, start_id=self._next_id):
            table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
        self.database.commit(txn)
        self._next_id += rows
        if self._steady_rows is None:
            self._steady_rows = table.num_rows

    def top_up(self) -> int:
        """Restore the table to its steady-state size after deletes."""
        if self._steady_rows is None:
            return 0
        missing = self._steady_rows - self.database.table("parts").num_rows
        if missing > 0:
            self.populate(missing)
        return max(0, missing)

    @property
    def live_rows(self) -> int:
        return self.database.table("parts").num_rows

    # -------------------------------------------------------------- transactions
    def run_insert(self, size: int) -> TxnResult:
        """One transaction: a single ``size``-row array INSERT statement."""
        rows = [self.generator.row(self._next_id + i) for i in range(size)]
        self._next_id += size
        statement = ast.InsertStmt(
            "parts",
            None,
            rows=tuple(
                tuple(ast.Literal(value) for value in row) for row in rows
            ),
        )
        clock = self.database.clock
        with clock.stopwatch() as watch:
            self.session.execute_statement(statement)
        return TxnResult("insert", size, size, watch.elapsed)

    def run_update(self, size: int, assignment: str = "status = 'revised'") -> TxnResult:
        """One UPDATE transaction touching exactly ``size`` rows via a scan."""
        low, high = self._live_prefix(size)
        sql = (
            f"UPDATE parts SET {assignment} "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        clock = self.database.clock
        with clock.stopwatch() as watch:
            result = self.session.execute(sql)
        self._check_touched(result.rows_affected, size, "update")
        return TxnResult("update", size, result.rows_affected, watch.elapsed)

    def run_delete(self, size: int, top_up: bool = True) -> TxnResult:
        """One DELETE transaction removing exactly ``size`` rows via a scan."""
        low, high = self._live_prefix(size)
        sql = (
            "DELETE FROM parts "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        clock = self.database.clock
        with clock.stopwatch() as watch:
            result = self.session.execute(sql)
        self._check_touched(result.rows_affected, size, "delete")
        self._min_live = high
        outcome = TxnResult("delete", size, result.rows_affected, watch.elapsed)
        if top_up:
            self.top_up()
        return outcome

    # ----------------------------------------------------------------- plumbing
    def _live_prefix(self, size: int) -> tuple[int, int]:
        if self._next_id - self._min_live < size:
            raise ReproError(
                f"only {self._next_id - self._min_live} live ids; cannot "
                f"touch {size}"
            )
        return self._min_live, self._min_live + size

    @staticmethod
    def _check_touched(actual: int, wanted: int, kind: str) -> None:
        if actual != wanted:
            raise ReproError(
                f"{kind} touched {actual} rows, wanted {wanted} (table state "
                "diverged from the workload's bookkeeping)"
            )
