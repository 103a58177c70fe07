"""Property test: the commutativity analyzer is dynamically sound.

A seeded generator builds a pool of random DML statements over one table;
every unordered pair (210 of them) is classified by the analyzer, and for
each pair the analyzer calls *commuting*, both application orders are
executed against identical databases.  Soundness means the final states
(and any per-statement error outcomes) are identical either way.

The converse is deliberately not asserted — the analyzer is conservative,
so a ``False`` answer for a pair that happens to commute is acceptable.
"""

import itertools
import random

from repro.analysis import OpDeltaAnalyzer, commutes
from repro.engine import Database
from repro.errors import ReproError
from repro.sql.parser import parse

SEED = 0xD317A
ROW_COUNT = 12
KEYS = {"t": "id"}
COLUMNS = {"t": ("id", "a", "b", "c")}


def build_statement_pool(rng):
    """~21 random DML statements over t(id, a, b, c)."""
    pool = []

    def span():
        low = rng.randrange(0, ROW_COUNT)
        high = low + rng.randrange(1, 4)
        return low, high

    for _ in range(7):  # ranged literal updates
        low, high = span()
        column = rng.choice(("a", "b"))
        pool.append(
            f"UPDATE t SET {column} = {rng.randrange(0, 100)} "
            f"WHERE id >= {low} AND id < {high}"
        )
    for _ in range(4):  # whole-table accumulators
        column = rng.choice(("a", "b"))
        op = rng.choice(("+", "*"))
        pool.append(f"UPDATE t SET {column} = {column} {op} {rng.randrange(2, 9)}")
    for _ in range(3):  # ranged deletes
        low, high = span()
        pool.append(f"DELETE FROM t WHERE id >= {low} AND id < {high}")
    for i in range(4):  # fresh-key inserts (keys above the populated range)
        key = 100 + i * 10 + rng.randrange(0, 10)
        pool.append(
            f"INSERT INTO t (id, a, b, c) VALUES "
            f"({key}, {rng.randrange(0, 100)}, {rng.randrange(0, 100)}, 'new')"
        )
    for _ in range(2):  # predicate over a non-key column
        pool.append(
            f"UPDATE t SET c = 'x{rng.randrange(0, 9)}' "
            f"WHERE a < {rng.randrange(20, 80)}"
        )
    pool.append("UPDATE t SET a = NOW() WHERE id = 0")  # never commutes
    return pool


def fresh_database():
    session = Database("prop-analysis").internal_session()
    session.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, "
        "c CHAR(8))"
    )
    for i in range(ROW_COUNT):
        session.execute(
            f"INSERT INTO t (id, a, b, c) VALUES "
            f"({i}, {i * 7 % 50}, {i * 13 % 60}, 'r{i}')"
        )
    return session


def run_order(first, second):
    """Final state and error outcomes of applying the pair in one order."""
    session = fresh_database()
    outcomes = []
    for sql in (first, second):
        try:
            session.execute(sql)
            outcomes.append("ok")
        except ReproError as exc:
            outcomes.append(type(exc).__name__)
    state = sorted(session.execute("SELECT id, a, b, c FROM t").rows)
    return state, sorted(outcomes)


def test_commuting_pairs_reach_identical_states():
    rng = random.Random(SEED)
    pool = build_statement_pool(rng)
    analyzer = OpDeltaAnalyzer(key_columns=KEYS, table_columns=COLUMNS)
    records = {sql: analyzer.analyze_statement(parse(sql)) for sql in pool}

    pairs = list(itertools.combinations(pool, 2))
    assert len(pairs) >= 200, "pool too small for a meaningful property test"

    commuting = 0
    for sql_a, sql_b in pairs:
        if not commutes(records[sql_a].footprint, records[sql_b].footprint, KEYS):
            continue
        commuting += 1
        state_ab, outcomes_ab = run_order(sql_a, sql_b)
        state_ba, outcomes_ba = run_order(sql_b, sql_a)
        assert outcomes_ab == outcomes_ba, (sql_a, sql_b)
        assert state_ab == state_ba, (
            f"analyzer declared these commuting but order matters:\n"
            f"  A: {sql_a}\n  B: {sql_b}"
        )
    # The property must not hold vacuously.
    assert commuting >= 20, f"only {commuting} commuting pairs in the pool"


def test_time_dependent_statement_commutes_with_nothing():
    rng = random.Random(SEED)
    pool = build_statement_pool(rng)
    analyzer = OpDeltaAnalyzer(key_columns=KEYS, table_columns=COLUMNS)
    now_stmt = analyzer.analyze_statement(parse(pool[-1]))
    assert "NOW()" in pool[-1]
    for sql in pool[:-1]:
        other = analyzer.analyze_statement(parse(sql))
        assert not commutes(now_stmt.footprint, other.footprint, KEYS)
