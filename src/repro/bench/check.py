"""``repro-bench --check``: static semantic validation as a CLI gate.

Two modes:

* **seed mode** (no file arguments) — run the representative statements of
  the bench workloads through the semantic checker against the seed
  catalog (``parts``, ``suppliers``, ``audit_log``), then dump the
  maintenance plans the planner compiles for the seed views.  Any ERROR
  diagnostic on a workload statement is a regression (the workloads are
  known-good), so the run fails.
* **fixture mode** (file arguments) — each file is a ``;``-separated list
  of statements, each optionally annotated with ``-- expect: CODE[, CODE]``
  comment lines.  The checker must produce *exactly* the annotated
  diagnostic codes for each statement: a missed diagnostic and a spurious
  one are both failures.  This is how CI pins the diagnostic catalogue.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence, TextIO

from ..core.selfmaint import ViewDefinition
from ..errors import SqlError
from ..semantics import SchemaCatalog, SemanticChecker, ViewMaintenancePlanner
from ..warehouse.aggregates import AggregateSpec, AggregateViewDefinition
from ..workloads.records import parts_schema, suppliers_schema
from .experiments.analysis import audit_log_schema

#: Statement shapes the bench workloads issue — the zero-false-positive set.
SEED_STATEMENTS = (
    "INSERT INTO parts (part_id, part_ref, part_no, description, status, "
    "quantity, price, last_modified, supplier_id) VALUES (1000001, 999, "
    "'PN-000999', 'seed part', 'active', 5, 12.5, NULL, 3)",
    "UPDATE parts SET status = 'revised' "
    "WHERE part_ref >= 0 AND part_ref < 100",
    "UPDATE parts SET quantity = quantity + 7 "
    "WHERE part_ref >= 0 AND part_ref < 100",
    "UPDATE parts SET price = price * 1.1 "
    "WHERE part_ref >= 50 AND part_ref < 60",
    "DELETE FROM parts WHERE part_ref >= 100 AND part_ref < 200",
    "INSERT INTO audit_log (event_id, part_id, note) "
    "VALUES (1, 2, 'batch update')",
    "UPDATE suppliers SET region = 'EMEA' WHERE supplier_id = 7",
    "SELECT part_id, status FROM parts WHERE quantity > 10",
)

SEED_VIEWS = (
    ViewDefinition(
        name="active_parts",
        base_table="parts",
        columns=("part_id", "part_no", "status", "quantity", "price"),
        predicate="status = 'active'",
        key_column="part_id",
    ),
)

SEED_AGGREGATE_VIEWS = (
    AggregateViewDefinition(
        "qty_by_supplier",
        "parts",
        group_by=("supplier_id",),
        aggregates=(AggregateSpec("COUNT"), AggregateSpec("SUM", "quantity")),
    ),
)


def seed_catalog() -> SchemaCatalog:
    """The schemas every bench workload runs against."""
    return SchemaCatalog(
        [parts_schema(), suppliers_schema(), audit_log_schema()]
    )


def run_check(paths: Sequence[str], out: TextIO = sys.stdout) -> int:
    """Entry point for ``repro-bench --check``; returns the exit code."""
    catalog = seed_catalog()
    checker = SemanticChecker(catalog)
    if paths:
        failures = 0
        for path in paths:
            failures += _check_fixture(path, checker, out)
        if failures:
            print(f"semantics-check: {failures} statement(s) FAILED", file=out)
            return 1
        print("semantics-check: all fixture statements match", file=out)
        return 0
    return _check_seed(checker, catalog, out)


# ------------------------------------------------------------------ seed mode
def _check_seed(
    checker: SemanticChecker, catalog: SchemaCatalog, out: TextIO
) -> int:
    errors = 0
    print("== seed workload statements ==", file=out)
    for sql in SEED_STATEMENTS:
        result = checker.check_sql(sql)
        status = "ok" if result.ok else "FAIL"
        print(f"[{status}] {sql}", file=out)
        for diagnostic in result.diagnostics:
            print(f"    {diagnostic.render()}", file=out)
        if not result.ok:
            errors += 1
    print(file=out)
    print("== maintenance plans ==", file=out)
    plans = ViewMaintenancePlanner(catalog).plan_catalog(
        SEED_VIEWS, SEED_AGGREGATE_VIEWS
    )
    for name, plan in plans.items():
        print(f"{name} [{plan.view_kind}] -> {plan.classification.value}", file=out)
        for rule in plan.rules:
            image = "before-image" if rule.needs_before_image else "op-only"
            print(
                f"    {rule.kind.value:<6} {rule.action.value:<15} [{image}]  "
                f"{rule.reason}",
                file=out,
            )
        for diagnostic in plan.diagnostics:
            print(f"    {diagnostic.render()}", file=out)
        if not plan.valid:
            errors += 1
    if errors:
        print(f"semantics-check: {errors} FAILURE(S)", file=out)
        return 1
    print("semantics-check: seed workloads are clean", file=out)
    return 0


# --------------------------------------------------------------- fixture mode
def _check_fixture(path: str, checker: SemanticChecker, out: TextIO) -> int:
    """Check one annotated fixture file; returns the failure count."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"semantics-check: cannot read {path}: {exc.strerror}", file=out)
        return 1
    failures = 0
    for sql, expected in parse_fixture(text):
        try:
            result = checker.check_sql(sql)
        except SqlError as exc:
            print(f"[FAIL] {sql}", file=out)
            print(f"    statement does not parse: {exc}", file=out)
            failures += 1
            continue
        actual = sorted(d.code for d in result.diagnostics)
        if actual == sorted(expected):
            print(f"[ok]   {sql}", file=out)
            continue
        failures += 1
        print(f"[FAIL] {sql}", file=out)
        print(f"    expected: {', '.join(sorted(expected)) or '(none)'}", file=out)
        print(f"    actual:   {', '.join(actual) or '(none)'}", file=out)
        for diagnostic in result.diagnostics:
            print(f"    {diagnostic.render()}", file=out)
    return failures


def parse_fixture(text: str) -> list[tuple[str, tuple[str, ...]]]:
    """Split an annotated fixture into (sql, expected-codes) pairs.

    Statements are separated by ``;``.  ``-- expect:`` comment lines inside
    a statement's chunk list the diagnostic codes the checker must produce
    for it (one annotation may list several, comma-separated); chunks with
    no annotation must check clean.
    """
    cases: list[tuple[str, tuple[str, ...]]] = []
    pending: list[str] = []
    buffer: list[str] = []

    def flush() -> None:
        sql = " ".join(" ".join(buffer).split())
        buffer.clear()
        if sql:
            cases.append((sql, tuple(pending)))
            pending.clear()

    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("--"):
            comment = stripped[2:].strip()
            if comment.lower().startswith("expect:"):
                codes = comment.split(":", 1)[1]
                pending.extend(
                    code.strip() for code in codes.split(",") if code.strip()
                )
            continue  # comments never contribute SQL text
        while ";" in line:
            fragment, line = line.split(";", 1)
            buffer.append(fragment)
            flush()
        buffer.append(line)
    flush()
    return cases


__all__ = ["run_check", "parse_fixture", "seed_catalog"]
