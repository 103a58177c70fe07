"""The schema-aware semantic checker (repro.semantics.checker)."""

import re
from pathlib import Path

import pytest

import repro.engine  # noqa: F401  (resolves the engine<->sql import cycle)
from repro.engine import Database
from repro.errors import SemanticError
from repro.semantics import (
    AMBIGUOUS_COLUMN,
    ARITY_MISMATCH,
    CONSTANT_FAILURE,
    IMPLICIT_COERCION,
    NON_BOOLEAN_PREDICATE,
    NOT_NULL_VIOLATION,
    TYPE_MISMATCH,
    UNKNOWN_COLUMN,
    UNKNOWN_TABLE,
    SchemaCatalog,
    SemanticChecker,
    Severity,
)
from repro.semantics import diagnostics
from repro.sql import ast_nodes as ast
from repro.workloads import parts_schema
from repro.workloads.records import suppliers_schema

CATALOG = SchemaCatalog([parts_schema(), suppliers_schema()])
CHECKER = SemanticChecker(CATALOG)


def codes(sql):
    return sorted(d.code for d in CHECKER.check_sql(sql).diagnostics)


class TestCatalog:
    def test_contains_and_names(self):
        assert "parts" in CATALOG
        assert "nope" not in CATALOG
        assert set(CATALOG.table_names) == {"parts", "suppliers"}

    def test_from_database(self):
        db = Database("cat-src")
        db.create_table(parts_schema())
        catalog = SchemaCatalog.from_database(db)
        assert "parts" in catalog
        assert catalog.schema("parts").has_column("part_ref")


class TestCleanStatements:
    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE parts SET status = 'revised' WHERE part_ref >= 0 AND part_ref < 10",
            "UPDATE parts SET quantity = quantity + 7 WHERE part_id = 1",
            "DELETE FROM parts WHERE part_ref >= 100 AND part_ref < 200",
            "SELECT part_id, status FROM parts WHERE quantity > 10",
            "SELECT supplier_id, COUNT(*) FROM parts GROUP BY supplier_id",
            "UPDATE parts SET last_modified = NOW() WHERE part_id = 3",
            "DELETE FROM parts WHERE last_modified < NOW()",
            "BEGIN",
        ],
    )
    def test_no_diagnostics(self, sql):
        result = CHECKER.check_sql(sql)
        assert result.ok
        assert result.diagnostics == ()

    def test_full_insert_is_clean(self):
        sql = (
            "INSERT INTO parts (part_id, part_ref, part_no, description, "
            "status, quantity, price, last_modified, supplier_id) VALUES "
            "(1000001, 999, 'PN-000999', 'seed', 'active', 5, 12.5, NULL, 3)"
        )
        assert codes(sql) == []


class TestNameResolution:
    def test_unknown_table_has_position(self):
        result = CHECKER.check_sql("DELETE FROM partz WHERE part_ref = 1")
        (diag,) = result.diagnostics
        assert diag.code == UNKNOWN_TABLE
        assert diag.severity is Severity.ERROR
        assert diag.position == len("DELETE FROM ")

    def test_unknown_table_suppresses_column_errors(self):
        # No SEM002 cascade behind the unknown table.
        assert codes("UPDATE partz SET whatever = 1 WHERE nothing = 2") == [
            UNKNOWN_TABLE
        ]

    def test_unknown_table_silences_only_the_names_it_could_own(self):
        # A reference qualified by the known table is still checked; one
        # qualified by the unknown table's alias, or unqualified, is quiet.
        sql = (
            "SELECT p.no_such, s.anything, whatever FROM parts p "
            "JOIN supplierz s ON p.supplier_id = s.x WHERE p.status > 5"
        )
        result = CHECKER.check_sql(sql)
        assert [d.code for d in result.diagnostics] == [
            UNKNOWN_TABLE, UNKNOWN_COLUMN, TYPE_MISMATCH
        ]
        assert result.diagnostics[1].position == sql.index("p.no_such")
        assert codes(
            "SELECT partz.x FROM partz JOIN suppliers "
            "ON partz.k = suppliers.nope"
        ) == [UNKNOWN_TABLE, UNKNOWN_COLUMN]

    def test_unknown_column_in_assignment(self):
        result = CHECKER.check_sql("UPDATE parts SET quantty = 0")
        (diag,) = result.diagnostics
        assert diag.code == UNKNOWN_COLUMN
        assert "quantty" in diag.message
        assert diag.position == len("UPDATE parts SET ")

    def test_unknown_column_does_not_cascade(self):
        # The UNKNOWN type unifies with everything: one name, one error.
        assert codes("UPDATE parts SET quantity = quantty + 1") == [
            UNKNOWN_COLUMN
        ]

    def test_unknown_column_in_where_and_select(self):
        assert codes("DELETE FROM parts WHERE part_refx > 1") == [UNKNOWN_COLUMN]
        assert codes("SELECT nope FROM parts") == [UNKNOWN_COLUMN]

    def test_ambiguous_column_across_join(self):
        assert codes(
            "SELECT supplier_id FROM parts JOIN suppliers "
            "ON parts.supplier_id = suppliers.supplier_id"
        ) == [AMBIGUOUS_COLUMN]

    def test_qualified_reference_disambiguates(self):
        assert codes(
            "SELECT parts.supplier_id FROM parts JOIN suppliers "
            "ON parts.supplier_id = suppliers.supplier_id"
        ) == []


class TestTypeChecking:
    def test_string_into_integer_column(self):
        assert codes("UPDATE parts SET quantity = 'lots'") == [TYPE_MISMATCH]

    def test_float_literal_into_integer_column(self):
        # The engine's IntegerType.validate rejects floats; the checker
        # reports it statically via the folded literal.
        assert codes("UPDATE parts SET quantity = 2.5") == [TYPE_MISMATCH]

    def test_char_overflow_diagnosed(self):
        # status is CHAR(10); the literal exceeds the width.
        assert codes(
            "UPDATE parts SET status = 'far far too long for ten'"
        ) == [TYPE_MISMATCH]

    def test_string_number_comparison(self):
        assert codes("DELETE FROM parts WHERE status > 5") == [TYPE_MISMATCH]

    def test_arity_mismatch(self):
        assert codes("UPDATE parts SET price = ABS(1, 2)") == [ARITY_MISMATCH]
        assert codes("UPDATE parts SET last_modified = NOW(1)") == [
            ARITY_MISMATCH
        ]

    def test_insert_width_mismatch(self):
        assert ARITY_MISMATCH in codes(
            "INSERT INTO suppliers (supplier_id, supplier_name, region) "
            "VALUES (1, 'Initech')"
        )

    def test_duplicate_assignment_flagged(self):
        assert ARITY_MISMATCH in codes(
            "UPDATE parts SET status = 'a', status = 'b'"
        )

    def test_function_result_types_enforced(self):
        assert codes("UPDATE parts SET quantity = LENGTH(part_no)") == []
        assert codes("UPDATE parts SET quantity = UPPER(status)") == [
            TYPE_MISMATCH
        ]
        assert codes("DELETE FROM parts WHERE LENGTH(part_id) > 2") == [
            TYPE_MISMATCH
        ]


class TestCoercionWarnings:
    def test_timestamp_into_float_warns_but_passes(self):
        result = CHECKER.check_sql("UPDATE parts SET price = NOW()")
        assert result.ok  # warnings do not reject
        (diag,) = result.diagnostics
        assert diag.code == IMPLICIT_COERCION
        assert diag.severity is Severity.WARNING

    def test_numeric_into_timestamp_is_silent(self):
        # Virtual time is a float; numbers into TIMESTAMP are idiomatic.
        assert codes("UPDATE parts SET last_modified = 123.5") == []


class TestNotNull:
    def test_omitted_not_null_columns(self):
        result = CHECKER.check_sql(
            "INSERT INTO parts (part_id, part_ref, part_no, status, "
            "quantity, price) VALUES (1, 1, 'PN-1', 'active', 2, 3.0)"
        )
        assert [d.code for d in result.diagnostics] == [NOT_NULL_VIOLATION]
        assert "supplier_id" in result.diagnostics[0].message

    def test_explicit_null_into_not_null_column(self):
        assert NOT_NULL_VIOLATION in codes(
            "INSERT INTO suppliers (supplier_id, supplier_name, region) "
            "VALUES (1, NULL, 'EMEA')"
        )

    def test_null_into_nullable_column_ok(self):
        assert codes("UPDATE parts SET last_modified = NULL") == []


class TestPredicatesAndFolding:
    def test_non_boolean_predicate(self):
        assert codes("DELETE FROM parts WHERE part_id + 1") == [
            NON_BOOLEAN_PREDICATE
        ]

    def test_constant_division_by_zero(self):
        produced = codes("UPDATE parts SET quantity = 1 / 0")
        assert CONSTANT_FAILURE in produced

    def test_constant_folding_rewrites_statement(self):
        result = CHECKER.check_sql("UPDATE parts SET quantity = 2 + 3 * 4")
        assert result.ok
        (assignment,) = result.statement.assignments
        assert isinstance(assignment.expr, ast.Literal)
        assert assignment.expr.value == 14

    def test_folding_preserves_position(self):
        result = CHECKER.check_sql("UPDATE parts SET quantity = 2 + 3")
        (assignment,) = result.statement.assignments
        assert assignment.expr.pos is not None

    def test_volatile_functions_never_fold(self):
        result = CHECKER.check_sql("UPDATE parts SET last_modified = NOW()")
        (assignment,) = result.statement.assignments
        assert isinstance(assignment.expr, ast.FuncCall)

    def test_boolean_context_not_folded(self):
        # Predicates stay structural for the rewrite/footprint layers.
        result = CHECKER.check_sql("DELETE FROM parts WHERE 1 < 2")
        assert isinstance(result.statement.where, ast.BinaryOp)


class TestCheckResult:
    def test_raise_if_errors_carries_diagnostics(self):
        result = CHECKER.check_sql("UPDATE parts SET quantty = 0")
        with pytest.raises(SemanticError) as excinfo:
            result.raise_if_errors("UPDATE parts SET quantty = 0")
        assert excinfo.value.diagnostics[0].code == UNKNOWN_COLUMN

    def test_errors_and_warnings_split(self):
        result = CHECKER.check_sql(
            "UPDATE parts SET price = NOW(), quantity = 'lots'"
        )
        assert not result.ok
        assert {d.code for d in result.errors} == {TYPE_MISMATCH}
        warnings = {d.code for d in result.diagnostics if d.severity is Severity.WARNING}
        assert warnings == {IMPLICIT_COERCION}

    def test_diagnostic_render_and_dict(self):
        (diag,) = CHECKER.check_sql("DELETE FROM partz").diagnostics
        assert diag.render().startswith("SEM001 at 12: error:")
        assert diag.to_dict()["position"] == 12


class TestSeverityIsTheCodes:
    def test_catalogue_severities_are_the_declared_ones(self):
        # docs/semantic-analysis.md's catalogue table: | `SEMnnn` | severity |
        catalogue = (
            Path(__file__).resolve().parents[1] / "docs" / "semantic-analysis.md"
        ).read_text()
        rows = re.findall(r"^\| `(SEM\d{3})` \| (\w+) \|", catalogue, re.M)
        assert [code for code, _ in rows] == [f"SEM00{n}" for n in range(1, 10)]
        assert {code for code, severity in rows if severity == "warning"} == (
            diagnostics.WARNINGS
        )
        assert {severity for _, severity in rows} == {"warning", "error"}

    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE parts SET price = NOW(), quantity = 'lots'",
            "INSERT INTO parts (part_id) VALUES (1.5)",
            "UPDATE parts SET quantity = 1 / 0, price = ABS(1, 2)",
            "DELETE FROM parts WHERE part_id + 1",
        ],
    )
    def test_every_finding_has_its_codes_severity(self, sql):
        found = CHECKER.check_sql(sql).diagnostics
        assert found
        for diag in found:
            warning = diag.code in diagnostics.WARNINGS
            assert diag.severity is (Severity.WARNING if warning else Severity.ERROR)
