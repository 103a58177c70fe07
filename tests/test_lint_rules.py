"""The project-specific AST lint (tools/lint_rules.py)."""

import ast
import pickle
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import lint_rules  # noqa: E402

from repro.sql import ast_nodes  # noqa: E402


def lint_source(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_rules.lint_file(path)


class TestRepro001WallClock:
    def test_time_time_flagged(self, tmp_path):
        violations = lint_source(tmp_path, "import time\nx = time.time()\n")
        assert len(violations) == 1
        assert "REPRO001" in violations[0]
        assert "time.time" in violations[0]

    def test_datetime_now_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path, "import datetime\nx = datetime.datetime.now()\n"
        )
        assert any("REPRO001" in v for v in violations)

    def test_module_level_random_flagged(self, tmp_path):
        violations = lint_source(tmp_path, "import random\nx = random.randint(1, 6)\n")
        assert any("REPRO001" in v for v in violations)

    def test_wall_clock_formatting_calls_flagged(self, tmp_path):
        for call in ("time.localtime()", "time.ctime()", "time.strftime('%F')"):
            violations = lint_source(tmp_path, f"import time\nx = {call}\n")
            assert any("REPRO001" in v for v in violations), call

    def test_seeded_random_instance_allowed(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "import random\nrng = random.Random(42)\nx = rng.randint(1, 6)\n",
        )
        assert violations == []

    def test_clock_module_is_exempt(self, tmp_path):
        source = "import time\nx = time.time()\n"
        flagged = lint_source(tmp_path, source, name="other.py")
        exempt = lint_source(tmp_path, source, name="repro/clock.py")
        assert flagged and not exempt

    def test_line_numbers_reported(self, tmp_path):
        violations = lint_source(
            tmp_path, "import time\n\n\nx = time.monotonic()\n"
        )
        assert ":4:" in violations[0]


class TestRepro002MetricNames:
    def test_bad_name_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path, "c = registry.counter('too_short')\n"
        )
        assert len(violations) == 1
        assert "REPRO002" in violations[0]

    def test_two_segments_flagged(self, tmp_path):
        violations = lint_source(tmp_path, "g = registry.gauge('a.b')\n")
        assert any("REPRO002" in v for v in violations)

    def test_three_segments_allowed(self, tmp_path):
        assert (
            lint_source(tmp_path, "c = registry.counter('engine.b.c')\n") == []
        )
        assert (
            lint_source(
                tmp_path, "h = m.histogram('engine.page.read_latency')\n"
            )
            == []
        )

    def test_unknown_subsystem_flagged(self, tmp_path):
        violations = lint_source(tmp_path, "c = registry.counter('a.b.c')\n")
        assert len(violations) == 1
        assert "REPRO002" in violations[0]
        assert "unknown subsystem" in violations[0]

    def test_obs_names_must_be_obs_pipeline(self, tmp_path):
        violations = lint_source(
            tmp_path, "c = registry.counter('obs.log.dropped')\n"
        )
        assert len(violations) == 1
        assert "REPRO002" in violations[0]
        assert "obs.pipeline" in violations[0]
        assert (
            lint_source(
                tmp_path,
                "c = registry.counter('obs.pipeline.events.captured')\n",
            )
            == []
        )

    def test_uppercase_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path, "c = registry.counter('Engine.Page.Read')\n"
        )
        assert any("REPRO002" in v for v in violations)

    def test_bare_function_named_counter_ignored(self, tmp_path):
        # A local helper called counter() is not a registry method.
        assert lint_source(tmp_path, "x = counter('whatever')\n") == []

    def test_dynamic_names_not_flagged(self, tmp_path):
        # Only literal first arguments can be checked statically.
        assert lint_source(tmp_path, "c = registry.counter(name)\n") == []

    def test_syntax_error_reported_not_crashed(self, tmp_path):
        violations = lint_source(tmp_path, "def broken(:\n")
        assert len(violations) == 1
        assert "REPRO000" in violations[0]


class TestRepro003SwallowedExceptions:
    def test_bare_except_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path, "try:\n    x = 1\nexcept:\n    x = 2\n"
        )
        assert len(violations) == 1
        assert "REPRO003" in violations[0]
        assert "bare" in violations[0]

    def test_except_exception_pass_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path, "try:\n    x = 1\nexcept Exception:\n    pass\n"
        )
        assert len(violations) == 1
        assert "REPRO003" in violations[0]

    def test_except_base_exception_ellipsis_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path, "try:\n    x = 1\nexcept BaseException:\n    ...\n"
        )
        assert any("REPRO003" in v for v in violations)

    def test_handled_broad_except_allowed(self, tmp_path):
        # A broad handler that actually does something is acceptable.
        violations = lint_source(
            tmp_path,
            "try:\n    x = 1\nexcept Exception as exc:\n"
            "    raise RuntimeError('wrapped') from exc\n",
        )
        assert violations == []

    def test_narrow_noop_handler_allowed(self, tmp_path):
        # Deliberately ignoring a narrow, expected error is fine.
        violations = lint_source(
            tmp_path, "try:\n    x = 1\nexcept KeyError:\n    pass\n"
        )
        assert violations == []

    def test_qualified_exception_name_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "import builtins\ntry:\n    x = 1\n"
            "except builtins.Exception:\n    pass\n",
        )
        assert any("REPRO003" in v for v in violations)

    def test_line_numbers_reported(self, tmp_path):
        violations = lint_source(
            tmp_path, "try:\n    x = 1\nexcept Exception:\n    pass\n"
        )
        assert ":3:" in violations[0]


class TestRepro004ParseCacheBypass:
    def test_direct_parse_of_statement_text_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.sql.parser import parse\n"
            "def rebuild(op):\n"
            "    return parse(op.statement_text)\n",
        )
        assert len(violations) == 1
        assert "REPRO004" in violations[0]

    def test_method_style_parse_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def rebuild(parser, op):\n"
            "    return parser.parse(op.statement_text)\n",
        )
        assert len(violations) == 1
        assert "REPRO004" in violations[0]

    def test_keyword_argument_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def rebuild(op):\n"
            "    return parse(sql=op.statement_text)\n",
        )
        assert len(violations) == 1
        assert "REPRO004" in violations[0]

    def test_parse_of_other_values_allowed(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def rebuild(text):\n"
            "    return parse(text)\n",
        )
        assert violations == []

    def test_statement_text_outside_parse_allowed(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def size(op):\n"
            "    return len(op.statement_text)\n",
        )
        assert violations == []

    def test_opdelta_module_is_exempt(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def statement(self):\n"
            "    return parse(self.statement_text)\n",
            name="repro/core/opdelta.py",
        )
        assert violations == []


class TestRepro005FlightTimeDiscipline:
    FLIGHT = "repro/obs/flight/series.py"

    def test_clock_construction_flagged_in_flight_module(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.clock import VirtualClock\n"
            "clock = VirtualClock()\n",
            name=self.FLIGHT,
        )
        assert len(violations) == 1
        assert "REPRO005" in violations[0]
        assert "VirtualClock" in violations[0]

    def test_ambient_context_flagged_in_flight_module(self, tmp_path):
        for call in (
            "ambient_metrics()",
            "ambient_tracer()",
            "ambient_pipeline()",
        ):
            violations = lint_source(
                tmp_path,
                f"from repro.obs.context import {call[:-2]}\nx = {call}\n",
                name=self.FLIGHT,
            )
            assert any("REPRO005" in v for v in violations), call

    def test_qualified_ambient_call_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.obs import context\nx = context.ambient_tracer()\n",
            name=self.FLIGHT,
        )
        assert any("REPRO005" in v for v in violations)

    def test_same_calls_allowed_outside_flight(self, tmp_path):
        source = (
            "from repro.clock import VirtualClock\n"
            "clock = VirtualClock()\n"
        )
        assert lint_source(tmp_path, source, name="repro/bench/runner.py") == []

    def test_timestamp_arguments_allowed_in_flight(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def on_window_shipped(self, recorder, at_ms):\n"
            "    self.store.record('x', at_ms, 1.0)\n",
            name=self.FLIGHT,
        )
        assert violations == []

    def test_shipped_flight_package_is_clean(self):
        flight_dir = REPO / "src" / "repro" / "obs" / "flight"
        violations = []
        for path in sorted(flight_dir.rglob("*.py")):
            violations.extend(lint_rules.lint_file(path))
        assert violations == []

    def test_line_numbers_reported(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.clock import VirtualClock\n\nc = VirtualClock()\n",
            name=self.FLIGHT,
        )
        assert ":3:" in violations[0]


class TestRepro006WarehouseMutations:
    OUTSIDER = "repro/warehouse/scheduler.py"

    def test_direct_insert_flagged_outside_commit_paths(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def seed(self, txn, row):\n"
            "    self.table.insert(txn, row)\n",
            name=self.OUTSIDER,
        )
        assert len(violations) == 1
        assert "REPRO006" in violations[0]
        assert ".insert()" in violations[0]

    def test_all_mutation_methods_flagged(self, tmp_path):
        for call in (
            "table.insert(txn, row)",
            "table.update(txn, row_id, row)",
            "table.delete(txn, row_id)",
            "session.execute_statement(stmt)",
        ):
            violations = lint_source(
                tmp_path, f"def go(table, session, **kw):\n    {call}\n",
                name=self.OUTSIDER,
            )
            assert any("REPRO006" in v for v in violations), call

    def test_commit_paths_are_exempt(self, tmp_path):
        source = "def apply(self, txn, row):\n    self.table.insert(txn, row)\n"
        for name in (
            "repro/warehouse/opdelta_integrator.py",
            "repro/warehouse/value_integrator.py",
            "repro/warehouse/views.py",
            "repro/warehouse/aggregates.py",
        ):
            assert lint_source(tmp_path, source, name=name) == [], name

    def test_bulk_internal_mode_is_exempt(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def load(self, txn, row):\n"
            "    self.table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)\n",
            name=self.OUTSIDER,
        )
        assert violations == []

    def test_other_modes_still_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def load(self, txn, row):\n"
            "    self.table.insert(txn, row, mode=InsertMode.NORMAL)\n",
            name=self.OUTSIDER,
        )
        assert any("REPRO006" in v for v in violations)

    def test_same_calls_allowed_outside_warehouse(self, tmp_path):
        source = "def go(table, txn, row):\n    table.insert(txn, row)\n"
        assert lint_source(tmp_path, source, name="repro/engine/table.py") == []

    def test_bare_function_calls_ignored(self, tmp_path):
        # Only attribute calls mutate a table/session object.
        violations = lint_source(
            tmp_path,
            "def go(items, item):\n    insert(items, item)\n",
            name=self.OUTSIDER,
        )
        assert violations == []

    INTEGRATORS = (
        "repro/warehouse/opdelta_integrator.py",
        "repro/warehouse/value_integrator.py",
    )

    def test_txn_control_outside_the_unit_is_flagged(self, tmp_path):
        for call in ("begin", "commit", "rollback"):
            for name in self.INTEGRATORS:
                violations = lint_source(
                    tmp_path,
                    f"def apply(self):\n    self._session.{call}()\n",
                    name=name,
                )
                assert len(violations) == 1, (call, name)
                assert "REPRO006" in violations[0]
                assert f".{call}()" in violations[0]
                assert "transactional_unit" in violations[0]

    def test_txn_control_inside_the_unit_is_legal(self, tmp_path):
        source = (
            "def transactional_unit(session, what):\n"
            "    session.begin()\n"
            "    try:\n"
            "        yield session.current_transaction\n"
            "    except Exception:\n"
            "        session.rollback()\n"
            "        raise\n"
            "    session.commit()\n"
        )
        for name in self.INTEGRATORS:
            assert lint_source(tmp_path, source, name=name) == [], name

    def test_txn_control_elsewhere_in_warehouse_is_legal(self, tmp_path):
        # warehouse.py's bulk loads own their database transaction.
        source = "def load(self):\n    txn = self.database.begin()\n"
        assert lint_source(tmp_path, source, name=self.OUTSIDER) == []

    def test_shipped_integrators_have_one_commit_site(self):
        for name in self.INTEGRATORS:
            tree = ast.parse((REPO / "src" / name).read_text())
            calls = sorted(
                node.func.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in lint_rules.TXN_CONTROL_METHODS
            )
            expected = (
                ["begin", "commit", "rollback"]
                if name.endswith("value_integrator.py")
                else []
            )
            assert calls == expected, name

    def test_shipped_warehouse_package_is_clean(self):
        warehouse_dir = REPO / "src" / "repro" / "warehouse"
        violations = []
        for path in sorted(warehouse_dir.rglob("*.py")):
            violations.extend(lint_rules.lint_file(path))
        assert violations == []

    def test_line_numbers_reported(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def go(table, txn, row):\n\n    table.delete(txn, row)\n",
            name=self.OUTSIDER,
        )
        assert ":3:" in violations[0]


class TestRepro007DeltaRuleProvenance:
    def test_delta_rule_construction_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.semantics.planner import DeltaRule\n"
            "rule = DeltaRule(kind, action)\n",
        )
        assert len(violations) == 1
        assert "REPRO007" in violations[0]
        assert "DeltaRule" in violations[0]

    def test_qualified_construction_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "import repro.semantics.planner as planner\n"
            "rule = planner.DeltaRule(kind, action)\n",
        )
        assert any("REPRO007" in v for v in violations)

    def test_rules_assignment_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path, "def patch(plan, mapping):\n    plan.rules = mapping\n"
        )
        assert any("REPRO007" in v and ".rules" in v for v in violations)

    def test_rules_augmented_assignment_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path, "def patch(plan, extra):\n    plan.rules |= extra\n"
        )
        assert any("REPRO007" in v for v in violations)

    def test_frozen_setattr_backdoor_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def patch(plan, mapping):\n"
            "    object.__setattr__(plan, 'rules', mapping)\n",
        )
        assert any("REPRO007" in v for v in violations)

    def test_planner_module_is_exempt(self, tmp_path):
        source = "rule = DeltaRule(kind, action)\nplan.rules = mapping\n"
        assert (
            lint_source(tmp_path, source, name="repro/semantics/planner.py")
            == []
        )

    def test_verifier_fixtures_are_exempt(self, tmp_path):
        source = "rule = DeltaRule(kind, action)\nplan.rules = mapping\n"
        for name in ("test_analysis_verify.py", "test_verify_regressions.py"):
            assert lint_source(tmp_path, source, name=name) == [], name

    def test_other_assignments_allowed(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def go(plan, obj):\n"
            "    plan.diagnostics = ()\n"
            "    setattr(obj, 'rules_of_thumb', 1)\n"
            "    rules = {}\n",
        )
        assert violations == []

    def test_shipped_semantics_package_is_clean(self):
        package = REPO / "src" / "repro" / "semantics"
        for path in sorted(package.rglob("*.py")):
            assert lint_rules.lint_file(path) == [], path

    def test_line_numbers_reported(self, tmp_path):
        violations = lint_source(
            tmp_path, "\n\nrule = DeltaRule(kind, action)\n"
        )
        assert ":3:" in violations[0]


class TestRepro008HotLoopDiscipline:
    COLUMNAR = "repro/columnar/apply.py"
    INTEGRATOR = "repro/warehouse/opdelta_integrator.py"

    def test_clock_read_in_columnar_loop_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def apply(self, rows, clock):\n"
            "    for row in rows:\n"
            "        stamp = clock.now\n",
            name=self.COLUMNAR,
        )
        assert len(violations) == 1
        assert "REPRO008" in violations[0]
        assert ".now" in violations[0]

    def test_rule_resolution_in_columnar_loop_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def apply(self, ops, plan):\n"
            "    for op in ops:\n"
            "        rule = plan.rule_for(op.kind)\n",
            name=self.COLUMNAR,
        )
        # REPRO024 bans the lookup there outright as well.
        violations = [v for v in violations if "REPRO008" in v]
        assert len(violations) == 1
        assert ".rule_for()" in violations[0]

    def test_classify_and_plan_view_flagged(self, tmp_path):
        for call in (
            "selfmaint.replay_kind(view, op.statement)",
            "planner.plan_view(view)",
        ):
            violations = lint_source(
                tmp_path,
                f"def go(items, analyzer, planner, view):\n"
                f"    for op in items:\n"
                f"        x = {call}\n",
                name=self.COLUMNAR,
            )
            assert any("REPRO008" in v for v in violations), call

    def test_while_loop_test_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def drain(self, clock, deadline):\n"
            "    while clock.now < deadline:\n"
            "        self.step()\n",
            name=self.COLUMNAR,
        )
        assert any("REPRO008" in v for v in violations)

    def test_hoisted_read_allowed(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def apply(self, rows, clock):\n"
            "    now = clock.now\n"
            "    for row in rows:\n"
            "        self.stamp(row, now)\n",
            name=self.COLUMNAR,
        )
        assert violations == []

    def test_memoized_bare_name_lookup_allowed(self, tmp_path):
        # The memoised closure is called by bare name — that IS the memo.
        violations = lint_source(
            tmp_path,
            "def apply(self, ops, rule_for):\n"
            "    for op in ops:\n"
            "        rule = rule_for(op.kind)\n",
            name=self.COLUMNAR,
        )
        assert violations == []

    def test_for_iterable_expression_allowed(self, tmp_path):
        # The iterable of a for loop evaluates once, not per row.
        violations = lint_source(
            tmp_path,
            "def apply(self, plan, op):\n"
            "    for rule in plan.rule_for(op.kind):\n"
            "        self.run(rule)\n",
            name=self.COLUMNAR,
        )
        assert not [v for v in violations if "REPRO008" in v]

    def test_integrator_outer_loop_clock_allowed(self, tmp_path):
        # Per-component timing in the batched integrator is depth 1.
        violations = lint_source(
            tmp_path,
            "def integrate(self, components, clock, report):\n"
            "    for component in components:\n"
            "        started = clock.now\n"
            "        self.run(component)\n"
            "        report.per_component_ms.append(clock.now - started)\n",
            name=self.INTEGRATOR,
        )
        assert violations == []

    def test_integrator_per_row_clock_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def integrate(self, components, clock, recorder):\n"
            "    for component in components:\n"
            "        for op in component.operations:\n"
            "            recorder.record(op, at_ms=clock.now)\n",
            name=self.INTEGRATOR,
        )
        assert any("REPRO008" in v for v in violations)

    def test_integrator_per_row_resolution_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def integrate(self, components, plan):\n"
            "    for component in components:\n"
            "        for op in component.operations:\n"
            "            rule = plan.rule_for(op.kind)\n",
            name=self.INTEGRATOR,
        )
        assert any(
            "REPRO008" in v and ".rule_for()" in v for v in violations
        )

    def test_same_code_allowed_outside_hot_paths(self, tmp_path):
        source = (
            "def go(rows, clock, plan, op):\n"
            "    for row in rows:\n"
            "        x = clock.now\n"
            "        r = plan.rule_for(op.kind)\n"
        )
        assert lint_source(tmp_path, source, name="repro/bench/runner.py") == []

    def test_shipped_columnar_package_is_clean(self):
        package = REPO / "src" / "repro" / "columnar"
        for path in sorted(package.rglob("*.py")):
            assert lint_rules.lint_file(path) == [], path

    def test_line_numbers_reported(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def apply(self, rows, clock):\n"
            "    for row in rows:\n"
            "        stamp = clock.now\n",
            name=self.COLUMNAR,
        )
        assert ":3:" in violations[0]


class TestRepro010OneEvaluator:
    EVALUATOR = "repro/sql/expressions.py"

    def test_evaluate_per_row_flagged(self, tmp_path):
        source = (
            "def matching(rows, where):\n"
            "    out = []\n"
            "    for row in rows:\n"
            "        env = dict(zip(NAMES, row))\n"
            "        if evaluate(where, env):\n"
            "            out.append(row)\n"
            "    return out\n"
        )
        violations = lint_source(tmp_path, source)
        assert len(violations) == 1
        assert "REPRO010" in violations[0] and ":5:" in violations[0]

    def test_compile_per_row_flagged_in_comprehensions_and_while(self, tmp_path):
        source = (
            "def go(rows, stmt, layout):\n"
            "    a = [compile_predicate(stmt.where, layout)(r, 0) for r in rows]\n"
            "    b = (r for r in rows if expressions.evaluate(stmt.where, r))\n"
            "    while rows:\n"
            "        kernels.compile_expression(stmt.where, layout)\n"
        )
        violations = lint_source(tmp_path, source)
        assert [v.split(":")[1] for v in violations] == ["2", "3", "5"]

    def test_row_loop_around_an_expression_loop_flagged(self, tmp_path):
        # The parent's UPDATE loop: per row, evaluate every assignment.
        source = (
            "def go(stmt, images):\n"
            "    for before in images:\n"
            "        env = dict(zip(NAMES, before))\n"
            "        after = dict(env)\n"
            "        for assignment in stmt.assignments:\n"
            "            after[assignment.column] = evaluate(assignment.expr, env)\n"
        )
        violations = lint_source(tmp_path, source)
        assert len(violations) == 1 and ":6:" in violations[0]

    def test_compiling_each_expression_once_allowed(self, tmp_path):
        source = (
            "def go(stmt, rows, bind):\n"
            "    kernels = [compile_expression(a.expr, bind) for a in stmt.assignments]\n"
            "    for join in stmt.joins:\n"
            "        left_key, right_key = sides(join)\n"
            "        probe = compile_expression(left_key, bind)\n"
            "    for expr_row in stmt.rows:\n"
            "        values = tuple(evaluate(expr, {}) for expr in expr_row)\n"
            "    keep = compile_predicate(stmt.where, bind)\n"
            "    return [row for row in rows if keep(row, None)]\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_loop_iterable_is_outside_the_loop(self, tmp_path):
        source = (
            "def go(stmt, columns):\n"
            "    for row in compile_insert_rows(stmt, columns, Error)(None):\n"
            "        use(row)\n"
            "    return [r for r in compile_insert_rows(stmt, columns, Error)(None)]\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_other_objects_evaluate_method_ignored(self, tmp_path):
        source = (
            "def go(engine, windows, objective):\n"
            "    for now in windows:\n"
            "        engine.evaluate(objective)\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_second_definition_of_an_evaluator_error_flagged(self, tmp_path):
        source = (
            "def divide(lv, rv):\n"
            "    if rv == 0:\n"
            "        raise SqlAnalysisError('division by zero')\n"
            "    if not isinstance(lv, str):\n"
            "        raise SqlAnalysisError(f'LIKE requires a string, got {lv!r}')\n"
        )
        violations = lint_source(tmp_path, source)
        assert [v.split(":")[1] for v in violations] == ["3", "5"]
        assert all("REPRO010" in v for v in violations)

    def test_mentioning_an_evaluator_error_is_not_defining_it(self, tmp_path):
        source = (
            "def fold(exc, diags):\n"
            "    if 'division by zero' in str(exc):\n"
            "        diags.append('constant always fails: division by zero')\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_evaluator_module_is_exempt(self, tmp_path):
        source = (
            "def rows(compiled, stmt):\n"
            "    for row in stmt.rows:\n"
            "        compile_expression(stmt.where, None)\n"
            "    raise SqlAnalysisError('division by zero')\n"
        )
        assert lint_source(tmp_path, source, name="other.py")
        assert lint_source(tmp_path, source, name=self.EVALUATOR) == []

    def test_shipped_tree_defines_each_interior_node_once(self):
        # The structural half of "one evaluator": every interior-node
        # diagnostic occurs exactly once under src/repro, in the evaluator,
        # and nothing in the shipped tree compiles inside a row loop.
        package = REPO / "src" / "repro"
        sources = {
            path: path.read_text(encoding="utf-8")
            for path in sorted(package.rglob("*.py"))
        }
        evaluator = package / "sql" / "expressions.py"
        for fragment in lint_rules.EVALUATOR_ERROR_FRAGMENTS:
            if fragment == "division by zero":  # the constant folder names it
                fragment = 'raise SqlAnalysisError("division by zero")'
            holders = {
                path: text.count(fragment)
                for path, text in sources.items()
                if fragment in text
            }
            assert holders == {evaluator: 1}, fragment
        kernels = sources[package / "columnar" / "kernels.py"]
        assert "SqlAnalysisError" not in kernels
        for path in sources:
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO010" in v
            ] == [], path


class TestRepro011OneRecordFormat:
    def test_struct_outside_the_codec_modules_flagged(self, tmp_path):
        source = (
            "import struct\n"
            "HEADER = struct.Struct('>HH')\n"
            "def frame(n):\n"
            "    return struct.pack('>I', n)\n"
        )
        violations = lint_source(tmp_path, source, name="repro/engine/wal.py")
        assert [v.split(":")[1] for v in violations] == ["1", "2", "4"]
        assert all("REPRO011" in v for v in violations)
        assert lint_source(
            tmp_path, "from struct import unpack\n", name="repro/transport/wire.py"
        )

    def test_codec_modules_may_use_struct(self, tmp_path):
        source = "import struct\nCODEC = struct.Struct('>q')\n"
        for name in lint_rules.RECORD_FORMAT_SUFFIXES:
            assert lint_source(tmp_path, source, name=name) == []

    def test_per_field_loop_flagged_everywhere(self, tmp_path):
        source = (
            "def decode(schema, record, offset):\n"
            "    values = []\n"
            "    for column in schema.columns:\n"
            "        width = column.datatype.width\n"
            "        values.append(column.datatype.decode(record[offset:offset + width]))\n"
            "        offset += width\n"
            "    body = [c.datatype.encode(v) for c, v in zip(schema.columns, values)]\n"
            "    while values:\n"
            "        datatype.encode(values.pop())\n"
            "    return values, body\n"
        )
        for name in ("module.py", "repro/engine/rows.py"):
            violations = lint_source(tmp_path, source, name=name)
            assert [v.split(":")[1] for v in violations] == ["5", "7", "9"]
            assert all("REPRO011" in v for v in violations)

    def test_single_value_calls_and_other_encodes_allowed(self, tmp_path):
        source = (
            "def key_bytes(column, value, rows):\n"
            "    raw = column.datatype.encode(value)\n"
            "    return [raw + text.encode('latin-1') for text in rows]\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_shipped_tree_has_one_record_format(self):
        package = REPO / "src" / "repro"
        holders = set()
        for path in sorted(package.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO011" in v
            ] == [], path
            if "import struct" in path.read_text(encoding="utf-8"):
                holders.add(path.relative_to(package).as_posix())
        assert holders == {"engine/types.py", "engine/rows.py", "engine/page.py"}
        # The per-field API survives as the single-value codec only.
        rows = (package / "engine" / "rows.py").read_text(encoding="utf-8")
        assert "datatype.decode" not in rows and "datatype.encode" not in rows


class TestRepro012OneWritePath:
    TABLE = "repro/engine/table.py"
    LOADER = "repro/engine/utilities.py"
    VIEWS = "repro/warehouse/views.py"
    AGGREGATES = "repro/warehouse/aggregates.py"

    @staticmethod
    def flagged(violations):
        assert all("REPRO012" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    def test_second_copy_of_a_mutation_flagged(self, tmp_path):
        source = (
            "def _insert_row(self, txn, log):\n"
            "    log(LogRecordKind.INSERT, txn.txn_id)\n"
            "    txn.register_undo(lambda: None)\n"
            "def _update_row(self, txn, log):\n"
            "    log(LogRecordKind.UPDATE, txn.txn_id)\n"
            "    txn.register_undo(lambda: None)\n"
            "def _delete_row(self, txn, log):\n"
            "    log(LogRecordKind.DELETE, txn.txn_id)\n"
            "    txn.register_undo(lambda: None)\n"
        )
        assert lint_source(tmp_path, source, name=self.TABLE) == []
        copy = (
            "def insert_batch(self, txn, entries):\n"
            "    entries.append((LogRecordKind.INSERT, txn.txn_id))\n"
            "    txn.register_undo(lambda: None)\n"
        )
        violations = lint_source(tmp_path, source + copy, name=self.TABLE)
        assert self.flagged(violations) == [11, 12]
        # The budget is the table module's; other modules name kinds freely.
        assert lint_source(tmp_path, source + copy, name="repro/engine/wal.py") == []

    def test_validate_then_encode_copied_back_flagged(self, tmp_path):
        source = (
            "def _insert_row(self, txn, values):\n"
            "    values, record = self.schema.admit(values)\n"
            "    values, record = self._stamp(values, record)\n"
            "def _update_row(self, txn, new_list):\n"
            "    return self.schema.admit(new_list)\n"
            "def _stamp(self, values, record):\n"
            "    return values, self.schema.codec.patch(record, values, 0)\n"
        )
        assert lint_source(tmp_path, source, name=self.TABLE) == []
        copy = (
            "def insert_batch(self, txn, rows):\n"
            "    for values in rows:\n"
            "        values, record = self.schema.admit(values)\n"
            "        values = self.schema.validate_values(values)\n"
            "        record = encode_row(self.schema, values)\n"
            "        record = self.schema.codec.encode(values)\n"
        )
        violations = lint_source(tmp_path, source + copy, name=self.TABLE)
        assert sorted(self.flagged(violations)) == [10, 11, 12, 13]

    def test_loader_validate_then_encode_flagged(self, tmp_path):
        loader = (
            "def ascii_load(database, table, ascii_file):\n"
            "    for line in ascii_file.lines:\n"
            "        values, record = table.schema.admit(parse_ascii(table.schema, line))\n"
        )
        assert lint_source(tmp_path, loader, name=self.LOADER) == []
        copy = (
            "        values = table.schema.validate_values(values)\n"
            "        record = encode_row(table.schema, values)\n"
        )
        violations = lint_source(tmp_path, loader + copy, name=self.LOADER)
        assert self.flagged(violations) == [4, 5]
        # Only the table and Loader modules are budgeted.
        assert lint_source(
            tmp_path, loader + copy, name="repro/engine/export.py"
        ) == []

    def test_second_row_image_routine_flagged(self, tmp_path):
        spj = (
            "def _apply_images(self, before, after, txn):\n"
            "    self._delete_by_key(before, txn)\n"
            "def _apply_value_delta(self, records, txn):\n"
            "    for record in records:\n"
            "        self._delete_by_key_if_present(record.after, txn)\n"
        )
        assert lint_source(tmp_path, spj, name=self.VIEWS) == []
        spj += "        self._delete_by_key(record.before, txn)\n"
        assert self.flagged(lint_source(tmp_path, spj, name=self.VIEWS)) == [6]

        aggregate = (
            "def _apply_images(self, before, after, txn):\n"
            "    if before is not None:\n"
            "        self._remove_row(before, txn)\n"
            "    for row in ():\n"
            "        self._remove_row(row, txn)\n"
        )
        assert lint_source(tmp_path, aggregate, name=self.AGGREGATES) == []
        aggregate += (
            "def apply_operation(self, op, txn):\n"
            "    for before in op.before_image:\n"
            "        self._remove_row(before, txn)\n"
        )
        violations = lint_source(tmp_path, aggregate, name=self.AGGREGATES)
        assert self.flagged(violations) == [6]

    def test_after_image_derived_in_one_module(self, tmp_path):
        source = (
            "from repro.sql.expressions import compile_after_image\n"
            "def derive(stmt, columns):\n"
            "    return compile_after_image(stmt, columns)\n"
        )
        for name in lint_rules.AFTER_IMAGE_SUFFIXES:
            assert lint_source(tmp_path, source, name=name) == []
        assert self.flagged(lint_source(tmp_path, source, name=self.VIEWS)) == [3]

    def test_shipped_tree_writes_each_piece_once(self):
        package = REPO / "src" / "repro"
        for path in sorted(package.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO012" in v
            ] == [], path
        # The budgets are met exactly, not merely under: the pieces exist.
        table = (package / "engine" / "table.py").read_text(encoding="utf-8")
        for kind in ("INSERT", "UPDATE", "DELETE"):
            assert table.count(f"LogRecordKind.{kind}") == 1
        assert table.count("register_undo(") == 3
        assert table.count(".admit(") == 2
        assert "validate_values(" not in table and "encode_row(" not in table
        assert ".encode(" not in table
        loader = (package / "engine" / "utilities.py").read_text(encoding="utf-8")
        assert loader.count(".admit(") == 1
        callers = [
            path.relative_to(package).as_posix()
            for path in sorted(package.rglob("*.py"))
            if "compile_after_image(" in path.read_text(encoding="utf-8")
        ]
        assert callers == ["core/opdelta.py", "sql/expressions.py"]


class TestRepro013OneAccessPathChooser:
    PLANNER = "repro/sql/planner.py"
    TABLE = "repro/engine/table.py"
    VIEWS = "repro/warehouse/views.py"
    APPLIER = "repro/columnar/apply.py"

    @staticmethod
    def flagged(violations):
        assert all("REPRO013" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    def test_index_probe_outside_the_chooser_flagged(self, tmp_path):
        probe = "def path(table, column):\n    return table.index_on(column)\n"
        for home in (self.PLANNER, self.TABLE):
            assert lint_source(tmp_path, probe, name=home) == []
        for elsewhere in (
            "repro/sql/executor.py",
            self.APPLIER,
            "repro/warehouse/aggregates.py",
        ):
            violations = lint_source(tmp_path, probe, name=elsewhere)
            assert self.flagged(violations) == [2], elsewhere
            assert "choose_path" in violations[0]

    def test_budgets_are_per_module(self, tmp_path):
        second = (
            "def choose_path(table, column):\n"
            "    return table.index_on(column)\n"
            "def another(table, column):\n"
            "    return table.index_on(column)\n"
        )
        assert self.flagged(lint_source(tmp_path, second, name=self.PLANNER)) == [4]
        assert self.flagged(lint_source(tmp_path, second, name=self.TABLE)) == [4]

    def test_a_view_look_up_asks_the_chooser(self, tmp_path):
        # The view-key and dimension-key look-ups read through choose_path.
        probe = (
            "def _dim_lookup(dim, column, key):\n"
            "    return dim.index_on(column).lookup(key)\n"
        )
        violations = lint_source(tmp_path, probe, name=self.VIEWS)
        assert self.flagged(violations) == [2]
        assert "choose_path" in violations[0]

    def test_table_image_has_one_call_site(self, tmp_path):
        image = "def image(table):\n    return ColumnBatch.from_table(table)\n"
        assert lint_source(tmp_path, image, name=self.APPLIER) == []
        again = image + "def again(table):\n    return ColumnBatch.from_table(table)\n"
        assert self.flagged(lint_source(tmp_path, again, name=self.APPLIER)) == [4]
        assert self.flagged(
            lint_source(tmp_path, image, name="repro/warehouse/views.py")
        ) == [2]
        # Defining the constructor is not calling it.
        definition = (
            "class ColumnBatch:\n"
            "    @classmethod\n"
            "    def from_table(cls, table):\n"
            "        return cls(table.schema.column_names)\n"
        )
        assert lint_source(tmp_path, definition, name="repro/columnar/batch.py") == []

    def test_shipped_tree_has_one_chooser(self):
        package = REPO / "src" / "repro"
        probes, images = {}, {}
        for path in sorted(package.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO013" in v
            ] == [], path
            text = path.read_text(encoding="utf-8")
            name = path.relative_to(package).as_posix()
            # Call sites only: not the definitions, not prose in docstrings.
            if count := len(re.findall(r"(?<!def )\bindex_on\(", text)):
                probes[name] = count
            if count := len(re.findall(r"\bColumnBatch\.from_table\(", text)):
                images[name] = count
        # The budgets are met exactly: the chooser and Table.lookup; and the
        # applier's one table image.
        assert probes == {"engine/table.py": 1, "sql/planner.py": 1}
        assert images == {"columnar/apply.py": 1}


class TestRepro014SysReadInPlace:
    CATALOG = "repro/obs/introspect/catalog.py"
    TABLES = "repro/obs/introspect/tables.py"
    META = "repro/obs/introspect/meta.py"

    COPY = (
        "def scratch(schema, rows):\n"
        "    database = Database('sys')\n"
        "    table = database.create_table(schema)\n"
        "    txn = database.begin()\n"
        "    table.insert_many(txn, rows)\n"
        "    database.commit(txn)\n"
        "    return database\n"
    )

    @staticmethod
    def flagged(violations):
        assert all("REPRO014" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    def test_the_copy_is_flagged_call_by_call_in_the_catalog(self, tmp_path):
        for home in (self.CATALOG, self.TABLES):
            violations = lint_source(tmp_path, self.COPY, name=home)
            assert self.flagged(violations) == [2, 3, 4, 5, 6], home
            assert "repro.sql.source" in violations[0]

    def test_only_the_observatory_builds_a_database_under_obs(self, tmp_path):
        assert lint_source(tmp_path, self.COPY, name=self.META) == []
        elsewhere = lint_source(
            tmp_path, self.COPY, name="repro/obs/flight/recorder.py"
        )
        # Outside the catalog modules only the construction is the rule's.
        assert self.flagged(elsewhere) == [2]
        assert lint_source(
            tmp_path, self.COPY, name="repro/bench/introspect.py"
        ) == []

    def test_a_source_named_like_a_database_is_not_one(self, tmp_path):
        served = (
            "def execute(bundle, statement):\n"
            "    return Executor(_QuerySnapshot(bundle)).execute(statement, None)\n"
        )
        assert lint_source(tmp_path, served, name=self.CATALOG) == []

    def test_shipped_obs_tree_reads_in_place(self):
        obs = REPO / "src" / "repro" / "obs"
        builders = []
        for path in sorted(obs.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO014" in v
            ] == [], path
            text = path.read_text(encoding="utf-8")
            if re.search(r"\bDatabase\(", text):
                builders.append(path.relative_to(obs).as_posix())
            if path.name in ("catalog.py", "tables.py"):
                assert not re.search(
                    r"\b(create_table|insert_many|begin|commit)\(", text
                ), path
        assert builders == ["introspect/meta.py"]


class TestRepro015OnePipelineAssembly:
    SHIPPER = "repro/transport/shipper.py"
    FLIGHT = "repro/bench/flight.py"

    #: The fork this rule keeps out: a stand-in Protocol plus the
    #: transforms called on the caller's behalf.
    HOOKED = (
        "class Compactor(Protocol):\n"
        "    def compact_window(self, groups): ...\n"
        "\n"
        "def enqueue(queue, groups, switcher, pruner, compactor, certifier):\n"
        "    groups, _ = switcher.route_window(groups)\n"
        "    window = [pruner.prune_transaction(g) for g in groups]\n"
        "    window = list(pruner.prune_window(window))\n"
        "    compacted, report = compactor.compact_window(window)\n"
        "    certifier.verify_compaction(window, report.reorder_obligations)\n"
        "    return compacted\n"
    )
    STACK = (
        "def run_drill():\n"
        "    flight = FlightRecorder(store=TimeSeriesStore())\n"
        "    engine = SLOEngine(flight.store, [])\n"
        "    return flight, engine\n"
    )

    @staticmethod
    def flagged(violations):
        assert all("REPRO015" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    def test_transport_calls_no_window_transform(self, tmp_path):
        violations = lint_source(tmp_path, self.HOOKED, name=self.SHIPPER)
        assert self.flagged(violations) == [1, 5, 6, 7, 8, 9]
        assert "derives from Protocol" in violations[0]
        assert "route_window()" in violations[1]

    def test_the_same_calls_are_the_pipelines_to_make(self, tmp_path):
        for home in ("repro/bench/health.py", "repro/analysis/analyzer.py"):
            assert lint_source(tmp_path, self.HOOKED, name=home) == [], home
        moved = (
            "def enqueue(queue, groups):\n"
            "    for group in groups:\n"
            "        queue.enqueue(group, group.size_bytes)\n"
        )
        assert lint_source(tmp_path, moved, name=self.SHIPPER) == []

    def test_only_the_driver_builds_the_flight_stack_under_bench(self, tmp_path):
        assert lint_source(tmp_path, self.STACK, name=self.FLIGHT) == []
        for home in (
            "repro/bench/introspect.py",
            "repro/bench/experiments/flight.py",
        ):
            copied = lint_source(tmp_path, self.STACK, name=home)
            assert self.flagged(copied) == [2, 3], home
            assert "WindowedPipeline" in copied[0]
        # The stores' own package, and the tests, construct them freely.
        assert lint_source(
            tmp_path, self.STACK, name="repro/obs/flight/series.py"
        ) == []

    def test_shipped_tree_assembles_once(self):
        source = REPO / "src" / "repro"
        for path in sorted(source.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO015" in v
            ] == [], path
        transforms = "|".join(lint_rules.WINDOW_TRANSFORMS)
        for path in sorted((source / "transport").glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert not re.search(rf"\bProtocol\b|\b({transforms})\(", text), path
        builders = [
            path.relative_to(source / "bench").as_posix()
            for path in sorted((source / "bench").rglob("*.py"))
            if re.search(
                r"\b(FlightRecorder|SLOEngine)\(", path.read_text(encoding="utf-8")
            )
        ]
        assert builders == ["flight.py"]


class TestRepro016TextBecomesCodeInOnePlace:
    EMITTER = "repro/sql/expressions.py"

    #: The one shape the rule admits.
    FACTORY = (
        "from functools import lru_cache\n"
        "import re\n"
        "\n"
        "@lru_cache(maxsize=1024)\n"
        "def _factory(source):\n"
        "    scratch = {}\n"
        "    exec(source, globals(), scratch)\n"
        "    return scratch['factory']\n"
        "\n"
        "PATTERN = re.compile('x')\n"
        "def evaluate(expr, env): return expr.eval(env)\n"
    )

    @staticmethod
    def flagged(violations):
        assert all("REPRO016" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    def test_the_memoised_factory_of_the_emitter_is_the_one_site(self, tmp_path):
        assert lint_source(tmp_path, self.FACTORY, name=self.EMITTER) == []
        # re.compile and a method called eval are not the builtins.
        elsewhere = lint_source(tmp_path, self.FACTORY, name="repro/sql/planner.py")
        assert self.flagged(elsewhere) == [7]
        assert "exec() called outside the memoised factory" in elsewhere[0]

    def test_every_other_module_calls_none_of_the_three(self, tmp_path):
        for builtin in lint_rules.CODE_BUILTINS:
            source = f"def run(text):\n    return {builtin}(text)\n"
            for home in ("repro/columnar/kernels.py", "repro/bench/cli.py", "module.py"):
                violations = lint_source(tmp_path, source, name=home)
                assert self.flagged(violations) == [2], (builtin, home)

    def test_in_the_emitter_it_is_one_call_inside_the_memo_on_a_plain_name(
        self, tmp_path
    ):
        unmemoised = self.FACTORY.replace("@lru_cache(maxsize=1024)\n", "")
        assert self.flagged(
            lint_source(tmp_path, unmemoised, name=self.EMITTER)
        ) == [6]
        spliced = self.FACTORY.replace("exec(source,", "exec(source % values,")
        violations = lint_source(tmp_path, spliced, name=self.EMITTER)
        assert self.flagged(violations) == [7]
        assert "never spliced at the call site" in violations[0]
        twice = self.FACTORY.replace(
            "    return scratch", "    eval(source)\n    return scratch"
        )
        violations = lint_source(tmp_path, twice, name=self.EMITTER)
        assert self.flagged(violations) == [8]
        assert "a second time" in violations[0]

    def test_shipped_tree_instantiates_source_once(self):
        source = REPO / "src" / "repro"
        sites = []
        for path in sorted(source.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO016" in v
            ] == [], path
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if re.search(r"(?<![\w.])(eval|exec|compile)\(", line):
                    sites.append((path.relative_to(source).as_posix(), line.strip()))
        assert sites == [("sql/expressions.py", "exec(source, globals(), scratch)")]


class TestRepro017RowIdsAreAskedForToBeUsed:
    @staticmethod
    def flagged(violations):
        assert all("REPRO017" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    def test_a_comprehension_that_discards_the_row_id_is_flagged(self, tmp_path):
        for clause in (
            "[v for _rid, v in table.scan()]",
            "sorted(values for _r, values in db.table('parts').scan())",
            "{v[0]: v for _row_id, v in table.scan(columns)}",
            "{v for _, v in self.table.scan()}",
        ):
            source = f"def rows(table, db, self, columns):\n    return {clause}\n"
            violations = lint_source(tmp_path, source, name="repro/bench/verify.py")
            assert self.flagged(violations) == [2], clause
            assert "scan_values" in violations[0]

    def test_a_used_row_id_another_read_and_a_for_statement_are_not(self, tmp_path):
        source = (
            "def directory(table, index, width):\n"
            "    by_key = {v[:width]: rid for rid, v in table.scan()}\n"
            "    ids = [rid for rid, _values in table.scan()]\n"
            "    values = list(table.scan_values())\n"
            "    ranged = [v for _rid, v in index.range_scan(1, 2)]\n"
            "    pairs = [pair for pair in table.scan()]\n"
            "    for _rid, v in table.scan():\n"
            "        clock.advance(cost)\n"
            "    return by_key, ids, values, ranged, pairs\n"
        )
        assert lint_source(tmp_path, source, name="repro/warehouse/views.py") == []

    def test_a_consumer_that_charges_between_rows_has_its_budget(self, tmp_path):
        load = (
            "def load(warehouse, table):\n"
            "    return warehouse.load(\n"
            "        'parts', (values for _rid, values in table.scan())\n"
            "    )\n"
        )
        module = "repro/bench/experiments/aggregate_views.py"
        assert lint_source(tmp_path, load, name=module) == []
        again = load + "def more(table):\n    return [v for _r, v in table.scan()]\n"
        assert self.flagged(lint_source(tmp_path, again, name=module)) == [6]
        # A dump charges per record scanned from ``scan_pages``: no budget.
        assert self.flagged(
            lint_source(tmp_path, load, name="repro/engine/utilities.py")
        ) == [3]

    def test_shipped_tree_discards_a_row_id_only_where_it_must(self):
        package = REPO / "src" / "repro"
        discarded = {}
        for path in sorted(package.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO017" in v
            ] == [], path
            text = path.read_text(encoding="utf-8")
            if count := len(re.findall(r"for _\w*, \w+ in [^\n]*\.scan\(", text)):
                discarded[path.relative_to(package).as_posix()] = count
        # The comprehension budgets are met exactly; the one ``for``
        # statement stops at the first match (the dimension look-up).
        assert discarded == {
            "bench/experiments/aggregate_views.py": 1,
            "bench/experiments/freshness.py": 2,
            "warehouse/views.py": 1,
        }


class TestRepro018TheWarehouseBindsItsStatements:
    @staticmethod
    def flagged(violations):
        assert all("REPRO018" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    TREES = (
        "def statements_for(record, target, key):\n"
        "    delete = ast.DeleteStmt(target, key)\n"
        "    insert = ast.InsertStmt(target, None, rows=(record.after,))\n"
        "    update = UpdateStmt(target, (), None)\n"
        "    return delete, insert, update\n"
    )

    def test_a_tree_built_in_the_warehouse_is_flagged(self, tmp_path):
        violations = lint_source(tmp_path, self.TREES, name="repro/warehouse/olap.py")
        assert self.flagged(violations) == [2, 3, 4]
        assert "DeleteStmt()" in violations[0] and "prepared" in violations[0]
        # The rule is the warehouse's: the transformer and the coalescer
        # rewrite whole statements, and are held to their own tests.
        assert lint_source(tmp_path, self.TREES, name="repro/core/transform.py") == []

    def test_a_template_builder_may_build(self, tmp_path):
        source = (
            "def delete_by_key(table, column, key):\n"
            "    return TEMPLATES.prepared(\n"
            "        ('delete by key', table, column), (key,),\n"
            "        lambda slots: ast.DeleteStmt(table, equals(column, slots[0])),\n"
            "    )\n"
            "class View:\n"
            "    def apply(self, op, txn):\n"
            "        return reshaped(op.statement, self.scope, 'view', self._onto)\n"
            "    def _onto(self, stmt):\n"
            "        if isinstance(stmt, ast.UpdateStmt):\n"
            "            return ast.UpdateStmt(self.name, stmt.assignments, stmt.where)\n"
            "        return ast.DeleteStmt(self.name, stmt.where)\n"
            "    def derived(self, template):\n"
            "        return template.rewritten(rewrite=self._onto)\n"
            "    def _elsewhere(self, stmt):\n"
            "        return ast.DeleteStmt(self.name, stmt.where)\n"
        )
        violations = lint_source(tmp_path, source, name="repro/warehouse/views.py")
        assert self.flagged(violations) == [16]

    def test_a_statement_with_a_shape_per_length_has_its_budget(self, tmp_path):
        run = (
            "def flush(target, pending):\n"
            "    return ast.InsertStmt(target, None, rows=tuple(pending))\n"
        )
        name = "repro/warehouse/opdelta_integrator.py"
        assert lint_source(tmp_path, run, name=name) == []
        assert self.flagged(
            lint_source(tmp_path, run + self.TREES, name=name)
        ) == [4, 5, 6]
        # The value integrator's runs are array-bound: it has no budget.
        assert self.flagged(
            lint_source(tmp_path, run, name="repro/warehouse/value_integrator.py")
        ) == [2]

    BINDS = (
        "def apply(session, delete, insert, key, row):\n"
        "    if not session.execute_prepared(delete, ((key,),)).rows_affected:\n"
        "        raise WarehouseError(delete.bind((key,), ()).to_sql())\n"
        "    return insert.bind(row, ())\n"
    )

    def test_a_tree_bound_in_the_warehouse_is_budgeted(self, tmp_path):
        # A module with no budget: both binds are flagged.
        violations = lint_source(tmp_path, self.BINDS, name="repro/warehouse/olap.py")
        assert self.flagged(violations) == [3, 4]
        assert ".bind()" in violations[0] and "execute_prepared" in violations[0]
        # The value integrator may bind one (its error message), not two.
        assert self.flagged(lint_source(
            tmp_path, self.BINDS, name="repro/warehouse/value_integrator.py"
        )) == [4]
        # Run from its values, nothing is bound; outside the warehouse the
        # rule does not look.
        clean = (
            "def apply(session, delete, insert, key, row):\n"
            "    session.execute_prepared(delete, ((key,),))\n"
            "    session.execute_prepared(insert, (row,))\n"
        )
        assert lint_source(tmp_path, clean, name="repro/warehouse/olap.py") == []
        assert lint_source(tmp_path, self.BINDS, name="repro/sql/olap.py") == []

    def test_the_repository_builds_only_its_one_off_statement(self):
        package = REPO / "src" / "repro" / "warehouse"
        built, bound = {}, {}
        for path in sorted(package.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO018" in v
            ] == [], path
            text = path.read_text(encoding="utf-8")
            if count := len(re.findall(r"ast\.(?:Insert|Update|Delete)Stmt\(", text)):
                built[path.name] = count
            if count := len(re.findall(r"\.bind\(", text)):
                bound[path.name] = count
        # The two prepared builders; the IN-list DELETE of a multi-row
        # fallback; the view's rewrite onto its storage.
        assert built == {
            "opdelta_integrator.py": 1, "value_integrator.py": 2, "views.py": 2,
        }
        # The must-find error and the single-key volatile fallback.
        assert bound == {"opdelta_integrator.py": 1, "value_integrator.py": 1}


class TestRepro019ANodesChildrenAreDeclaredOnce:
    @staticmethod
    def flagged(violations):
        assert all("REPRO019" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    SWITCH = (
        "def rename(expr, mapping):\n"
        "    if isinstance(expr, ast.Literal):\n"
        "        return expr\n"
        "    if isinstance(expr, ast.ColumnRef):\n"
        "        return ast.ColumnRef(mapping[expr.name])\n"
        "    if isinstance(expr, ast.BinaryOp):\n"
        "        return ast.BinaryOp(expr.op, rename(expr.left), rename(expr.right))\n"
        "    if isinstance(expr, (ast.Like, ast.IsNull)):\n"
        "        return dataclasses.replace(expr, expr=rename(expr.expr))\n"
        "    raise ValueError(expr)\n"
    )

    def test_a_switch_over_the_node_classes_is_flagged(self, tmp_path):
        violations = lint_source(tmp_path, self.SWITCH, name="repro/core/transform.py")
        assert self.flagged(violations) == [1]
        assert "rename() switches over 5" in violations[0]
        assert "BinaryOp, ColumnRef, IsNull, Like, Literal" in violations[0]
        # The declaration itself is where the classes are told apart.
        assert lint_source(tmp_path, self.SWITCH, name="repro/sql/ast_nodes.py") == []

    def test_a_nested_function_counts_for_the_one_around_it(self, tmp_path):
        source = (
            "class Checker:\n"
            "    def fold(self, expr):\n"
            "        def inner(node):\n"
            "            if isinstance(node, BinaryOp): return 1\n"
            "            if isinstance(node, UnaryOp): return 2\n"
            "            if isinstance(node, (InList, Between)): return 3\n"
            "        return inner(expr)\n"
        )
        violations = lint_source(tmp_path, source, name="repro/semantics/checker.py")
        assert self.flagged(violations) == [2]
        assert "Checker.fold()" in violations[0]

    def test_acting_on_a_few_classes_is_what_a_traversal_does(self, tmp_path):
        source = (
            "def onto(node):\n"
            "    if isinstance(node, ast.ColumnRef):\n"
            "        return ast.ColumnRef(node.name)\n"
            "    if isinstance(node, ast.FuncCall) and node.is_volatile:\n"
            "        raise ValueError(node)\n"
            "    if isinstance(node, (ast.Literal, dict, ast.SelectStmt)):\n"
            "        return node\n"
            "    return node\n"
        )
        assert lint_source(tmp_path, source, name="repro/core/transform.py") == []

    def test_a_switch_that_gives_nodes_meaning_has_its_reason(self, tmp_path):
        method = self.SWITCH.replace("rename", "emit").splitlines()
        emit = "class _Emitter:\n" + "".join(f"    {line}\n" for line in method)
        assert lint_source(tmp_path, emit, name="repro/sql/expressions.py") == []
        # The budget is per function, not per module.
        assert self.flagged(
            lint_source(tmp_path, emit + self.SWITCH, name="repro/sql/expressions.py")
        ) == [12]
        assert all(reason for reason in lint_rules.SEMANTIC_SWITCHES.values())

    def test_the_repository_switches_only_where_nodes_get_their_meaning(self):
        package = REPO / "src" / "repro"
        for path in sorted(package.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO019" in v
            ] == [], path
        # Every budgeted switch still exists (a stale entry is a free pass).
        for suffix, name in lint_rules.SEMANTIC_SWITCHES:
            text = (REPO / "src" / suffix).read_text(encoding="utf-8")
            assert f"def {name.rpartition('.')[2]}(" in text, (suffix, name)
        assert set(lint_rules.EXPRESSION_NODE_CLASSES) == {
            cls.__name__ for cls in ast_nodes.Expression.__subclasses__()
        }


class TestRepro020PageStateIsWrittenByThePage:
    @staticmethod
    def flagged(violations):
        assert all("REPRO020" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    WRITES = (
        "def tamper(page, heap, slot, record):\n"
        "    page._slots[slot] = record\n"
        "    page._writes += 1\n"
        "    del page._decoded[heap.decode]\n"
        "    heap.frame._decoded = {}\n"
        "    first, page._slots = page._slots, []\n"
        "    page._decoded[heap.decode][1][0] = record\n"
        "    other._writes: int = 0\n"
        "    del page._slots\n"
    )

    def test_a_write_outside_the_page_is_flagged(self, tmp_path):
        violations = lint_source(tmp_path, self.WRITES, name="repro/engine/heap.py")
        assert self.flagged(violations) == [2, 3, 4, 5, 6, 7, 8, 9]
        assert "'._slots' written outside" in violations[0]
        assert "'._writes'" in violations[1] and "'._decoded'" in violations[2]
        # No budget anywhere else either.
        for name in ("repro/engine/table.py", "repro/engine/buffer.py", "tests/x.py"):
            assert len(lint_source(tmp_path, self.WRITES, name=name)) == 8

    def test_the_page_writes_its_own_state(self, tmp_path):
        assert lint_source(tmp_path, self.WRITES, name="repro/engine/page.py") == []

    def test_reading_page_state_and_other_stores_are_not_writes(self, tmp_path):
        source = (
            "def look(page, decode, rows, store):\n"
            "    slots = page._slots\n"
            "    live = [s for s in page._slots if s]\n"
            "    kept = page._decoded.get(decode)\n"
            "    rows[page._writes] = kept\n"
            "    store._slot = 1\n"
            "    page.slots = []\n"
            "    return slots, live\n"
        )
        assert lint_source(tmp_path, source, name="repro/engine/table.py") == []

    def test_the_repository_writes_page_state_only_in_the_page(self):
        package = REPO / "src" / "repro"
        for path in sorted(package.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO020" in v
            ] == [], path
        # The rule guards what the page really keeps.
        page = (package / "engine" / "page.py").read_text(encoding="utf-8")
        for attr in lint_rules.PAGE_STATE_ATTRS:
            assert f"self.{attr}" in page, attr


class TestRepro021OneCommutationVerdictPerPair:
    RECORD = "repro/analysis/conflict.py"
    PROOF = "def proved(a, b, keys):\n    return commutes(a, b, keys)\n"

    @staticmethod
    def flagged(violations):
        assert all("REPRO021" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    def test_a_proof_outside_the_record_is_flagged(self, tmp_path):
        assert lint_source(tmp_path, self.PROOF, name=self.RECORD) == []
        for elsewhere in (
            "repro/analysis/certify/certifier.py",
            "repro/analysis/certify/sanitizer.py",
            "repro/compaction/coalescer.py",
            "repro/analysis/analyzer.py",
            "repro/warehouse/opdelta_integrator.py",
        ):
            violations = lint_source(tmp_path, self.PROOF, name=elsewhere)
            assert self.flagged(violations) == [2], elsewhere
            assert "ConflictGraph.record" in violations[0]

    def test_budgets_are_per_module(self, tmp_path):
        twice = self.PROOF + "def again(a, b):\n    return safety.commutes(a, b)\n"
        assert self.flagged(lint_source(tmp_path, twice, name=self.RECORD)) == [4]

    def test_reading_the_record_is_not_a_proof(self, tmp_path):
        source = (
            "def certify(record, a, b, window):\n"
            "    return record.commute(a, b), record.conflicts(window)\n"
            "def commutes(a, b):\n"
            "    return True\n"
        )
        assert lint_source(
            tmp_path, source, name="repro/analysis/certify/certifier.py"
        ) == []

    def test_shipped_tree_proves_once(self):
        package = REPO / "src" / "repro"
        calls = {}
        for path in sorted(package.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO021" in v
            ] == [], path
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if count := len(lint_rules._calls_to(list(ast.walk(tree)), "commutes")):
                calls[path.relative_to(package).as_posix()] = count
        # The budget is met exactly: the record's cell.
        assert calls == {"analysis/conflict.py": 1}


class TestRepro024OneReplayJudge:
    JUDGE = "repro/core/selfmaint.py"
    WIDENING = "repro/semantics/planner.py"
    CALL = (
        "def judge(view, kind, read, assigned):\n"
        "    return _replay(view, kind, read, assigned)\n"
    )
    READ = "def path(rule):\n    return rule.needs_before_image\n"

    @staticmethod
    def flagged(violations):
        assert all("REPRO024" in v for v in violations)
        return [int(v.split(":")[1]) for v in violations]

    def test_a_replay_outside_the_two_callers_is_flagged(self, tmp_path):
        for home in (self.JUDGE, self.WIDENING):
            assert lint_source(tmp_path, self.CALL, name=home) == [], home
        for elsewhere in (
            "repro/warehouse/views.py",
            "repro/columnar/apply.py",
            "repro/analysis/safety.py",
        ):
            violations = lint_source(tmp_path, self.CALL, name=elsewhere)
            assert self.flagged(violations) == [2], elsewhere
            assert "replay_kind(view, statement)" in violations[0]

    def test_budgets_are_per_module(self, tmp_path):
        twice = self.CALL + "def again(v, k):\n    return selfmaint._replay(v, k, a, b)\n"
        assert self.flagged(lint_source(tmp_path, twice, name=self.JUDGE)) == [4]

    def test_apply_reads_no_image_choice(self, tmp_path):
        for apply_path in ("repro/warehouse/views.py", "repro/columnar/apply.py"):
            violations = lint_source(tmp_path, self.READ, name=apply_path)
            assert self.flagged(violations) == [2], apply_path
        for capture in (self.WIDENING, "repro/analysis/verify/verifier.py"):
            assert lint_source(tmp_path, self.READ, name=capture) == [], capture

    def test_apply_looks_up_no_rule(self, tmp_path):
        lookup = "def maintain(plan, kind):\n    return plan.rule_for(kind)\n"
        for apply_path in (
            "repro/warehouse/opdelta_integrator.py",
            "repro/columnar/apply.py",
        ):
            violations = lint_source(tmp_path, lookup, name=apply_path)
            assert self.flagged(violations) == [2], apply_path
            assert "looked up on the apply path" in violations[0]
        for home in (
            self.WIDENING,
            "repro/analysis/verify/verifier.py",
            "repro/bench/check.py",
        ):
            assert lint_source(tmp_path, lookup, name=home) == [], home

    def test_a_keyword_is_not_a_read(self, tmp_path):
        source = "def make(build):\n    return build(needs_before_image=False)\n"
        assert lint_source(tmp_path, source, name="repro/warehouse/views.py") == []

    def test_the_rule_back_in_views_fails_the_command_line(self, tmp_path):
        views = tmp_path / "repro" / "warehouse" / "views.py"
        views.parent.mkdir(parents=True)
        shipped = (REPO / "src" / "repro" / "warehouse" / "views.py").read_text(
            encoding="utf-8"
        )
        views.write_text(shipped, encoding="utf-8")
        assert lint_rules.main([str(views)]) == 0
        views.write_text(
            shipped + "\n\ndef _resolve_level(rule):\n"
            "    return rule.needs_before_image\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_rules.py"), str(views)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "REPRO024" in proc.stdout

    def test_shipped_tree_has_one_replay_judge(self):
        package = REPO / "src" / "repro"
        calls, lookups, reads = {}, {}, {}
        for path in sorted(package.rglob("*.py")):
            assert [
                v for v in lint_rules.lint_file(path) if "REPRO024" in v
            ] == [], path
            nodes = list(ast.walk(lint_rules.parse_file(path)))
            name = "repro/" + path.relative_to(package).as_posix()
            if count := len(lint_rules._calls_to(nodes, "_replay")):
                calls[name] = count
            if count := len(lint_rules._calls_to(nodes, "rule_for")):
                lookups[name] = count
            if count := sum(
                isinstance(n, ast.Attribute) and n.attr == "needs_before_image"
                for n in nodes
            ):
                reads[name] = count
        # Every budget is met exactly; rules are looked up by the capture
        # policy and the verifier alone.
        assert calls == lint_rules.REPLAY_BUDGETS
        assert lookups == {
            "repro/semantics/planner.py": 1,
            "repro/analysis/verify/verifier.py": 1,
        }
        assert reads == lint_rules.IMAGE_CHOICE_BUDGETS


class TestRepro022ReachedByAProgram:
    MODULE = (
        '"""Names ``only_tested`` in a docstring, which does not count."""\n'
        "def used():\n"
        "    return 1\n"
        "def only_tested():\n"
        "    return only_tested  # naming itself does not count\n"
        "class Thing:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n"
        "    def _private(self):\n"
        "        return 3\n"
    )

    @staticmethod
    def repo(tmp_path, example, test="from repro.mod import only_tested\n"):
        """A repository whose package re-exports both functions."""
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            "from .mod import only_tested, used\n"
            "__all__ = ['only_tested', 'used']\n"
        )
        (package / "mod.py").write_text(TestRepro022ReachedByAProgram.MODULE)
        for tree, source in (("examples", example), ("tests", test)):
            (tmp_path / tree).mkdir()
            (tmp_path / tree / "demo.py").write_text(source)
        return tmp_path

    @staticmethod
    def flagged(violations):
        assert all("REPRO022" in v for v in violations)
        return [v.split(" REPRO022 ")[1].split()[0] for v in violations]

    def test_a_name_only_a_test_calls_is_flagged(self, tmp_path):
        root = self.repo(tmp_path, "from repro.mod import Thing, used\nused()\n")
        violations = lint_rules.reach_violations(root, exemptions={})
        assert self.flagged(violations) == ["repro.mod.only_tested", "repro.mod.Thing.size"]
        assert violations[0].startswith(f"{root / 'src/repro/mod.py'}:4:")

    def test_a_name_an_example_calls_is_not_flagged(self, tmp_path):
        example = (
            "from repro import mod\n"
            "mod.used(); mod.only_tested()\n"
            "print(getattr(mod.Thing(), 'size'))\n"
        )
        root = self.repo(tmp_path, example)
        assert lint_rules.reach_violations(root, exemptions={}) == []

    def test_only_a_string_a_program_resolves_counts(self, tmp_path):
        # A message or an event named like a function reaches nothing ...
        named = "from repro.mod import used\nused()\nlog('only_tested', 'size')\n"
        root = self.repo(tmp_path / "named", named)
        violations = lint_rules.reach_violations(root, exemptions={})
        assert self.flagged(violations) == ["repro.mod.only_tested", "repro.mod.Thing.size"]
        # ... the name getattr( resolves, or a report pass's runner=, does.
        resolved = (
            "from repro import mod\n"
            "mod.used()\n"
            "PASSES = (ReportPass(flag='--x', runner='only_tested'),)\n"
            "print(getattr(mod.Thing(), 'size', None))\n"
        )
        root = self.repo(tmp_path / "resolved", resolved)
        assert lint_rules.reach_violations(root, exemptions={}) == []

    def test_a_stale_exemption_is_flagged(self, tmp_path):
        root = self.repo(tmp_path, "from repro.mod import Thing, used\nused()\n")
        exemptions = {
            "repro.mod.only_tested": "still unreached: a live exemption",
            "repro.mod.Thing.size": "still unreached: a live exemption",
            "repro.mod.used": "an example calls it now",
            "repro.mod.gone": "deleted since",
        }
        violations = lint_rules.reach_violations(root, exemptions=exemptions)
        assert [v.split("stale exemption ")[1] for v in violations] == [
            "repro.mod.gone: it no longer exists; remove it from REACH_EXEMPTIONS",
            "repro.mod.used: it has a caller now; remove it from REACH_EXEMPTIONS",
        ]

    def test_the_command_line_runs_it_on_a_package_tree(self, tmp_path):
        root = self.repo(tmp_path, "")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_rules.py"), "src/repro"],
            capture_output=True, text=True, cwd=root,
        )
        assert proc.returncode == 1
        # Then the shipped exemptions, which name nothing in this tree.
        lines = [line for line in proc.stdout.splitlines() if "REPRO022" in line]
        assert self.flagged(lines)[:3] == [
            "repro.mod.used", "repro.mod.only_tested", "repro.mod.Thing.size",
        ]

    def test_the_shipped_exemptions_are_live_and_give_reasons(self):
        assert lint_rules.reach_violations(REPO) == []
        assert all(reason.strip() for reason in lint_rules.REACH_EXEMPTIONS.values())


class TestRepro023SetByAProgram:
    MODULE = (
        "def build(kind, count=3, tag=None):\n"
        "    return kind, count, tag\n"
        "class Thing:\n"
        "    def __init__(self, size=1, label='x'):\n"
        "        self.size, self.label = size, label\n"
        "    @classmethod\n"
        "    def sized(cls, size):\n"
        "        return cls(size)  # sets ``size`` by position\n"
    )

    TEST = "from repro.mod import build\nbuild('a', 4, tag='t')\n"

    @staticmethod
    def repo(tmp_path, example, test=TEST):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text(TestRepro023SetByAProgram.MODULE)
        for tree, source in (("examples", example), ("tests", test)):
            (tmp_path / tree).mkdir()
            (tmp_path / tree / "demo.py").write_text(source)
        return tmp_path

    @staticmethod
    def flagged(violations):
        assert all("REPRO023" in v for v in violations)
        return [v.split(" REPRO023 ")[1].split()[0] for v in violations]

    def test_a_parameter_only_a_test_sets_is_flagged(self, tmp_path):
        root = self.repo(tmp_path, "from repro.mod import build\nbuild('a')\n")
        violations = lint_rules.setting_violations(root, exemptions={})
        assert self.flagged(violations) == [
            "repro.mod.build(count=)",
            "repro.mod.build(tag=)",
            "repro.mod.Thing(label=)",
        ]
        assert violations[0].startswith(f"{root / 'src/repro/mod.py'}:1:")

    def test_one_set_by_an_example_by_position_or_through_cls_is_not(self, tmp_path):
        example = (
            "from repro.mod import Thing, build\n"
            "build('a', 4)\n"
            "build('b', tag='t')\n"
            "Thing(label='y')\n"
        )
        root = self.repo(tmp_path, example)
        assert lint_rules.setting_violations(root, exemptions={}) == []

    def test_a_stale_exemption_is_flagged(self, tmp_path):
        root = self.repo(tmp_path, "from repro.mod import build\nbuild('a')\n")
        exemptions = {
            "repro.mod.build(count=)": lint_rules.SHRINKS_A_RUN,
            "repro.mod.Thing(label=)": lint_rules.FAKE_OR_FAULT,
            "repro.mod.build(tag=)": "it reads nicely",
            "repro.mod.Thing(size=)": lint_rules.SHRINKS_A_RUN,
            "repro.mod.gone(x=)": lint_rules.OUTPUT_STREAM,
        }
        violations = lint_rules.setting_violations(root, exemptions=exemptions)
        assert [v.split("stale exemption ")[1] for v in violations] == [
            "repro.mod.Thing(size=): it is set by a program now; "
            "fix or remove it in SETTING_EXEMPTIONS",
            "repro.mod.build(tag=): it gives no reason from SETTING_REASONS; "
            "fix or remove it in SETTING_EXEMPTIONS",
            "repro.mod.gone(x=): it no longer exists; "
            "fix or remove it in SETTING_EXEMPTIONS",
        ]

    def test_the_shipped_tree_sets_every_setting_or_says_why(self):
        assert lint_rules.setting_violations(REPO) == []
        assert set(lint_rules.SETTING_EXEMPTIONS.values()) <= set(
            lint_rules.SETTING_REASONS
        )


class TestCommandLine:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_rules.py"), *args],
            capture_output=True,
            text=True,
            cwd=REPO,
        )

    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        proc = self.run_cli(str(tmp_path))
        assert proc.returncode == 0
        assert "0 violations" in proc.stderr

    def test_violations_exit_one(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\nx = time.time()\n", encoding="utf-8"
        )
        proc = self.run_cli(str(tmp_path))
        assert proc.returncode == 1
        assert "REPRO001" in proc.stdout

    def test_missing_path_exits_two(self):
        proc = self.run_cli("no/such/path")
        assert proc.returncode == 2

    def test_repo_source_tree_is_clean(self):
        proc = self.run_cli("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestParseCache:
    """Each file is parsed once per process and version; rules share it."""

    def test_a_file_is_parsed_once_per_version(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text("x = 1\n", encoding="utf-8")
        tree = lint_rules.parse_file(path)
        assert lint_rules.parse_file(path) is tree
        path.write_text("x = 12\n", encoding="utf-8")
        assert lint_rules.parse_file(path) is not tree
        assert ast.dump(lint_rules.parse_file(path)) == ast.dump(ast.parse("x = 12\n"))

    def test_no_rule_mutates_a_cached_tree(self):
        """Runs every rule over the shipped tree (5–7 s): a rule that
        changed a kept tree would change what every later rule reads.  A
        pickle holds every field and attribute of every node."""
        files = lint_rules.python_files(
            [REPO / "src" / "repro", *(REPO / t for t in lint_rules.PROGRAM_TREES)]
        )
        before = {path: pickle.dumps(lint_rules.parse_file(path)) for path in files}
        for path in files:
            lint_rules._lint_file(path)
        assert lint_rules.reach_violations(REPO) == []
        assert lint_rules.setting_violations(REPO) == []
        for path in files:
            assert pickle.dumps(lint_rules.parse_file(path)) == before[path], path
