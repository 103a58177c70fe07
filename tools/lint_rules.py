#!/usr/bin/env python3
"""Project-specific AST lint rules for the ``repro`` package.

Twenty-four disciplines the standard linters cannot express:

**REPRO001 — virtual-clock discipline.**  All timing inside ``src/repro``
is deterministic virtual time (:mod:`repro.clock`); wall-clock reads and
ambient randomness would make runs irreproducible.  Calls to
``time.time()``-family functions, ``datetime.now()``-family constructors
and the module-level ``random.*`` convenience functions are banned.
``repro/clock.py`` itself is exempt (it is the one place allowed to think
about time), and instantiating a *seeded* ``random.Random(seed)`` stream
is always fine — only the shared module-level RNG is ambient state.

**REPRO002 — metric naming.**  Metric names registered through
``.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)`` must follow the
``<subsystem>.<object>.<event>`` convention: at least three snake_case
segments joined by dots, with a first segment from the known-subsystem
list (``KNOWN_SUBSYSTEMS``) so typos cannot silently mint a new
namespace.  Names under ``obs.`` must live in ``obs.pipeline.*`` — the
observability layer's own meta-metrics (lifecycle event counts,
watermarks, lag histograms) all belong to the pipeline sub-namespace.
The registry enforces the shape at runtime; the lint catches it before
any code runs.

**REPRO003 — no swallowed exceptions.**  A bare ``except:`` is always
banned, as is an ``except Exception:`` / ``except BaseException:`` handler
whose body does nothing (``pass`` / ``...`` only): both silently discard
engine bugs that the typed error hierarchy (:mod:`repro.errors`) exists to
surface.  Catch the narrowest error type that the handled failure actually
raises; a broad handler that logs, wraps or re-raises is fine.

**REPRO004 — an Op-Delta's statement is read, not re-parsed.**  Passing
``<op>.statement_text`` to any ``parse(...)`` call binds, from the statement
template table (``repro.sql.parser.TEMPLATES``), a second copy of a statement
the record already carries — capture hands it over parsed — and skips the
table's Op-Delta look-up accounting (``core.opdelta.parse_cache_hits`` /
``_misses``).  Use the ``OpDelta.statement`` property, which reads through
the template table once and keeps the result; ``core/opdelta.py`` itself is
exempt (it is that read-through).

**REPRO005 — flight modules take time as data.**  Modules under
``repro/obs/flight/`` are pure folds over timestamps handed to them
(``at_ms`` arguments, span start/end times): they must not construct a
clock (``VirtualClock(...)``, ``Clock(...)``) or pull ambient
observability context (``ambient_metrics()`` / ``ambient_tracer()`` /
``ambient_pipeline()``).  A flight module that reads time on its own can
disagree with the samples it stores — the recorder's byte-identical
replay guarantee only holds when every timestamp flows in through the
sampling seam.

**REPRO006 — warehouse mutations go through the integrators.**  The
schedule certifier proves an apply order serializable *before* it runs
and the interference sanitizer audits it afterwards — but only for
mutations that flow through the certified commit paths.  A direct
``.insert(...)`` / ``.update(...)`` / ``.delete(...)`` /
``.execute_statement(...)`` call elsewhere under ``repro/warehouse/``
mutates warehouse state behind the certificate's back, so those calls
are banned outside the integrator commit paths and the view/aggregate
maintenance plans (``opdelta_integrator.py``, ``value_integrator.py``,
``views.py``, ``aggregates.py``).  Bulk initial loads are exempt when
they say so explicitly: a call passing ``mode=...BULK_INTERNAL`` is
seeding state before any delta exists, not applying one.  Inside the two
integrator modules themselves there is exactly **one commit site**: a
``.begin()`` / ``.commit()`` / ``.rollback()`` call anywhere but the
``transactional_unit`` block every apply configuration shares is a
second transaction boundary the rollback/lineage/sanitizer contract does
not cover, and is flagged.

**REPRO007 — delta rules come from the planner.**  The delta-rule
verifier's certificates are keyed by the *compiled plan*: a
``DeltaRule`` constructed by hand, or a plan whose ``rules`` mapping is
reassigned after compilation, is a rule no certificate has ever
model-checked — exactly the silent-corruption vector the verifier
exists to close.  ``DeltaRule(...)`` construction and assignments to a
``.rules`` attribute (including ``object.__setattr__(plan, "rules",
...)`` on the frozen dataclass) are banned everywhere except
``repro/semantics/planner.py`` (the one compiler) and verifier test
fixtures (files with ``verify`` in their name, which deliberately build
broken rules for the verifier to refute).

**REPRO008 — batch hot loops read no per-row ambient state.**  The
columnar apply path exists to amortise per-statement overheads across a
batch, so re-introducing a per-row cost inside its loops silently undoes
the optimisation: reading the clock (``<anything>.now``) or resolving a
plan/delta rule through an attribute call (``<obj>.rule_for(...)``,
``<obj>.replay_kind(...)``, ``<obj>.plan_view(...)``) is banned
inside **any** loop under ``repro/columnar/``, and inside the
**per-row** loops (loops nested two deep or more) of the integrators'
batched-apply paths (``warehouse/opdelta_integrator.py``,
``warehouse/value_integrator.py``).  Hoist the read before the loop —
``now = clock.now`` once per batch, or a closure bound before the loop
(a bare-name call is not flagged).  Outer per-component/per-transaction
loops may still read the clock: per-group timing is part of the reporting
contract.

**REPRO009 — observability state is read through the system catalog.**
The ``sys.*`` system catalog (:mod:`repro.obs.introspect`) is the
supported read surface over observability stores; code outside
``repro/obs/`` that reaches into a store's private collections
(``log._events``, ``store._series``, ``ring._samples``, ...) couples
itself to ring-buffer internals the stores are free to reorganise, and
bypasses the snapshot/zero-cost guarantees the catalog enforces.  Use
the stores' public accessors (``EventLog.counts`` / iteration,
``RingSeries.window()``, ``MetricsRegistry.instruments()``) or query
the catalog.  Accesses through ``self``/``cls`` stay legal — a class
may of course manage its own private state.

**REPRO010 — one evaluator, compiled before the loop.**  SQL expressions
have one meaning, defined in ``repro/sql/expressions.py``: a compiler that
walks the AST once and returns a kernel.  Two things undo that.  (a) A call
to ``evaluate(...)`` or to an expression-compile entry point
(``compile_expression``, ``compile_predicate``, ``compile_insert_rows``,
``compile_after_image``) inside a ``for``/``while``/comprehension that
compiles the *same* expression on every pass — the expression argument
names nothing the loop varies — pays the AST walk per row; compile before
the loop and call the kernel inside it.  A loop over the expressions
themselves (``for a in stmt.assignments: compile_expression(a.expr, ...)``)
compiles each one once and stays legal.  (b) Raising one of the
evaluator's interior-node diagnostics (``"LIKE requires a string"``,
``"division by zero"``, ...) from any other module is a second definition
of what an expression means.  The evaluator module itself is exempt from
both.

**REPRO011 — the record format lives in one place.**  How a row becomes
bytes is decided once per schema, by the codec ``repro/engine/rows.py``
compiles from the format fragment each datatype in ``repro/engine/types.py``
contributes (``repro/engine/page.py`` packs its own slot header).  (a) Any
other module that imports ``struct`` or calls ``struct.<anything>(...)`` is
laying out bytes on its own — a second definition of the format that WAL
records, page images, dump files and state digests would have to agree
with.  (b) A ``.datatype.decode(...)`` / ``.datatype.encode(...)`` call
inside a ``for``/``while``/comprehension is the per-field record loop the
compiled codec replaced (one Python-level call and one slice per column
per row), and is flagged in every module: convert whole records with
``decode_row``/``encode_row``, or a column subset with
``schema.codec.decoder(positions)``.  The single-value
``DataType.encode``/``decode`` API itself stays, for one value at a time.

**REPRO012 — one write path.**  Row DML and batch DML are the same
mutation, and a hybrid Op-Delta maintains a view as the value delta it
derives; both equalities hold because each piece of the write path is
written once, and a second copy is how they were lost before.  So the
copies are counted: in ``repro/engine/table.py`` each of
``LogRecordKind.INSERT`` / ``UPDATE`` / ``DELETE`` is named once (the
per-row core of that mutation, which row and batch entries share) and
``register_undo(`` is called three times (one undo per core); a row is
admitted by ``admit(`` in two places (the insert and update cores), with
no ``validate_values(`` / ``encode_row(`` / ``encode(`` call (the timestamp
stamp is patched into the admitted record); the DBMS Loader in
``repro/engine/utilities.py`` admits its rows too, with no
``validate_values(`` / ``encode_row(`` call; in
``repro/warehouse/views.py`` ``_delete_by_key(`` has one call site and in
``repro/warehouse/aggregates.py`` ``_remove_row(`` is called from one
routine (the row-image routine both maintenance paths feed); and
``compile_after_image(`` is called only by the derivation function in
``repro/core/opdelta.py`` (and the evaluator that defines it).  Every
occurrence past the budget is flagged: extend the shared routine instead
of restating it.

**REPRO013 — one access-path chooser.**  Whether a statement reads a table
through an index or by scanning it is decided in one place,
``choose_path`` in ``repro/sql/planner.py``, for the executor and the
columnar applier alike; a module that probes ``index_on(`` on its own, or
transposes a table with ``ColumnBatch.from_table(`` on its own, is a second
chooser whose plans, costs and diagnostics nobody compares with the first.
So the call sites are counted: ``index_on(`` is called once by the chooser
and once by ``repro/engine/table.py`` (``Table.lookup``, which the host
benchmark's per-layer probe times); the warehouse's view-key and
dimension-key look-ups ask the chooser like any other reader.
``from_table(`` is called once, by ``repro/columnar/apply.py`` (the image a
statement without an index path needs).  Anywhere else, and past those
budgets, the call is flagged.

**REPRO014 — ``sys.*`` is read where it lives.**  A catalog query reads the
observability stores in place, through the read contract of
``repro/sql/source.py``; it used to copy every referenced store into a
throwaway engine ``Database`` per query, through a fixed-width codec that
cut and re-encoded the text.  So under ``repro/obs/`` a ``Database(``
construction is allowed only in ``introspect/meta.py`` (the one documented
place the obs layer drives the engine), and ``introspect/catalog.py`` /
``introspect/tables.py`` call none of ``create_table(``, ``insert_many(``,
``begin(``, ``commit(`` — the calls a copy would need.

**REPRO015 — one pipeline assembly.**  Transport moves the window it is
given; what is *in* the window is decided by plain calls the pipeline makes
first — ``route_window(``, ``prune_window(`` / ``prune_transaction(``,
``compact_window(``, ``verify_compaction(`` — each returning its result and
settling the ops it drops.  Transport once carried a second assembly of
those calls behind seven off-by-default options and five structural
``Protocol`` stand-ins, which no shipped pipeline used.  So under
``repro/transport/`` no class derives from ``Protocol`` and none of those
five transforms is called.  And the drills under ``repro/bench/`` build the
flight-recorded stack once: ``FlightRecorder(`` and ``SLOEngine(`` are
constructed in ``bench/flight.py`` only (``WindowedPipeline``) — a second
construction site is the capture → queue → apply stanza copied again.

**REPRO016 — text becomes code in one place.**  The expression compiler
emits Python source and instantiates it; what makes that safe is that the
source is a function of the expression's *shape* alone — every literal,
pattern, key and message reaches the code as a parameter of its factory —
and that it is instantiated once per shape, behind one memo.  So the
builtins ``eval(``, ``exec(`` and ``compile(`` (called by that bare name;
``re.compile`` is something else) are called nowhere under ``src/repro``
except **once**, in ``repro/sql/expressions.py``, inside the function the
``lru_cache`` decorates, and that call's first argument is a plain name:
the source arrives from the emitter whole, never assembled or spliced at
the call site.  Any other call — another module, a second call, one outside
the memoised function, one whose first argument is an expression — is
flagged.

**REPRO017 — a row id is asked for only to be used.**  ``Table.scan`` builds
a ``RowId`` per row and resumes a generator per row so that its consumer may
charge the clock, or stop, between two rows; a comprehension or generator
expression that binds the row id to an underscore name
(``[v for _rid, v in t.scan()]``) pays for both and uses neither.  The
values-only read, ``Table.scan_values``, charges a page at a time and builds
no row id.  So every such clause over a ``.scan(`` call is flagged — except,
counted per module, where what consumes the generator charges the *same*
clock between two rows (the initial loads of the ``freshness`` and
``aggregate_views`` experiments into a warehouse on the source's clock):
page-granular charging would reorder those additions, and virtual time is
compared to the bit.  A ``for`` statement is where such a consumer writes
its loop and is not flagged.  A dump that charges per record scanned
(``take_snapshot``, ``ascii_dump_table``) reads ``Table.scan_pages`` and
charges its cycle a page at a time.

**REPRO018 — the warehouse binds its statements, it does not build them.**
A statement built as a tree has no template, so the executor runs every
per-shape builder for it — columns read, sargable conjuncts, an emitter
compile — every time; the value integrator once issued ~600 such statements
per maintenance window.  The fixed repertoire of program-built DML goes
through a template instead: ``TEMPLATES.prepared(key, cells, build)`` for a
statement the program writes (``build`` is run once per shape),
``reshaped(statement, scope, key, rewrite)`` / ``template.rewritten(rewrite)``
for one it rewrites.  So under ``repro/warehouse/`` an ``InsertStmt(`` /
``UpdateStmt(`` / ``DeleteStmt(`` construction is flagged unless it stands
inside such a builder — a ``lambda`` or a function of the module passed to
``prepared(`` / ``reshaped(`` / ``rewritten(`` — except, counted per module,
for the statement that has as many shapes as its input has lengths: the
``IN``-list DELETE of a multi-row volatile fallback
(``opdelta_integrator.py``), one.  And a prepared statement *runs* from its
values (``Session.execute_prepared``): binding its tree (``.bind(``) is paid
per statement, so it is counted too — the "found no row to delete" error
of ``value_integrator.py`` and the single-key volatile fallback of
``opdelta_integrator.py``, one each, and none anywhere else in the
warehouse, so that a per-record tree cannot come back unnoticed.

**REPRO019 — a node's children are declared once.**  What lies below an
expression node is derived from the node dataclasses' own field types in
``repro/sql/ast_nodes.py`` (``children`` / ``walk`` / ``rewrite`` /
``expressions`` / ``map_expressions``); a hand-written switch over the node
classes is a second copy of that declaration, and the copies drifted — the
transformer had no ``FuncCall`` arm, so no captured statement calling a
scalar function could be applied anywhere.  So a top-level function or
method whose ``isinstance`` tests (its nested functions' included) name four
or more distinct expression-node classes is flagged outside ``ast_nodes.py``
— except the switches that give each node its *meaning*, listed with their
reasons in ``SEMANTIC_SWITCHES``: what a node evaluates to, what type it
has, what it constrains.  A traversal never needs more than the one or two
classes it acts on.

**REPRO020 — page state is written by the page.**  A heap page keeps the
rows each page decoder made of it, stamped with its write count, and hands
them out again until the count moves (``Page.decoded``); every ``Page``
mutator bumps the count.  A write to the slot array, the count or the kept
decode from anywhere else would leave a stale decode that every later read
is handed.  So outside ``repro/engine/page.py`` an assignment, augmented
assignment, subscript store or ``del`` whose target is ``._slots``,
``._writes`` or ``._decoded`` (or an item of one) is flagged, with no budget:
change a page through its methods.

**REPRO021 — one judge of op reordering.**  Whether two captured ops
commute is proved by ``commutes``, once per pair, by the ``CommutationRecord``
in ``repro/analysis/conflict.py``: the analyzer makes one per window, under
its own catalogs, and the conflict graph, the schedule certifier, the
interference sanitizer and the coalescer each read one.  The certifier once
re-proved every pair the graph had just proved, and the sanitizer and the
coalescer proved theirs with catalogs copied by hand — the sanitizer without
the view catalog, so it passed a schedule the certifier rejected.  A record
proves any op on first read, the pinned copy an apply observes included.  So
there is one call site, the record's cell in ``analysis/conflict.py``, and
none anywhere else.

**REPRO022 — a public name in ``src/repro`` is reached by a program.**  The
code reproduces the paper only where an experiment or an example reaches
it; a function only a test calls is surface every refactor carries and no
result depends on.  So every public function, method and property of
``src/repro`` must be named by a *program*: the package itself, ``examples/``
or ``benchmarks/``.  A module names an identifier through a ``Name``, an
``Attribute``, an import alias, or a string a program resolves as a name:
the name ``getattr(`` is given, or a ``ReportPass``'s ``runner=``.  Any other
string (a docstring, a message, an event name), ``__all__`` lists, the
import re-exports of an ``__init__.py`` and a function's references to
itself do not count.  The exceptions are listed with their reasons in
``REACH_EXEMPTIONS``; an exemption whose name has since gained a caller, or
no longer exists, is flagged as stale.  The rule is whole-tree:
it runs when the linted path is a ``src/repro`` package, against the
repository around it.

**REPRO023 — a setting in ``src/repro`` is set by a program.**  What REPRO022
asks of names it asks of parameters: a defaulted parameter of a public
function, method or constructor of ``src/repro`` that no program passes is a
constant written as an option, and doubles the configurations every refactor
has to keep working.  The same programs count, and calls are matched by the
called name: a keyword argument passes its parameter, a positional argument
passes the parameter at its index (``self``/``cls`` aside), and a ``*args`` /
``**kwargs`` spread passes every parameter it could reach.  ``cls(...)`` inside
a classmethod calls its class, a class without an ``__init__`` of its own is
constructed through its base's, ``super().__init__(...)`` calls the bases', a
function handed to a call as its first argument is called with the rest
(``partial(f, x=...)``, a harness's ``run_experiment(f, x=...)``), and a call
through a bare name that a keyword of the same module binds to function names
(the CLI's ``runner(fault=...)`` for ``runner="run_health"``) calls each of
them.  The exceptions are listed in ``SETTING_EXEMPTIONS``, each with one
reason from ``SETTING_REASONS``; an exemption whose parameter no longer
exists, that a program sets now, or whose reason is not on that list is
flagged as stale.  Whole-tree, like REPRO022.

**REPRO024 — one replay judge.**  Whether a view replays a captured op by
rewriting it onto the view, from the op's before image, or not at all is
decided by one function, ``_replay`` in ``repro/core/selfmaint.py``, with two
callers: ``replay_kind``, once per statement shape and view, beside it, and
the planner's per-kind widening in ``repro/semantics/planner.py``.  Apply
once read the plan's rule first and the per-statement judge second, and a
static rule that forced a rewrite the judge would have refused crashed
apply.  So ``_replay(`` is called once in each of those two modules and
nowhere else, and a rule's ``.needs_before_image`` is read only where a
capture is decided or a plan is shown (``IMAGE_CHOICE_BUDGETS``): never in
``repro/warehouse/`` or ``repro/columnar/``, which ask ``replay_kind``.  Nor
do those two look a rule up: no ``.rule_for(`` call under them
(``RULE_FREE_TREES``) — apply once resolved a rule per (view, op) and did
nothing with it but count.

Usage::

    python tools/lint_rules.py            # lint src/repro
    python tools/lint_rules.py PATH ...   # lint specific files/trees

Exit status is 1 when any violation is found (CI fails).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

#: Dotted call targets that read the wall clock or ambient randomness.
BANNED_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "time.strftime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.gauss",
    "random.getrandbits",
    "random.seed",
}

#: Files allowed to touch the wall clock (path suffixes, ``/``-separated).
CLOCK_EXEMPT_SUFFIXES = ("repro/clock.py",)

#: The one module allowed to parse ``statement_text`` directly (path
#: suffixes, ``/``-separated): it implements the shared parse cache.
PARSE_EXEMPT_SUFFIXES = ("repro/core/opdelta.py",)

#: Path fragment marking the flight-recorder package (REPRO005).
FLIGHT_PATH_FRAGMENT = "repro/obs/flight/"

#: Call targets banned inside flight modules: clock construction and
#: ambient observability context (time must arrive as arguments).
FLIGHT_BANNED_CALLS = frozenset(
    {
        "VirtualClock",
        "Clock",
        "ambient_metrics",
        "ambient_tracer",
        "ambient_pipeline",
    }
)

#: Path fragment marking the warehouse package (REPRO006).
WAREHOUSE_PATH_FRAGMENT = "repro/warehouse/"

#: Attribute-call methods that mutate warehouse state (REPRO006).
MUTATION_METHODS = frozenset(
    {"insert", "update", "delete", "execute_statement"}
)

#: Certified commit paths allowed to mutate warehouse state directly
#: (path suffixes, ``/``-separated): the two integrators plus the
#: view/aggregate maintenance plans they drive.
MUTATION_EXEMPT_SUFFIXES = (
    "warehouse/opdelta_integrator.py",
    "warehouse/value_integrator.py",
    "warehouse/views.py",
    "warehouse/aggregates.py",
)

#: Transaction-control methods (REPRO006): in the integrator modules
#: (:data:`BATCH_APPLY_SUFFIXES`) these may only be called from the one
#: transactional-unit function.
TXN_CONTROL_METHODS = frozenset({"begin", "commit", "rollback"})
TRANSACTIONAL_UNIT_FUNCTION = "transactional_unit"

#: The one module allowed to construct delta rules (REPRO007).
DELTA_RULE_EXEMPT_SUFFIXES = ("semantics/planner.py",)

#: Path fragment marking the columnar hot path (REPRO008): every loop
#: in the package is a batch loop, so the ban applies at depth 1.
COLUMNAR_PATH_FRAGMENT = "repro/columnar/"

#: Batched-apply integrators (REPRO008, path suffixes): only loops
#: nested two deep or more are per-row there — the outer loops iterate
#: components/transactions, whose per-group clock reads are the
#: reporting contract.
BATCH_APPLY_SUFFIXES = (
    "warehouse/opdelta_integrator.py",
    "warehouse/value_integrator.py",
)

#: Attribute-call methods that resolve plans/delta rules (REPRO008).
#: A bare-name call is a closure bound before the loop and legal.
RESOLUTION_METHODS = frozenset(
    {"rule_for", "replay_kind", "plan_view", "plan_catalog"}
)

#: Path fragment marking the observability package (REPRO009): inside
#: it, stores may touch each other's internals; outside, reads go
#: through public accessors or the system catalog.
OBS_PATH_FRAGMENT = "repro/obs/"

#: Private collections of the observability stores (REPRO009): the
#: event log's ring, the time-series rings and their samples, the
#: metrics registry's instrument map, the SLO engine's alert state and
#: the cost ledger's row map.
OBS_PRIVATE_ATTRS = frozenset(
    {
        "_events",
        "_series",
        "_samples",
        "_instruments",
        "_firing",
        "_queues",
        "_lag_seen",
    }
)

#: The one module that defines what a SQL expression means (REPRO010).
EVALUATOR_EXEMPT_SUFFIXES = ("repro/sql/expressions.py",)

#: Entry points that walk an expression AST (REPRO010); their first
#: argument is the expression (or the statement that holds it).
EVALUATOR_ENTRY_POINTS = frozenset(
    {
        "evaluate",
        "compile_expression",
        "compile_predicate",
        "compile_insert_rows",
        "compile_after_image",
    }
)

#: Modules through which the entry points may be spelled ``module.name``;
#: any other ``<object>.evaluate(...)`` is some other object's method.
EVALUATOR_MODULES = frozenset({"expressions", "kernels"})

#: Interior-node diagnostics of the evaluator (REPRO010): raising one of
#: these anywhere else re-implements the node.
EVALUATOR_ERROR_FRAGMENTS = (
    "LIKE requires a string",
    "unary minus requires a number",
    "requires numbers, got",
    "division by zero",
    "expected a boolean condition",
)

#: The modules that lay out bytes with ``struct`` (REPRO011): the datatype
#: fragments, the record codec compiled from them, the page slot header.
RECORD_FORMAT_SUFFIXES = (
    "repro/engine/types.py",
    "repro/engine/rows.py",
    "repro/engine/page.py",
)

#: Registry methods whose first argument is a metric name.
#: REPRO012: where each piece of the write path is written once.
TABLE_SUFFIX = "repro/engine/table.py"
LOADER_SUFFIX = "repro/engine/utilities.py"
SPJ_VIEW_SUFFIX = "repro/warehouse/views.py"
AGGREGATE_VIEW_SUFFIX = "repro/warehouse/aggregates.py"
#: The modules that may call ``compile_after_image`` (REPRO012): the
#: evaluator that defines it and the one Op-Delta → row-image derivation.
AFTER_IMAGE_SUFFIXES = ("repro/sql/expressions.py", "repro/core/opdelta.py")

#: REPRO013: module suffix -> how many ``index_on(`` / ``from_table(``
#: calls it may make; every other module may make none.
INDEX_PROBE_BUDGETS = {"repro/sql/planner.py": 1, TABLE_SUFFIX: 1}
TABLE_IMAGE_BUDGETS = {"repro/columnar/apply.py": 1}

#: REPRO014: the one module under ``repro/obs/`` that may construct an
#: engine ``Database``; the catalog modules, and the calls that would copy
#: a store into one.
OBS_ENGINE_SUFFIX = "repro/obs/introspect/meta.py"
CATALOG_SUFFIXES = (
    "repro/obs/introspect/catalog.py",
    "repro/obs/introspect/tables.py",
)
COPY_METHODS = ("create_table", "insert_many", "begin", "commit")

#: REPRO015: the window transforms transport must not call, and the one
#: bench module that constructs the flight-recorded stack.
TRANSPORT_PATH_FRAGMENT = "repro/transport/"
WINDOW_TRANSFORMS = (
    "compact_window",
    "prune_transaction",
    "prune_window",
    "verify_compaction",
    "route_window",
)
BENCH_PATH_FRAGMENT = "repro/bench/"
FLIGHT_STACK_SUFFIX = "repro/bench/flight.py"
FLIGHT_STACK_CLASSES = ("FlightRecorder", "SLOEngine")

#: REPRO016: the builtins that turn text into code, and the one module
#: whose memoised factory may call one of them, once.
CODE_BUILTINS = ("eval", "exec", "compile")
EMITTER_SUFFIX = "repro/sql/expressions.py"

#: REPRO017: module suffix -> how many comprehension clauses may discard
#: the row id of a ``.scan(``: the consumer charges the scanned table's
#: clock between rows, so the charge must stay row-granular.
DISCARDED_ROW_ID_BUDGETS = {
    "repro/bench/experiments/freshness.py": 2,
    "repro/bench/experiments/aggregate_views.py": 1,
}

#: REPRO018: the DML node classes, the calls whose function argument is a
#: template builder, and module suffix -> how many statements may be built
#: as one-off trees (as many shapes as the input has lengths).
DML_NODE_CLASSES = ("InsertStmt", "UpdateStmt", "DeleteStmt")
TEMPLATE_BUILDER_CALLS = ("prepared", "reshaped", "rewritten")
ONE_OFF_STATEMENT_BUDGETS = {"repro/warehouse/opdelta_integrator.py": 1}
#: REPRO018: module suffix -> how many ``.bind(`` calls (a tree bound from a
#: template) it may make under ``repro/warehouse/``; every other, none.
BIND_BUDGETS = {
    "repro/warehouse/value_integrator.py": 1,
    "repro/warehouse/opdelta_integrator.py": 1,
}

#: REPRO019: the expression-node classes, the module that declares what
#: lies below each, and (module suffix, function) -> why that function may
#: still switch over them: it says what each node *means*.
EXPRESSION_NODE_CLASSES = (
    "Literal", "ColumnRef", "BinaryOp", "UnaryOp", "InList", "Between", "Like",
    "IsNull", "FuncCall", "Aggregate", "Star",
)
NODE_SWITCH_LIMIT = 4
AST_NODES_SUFFIX = "repro/sql/ast_nodes.py"
SEMANTIC_SWITCHES = {
    ("repro/sql/expressions.py", "_Emitter.emit"):
        "the Python source each node evaluates as",
    ("repro/semantics/checker.py", "SemanticChecker._infer"):
        "the SQL type of each node, and its diagnostics",
    ("repro/analysis/rwsets.py", "_constraint_from_conjunct"):
        "the row range each recognised conjunct shape provably implies",
    ("repro/analysis/safety.py", "conjunct_negations"):
        "the exact three-valued negation each conjunct shape has",
    ("repro/analysis/verify/domain.py", "_boundary_literals"):
        "which comparisons of a view predicate contribute boundary values: "
        "those under AND/OR/NOT only, so the walk's reach is narrower than "
        "the tree and widening it would change every certified domain",
}

#: REPRO020: the page's state behind its kept decode — slot array, write
#: count, kept entries — and the one module that may write it.
PAGE_STATE_ATTRS = ("_slots", "_writes", "_decoded")
PAGE_SUFFIX = "repro/engine/page.py"

#: REPRO021: module suffix -> how many ``commutes(`` calls it may make;
#: every other module may make none.
COMMUTES_BUDGETS = {"repro/analysis/conflict.py": 1}

#: REPRO024: module suffix -> how many ``_replay(`` calls it may make, and
#: module suffix -> how many ``.needs_before_image`` reads; every other
#: module may make none.  No module under a ``RULE_FREE_TREES`` path calls
#: ``.rule_for(``.
REPLAY_BUDGETS = {"repro/core/selfmaint.py": 1, "repro/semantics/planner.py": 1}
RULE_FREE_TREES = ("repro/warehouse/", "repro/columnar/")
IMAGE_CHOICE_BUDGETS = {
    # The rule's own dict, the capture policy, and the plan's class.
    "repro/semantics/planner.py": 3,
    # The image a verifier scenario captures.
    "repro/analysis/verify/verifier.py": 1,
    # The rule digest a certificate names, and the --check plan dump.
    "repro/analysis/verify/certificate.py": 1,
    "repro/bench/check.py": 1,
}

#: REPRO022: the trees besides the package whose references count, and
#: qualified name -> why a public name no program reaches stays.
PROGRAM_TREES = ("examples", "benchmarks")
REACH_EXEMPTIONS = {
    "repro.sql.expressions.apply_scalar_function":
        "called by name from the source the expression compiler emits",
    "repro.sql.expressions.emitted_source":
        "the injection-safety test seam: the source compile_expression "
        "instantiates, which tests read for literals spliced into code",
    "repro.transport.queue.PersistentQueue.nack":
        "the redelivery path the fault matrix (ROADMAP item 2) drives",
    "repro.transport.queue.PersistentQueue.recover":
        "the consumer-crash recovery path the fault matrix (ROADMAP item 2) "
        "drives",
    "repro.core.stores.FileLogStore.uncommitted_garbage":
        "what file-log recovery leaves behind, which the fault matrix "
        "(ROADMAP item 2) checks after a torn write",
}

#: REPRO023: why a defaulted parameter no program passes may stay — the
#: closed list — and ``module.callable(parameter=)`` -> its reason.
SHRINKS_A_RUN = "it shrinks a run for tier-1"
FAKE_OR_FAULT = "it substitutes a fake or a planted fault"
OUTPUT_STREAM = "it is an output-stream seam"
SCHEMA_TRANSFORMATION = "it is the schema transformation of paper §4.1"
FAULT_MATRIX = "the fault matrix (ROADMAP item 2) will drive it"
SETTING_REASONS = (
    SHRINKS_A_RUN, FAKE_OR_FAULT, OUTPUT_STREAM, SCHEMA_TRANSFORMATION,
    FAULT_MATRIX,
)
SETTING_EXEMPTIONS = {
    # The experiment knobs the smoke tests shrink.
    **dict.fromkeys(
        (
            "repro.bench.experiments.aggregate_views.run(fractions=)",
            "repro.bench.experiments.capture_levels.run(op_rows=)",
            "repro.bench.experiments.fig2.run(sizes=)",
            "repro.bench.experiments.fig3.run(sizes=)",
            "repro.bench.experiments.freshness.run(periods=)",
            "repro.bench.experiments.freshness.run(transactions=)",
            "repro.bench.experiments.freshness.run(txn_rows=)",
            "repro.bench.experiments.maintenance_window.run(sizes=)",
            "repro.bench.experiments.online_maintenance.run(transactions=)",
            "repro.bench.experiments.online_maintenance.run(txn_rows=)",
            "repro.bench.experiments.remote_trigger.run(sizes=)",
            "repro.bench.experiments.semantics.run(transactions=)",
            "repro.bench.experiments.semantics.run(txn_rows=)",
            "repro.bench.experiments.sensitivity.run(txn_rows=)",
            "repro.bench.experiments.snapshot_algorithms.run(churn_rows=)",
            "repro.bench.experiments.table4.run(sizes=)",
            "repro.bench.experiments.timestamp_index.run(fractions=)",
        ),
        SHRINKS_A_RUN,
    ),
    "repro.analysis.verify.verifier.DeltaRuleVerifier(view_factory=)":
        FAKE_OR_FAULT,
    "repro.bench.check.run_check(out=)": OUTPUT_STREAM,
    "repro.warehouse.opdelta_integrator.OpDeltaIntegrator(transformer=)":
        SCHEMA_TRANSFORMATION,
    # The fault matrix's "analyzer blind to a view" cell tells an analyzer
    # of some views, aggregate ones among them, and not of others.
    "repro.analysis.analyzer.OpDeltaAnalyzer(aggregate_views=)": FAULT_MATRIX,
}

METRIC_METHODS = ("counter", "gauge", "histogram")

#: ``<subsystem>.<object>.<event>``: >= 3 snake_case dot segments.
METRIC_NAME_PATTERN = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+){2,}$")

#: Valid metric-name first segments: one per instrumented subsystem.
KNOWN_SUBSYSTEMS = frozenset(
    {
        "analysis",
        "capture",
        "compaction",
        "core",
        "engine",
        "extract",
        "obs",
        "transport",
        "warehouse",
    }
)


def dotted_name(node: ast.AST) -> str | None:
    """Flatten ``a.b.c`` attribute chains to a dotted string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_bulk_internal(node: ast.Call) -> bool:
    """Whether a call passes ``mode=<...>.BULK_INTERNAL`` explicitly."""
    for keyword in node.keywords:
        if keyword.arg != "mode":
            continue
        value = dotted_name(keyword.value)
        if value is not None and value.rsplit(".", 1)[-1] == "BULK_INTERNAL":
            return True
    return False


#: Exception names whose do-nothing handlers REPRO003 flags.
BROAD_EXCEPTIONS = ("Exception", "BaseException")


def _is_noop_body(body: list[ast.stmt]) -> bool:
    """Whether a handler body only ``pass``es (or is a lone ``...``)."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ) and statement.value.value is Ellipsis:
            continue
        return False
    return True


def _check_handler(path: Path, handler: ast.ExceptHandler) -> str | None:
    if handler.type is None:
        return (
            f"{path}:{handler.lineno}: REPRO003 bare 'except:' swallows "
            "every error including KeyboardInterrupt; catch a typed error "
            "from repro.errors instead"
        )
    name = dotted_name(handler.type)
    if name is None:
        return None
    # `builtins.Exception` is still Exception: match the last segment.
    if name.rsplit(".", 1)[-1] in BROAD_EXCEPTIONS and _is_noop_body(handler.body):
        return (
            f"{path}:{handler.lineno}: REPRO003 'except {name}: pass' "
            "silently discards failures; catch the narrowest repro.errors "
            "type, or handle the exception"
        )
    return None


def _hot_loop_violations(
    path: Path, tree: ast.AST, min_depth: int
) -> list[str]:
    """REPRO008: flag per-row ambient reads inside batch hot loops.

    Walks the tree tracking loop nesting depth (closures defined inside
    a loop inherit its depth — they run per iteration).  At or beyond
    ``min_depth``, an attribute read of ``.now`` or an attribute call to
    a plan/rule-resolution method is a violation.
    """
    violations: list[str] = []

    def flag(node: ast.AST) -> None:
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr == "now"
                and isinstance(inner.ctx, ast.Load)
            ):
                violations.append(
                    f"{path}:{inner.lineno}: REPRO008 per-row clock read "
                    "('.now') inside a batch hot loop; hoist it — read the "
                    "clock once per batch and reuse the value"
                )
            elif (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in RESOLUTION_METHODS
            ):
                violations.append(
                    f"{path}:{inner.lineno}: REPRO008 per-row plan/rule "
                    f"resolution ('.{inner.func.attr}()') inside a batch "
                    "hot loop; resolve once per batch (or through a "
                    "memoised closure) before the loop"
                )

    def visit(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.While)):
                if depth + 1 >= min_depth:
                    # The loop body runs per row; a ``for`` iterable
                    # evaluates once and stays legal, a ``while`` test
                    # re-evaluates each pass and does not.
                    if isinstance(child, ast.While):
                        flag(child.test)
                    for statement in [*child.body, *child.orelse]:
                        flag(statement)
                else:
                    visit(child, depth + 1)
            else:
                visit(child, depth)

    visit(tree, 0)
    return violations


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _names(node: ast.AST | None) -> set[str]:
    if node is None:
        return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _loop_variant_names(loop: ast.AST) -> set[str]:
    """Names whose value can differ between two passes of ``loop``.

    The loop's own targets, then — to a fixed point — whatever its body
    assigns from, or iterates over, something already variant.
    """
    if isinstance(loop, ast.For):
        variant = _names(loop.target)
    elif isinstance(loop, ast.While):
        variant = set()
    else:
        variant = _names(loop.generators[0].target)  # type: ignore[attr-defined]
    grew = True
    while grew:
        grew = False
        for node in ast.walk(loop):
            if isinstance(node, ast.Assign):
                source, targets = node.value, node.targets
            elif isinstance(node, (ast.For, ast.comprehension)):
                source, targets = node.iter, [node.target]
            else:
                continue
            bound = {
                n.id
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
            if not bound <= variant and _names(source) & variant:
                variant |= bound
                grew = True
    return variant


def _evaluator_violations(path: Path, tree: ast.AST) -> list[str]:
    """REPRO010: loop-invariant expression compiles, and second definitions."""
    violations: list[str] = []

    def visit(node: ast.AST, loops: list[set[str]]) -> None:
        if isinstance(node, ast.Call):
            name = dotted_name(node.func) or ""
            module, _, method = name.rpartition(".")
            subject = node.args[0] if node.args else None
            if (
                method in EVALUATOR_ENTRY_POINTS
                and (not module or module.rsplit(".", 1)[-1] in EVALUATOR_MODULES)
                and subject is not None
                and any(not (_names(subject) & variant) for variant in loops)
            ):
                violations.append(
                    f"{path}:{node.lineno}: REPRO010 {method}() walks the same "
                    "expression on every pass of the enclosing loop; compile "
                    "it once before the loop and call the kernel inside"
                )
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            texts = [
                text.value
                for text in ast.walk(node.exc)
                if isinstance(text, ast.Constant) and isinstance(text.value, str)
            ]
            for fragment in EVALUATOR_ERROR_FRAGMENTS:
                if any(fragment in text for text in texts):
                    violations.append(
                        f"{path}:{node.lineno}: REPRO010 raising {fragment!r} "
                        "re-implements an evaluator node; SQL expressions are "
                        "defined once, in repro/sql/expressions.py"
                    )
        if isinstance(node, _LOOPS):
            # What a loop iterates over is evaluated once, outside it.
            first = (
                node.iter if isinstance(node, ast.For)
                else None if isinstance(node, ast.While)
                else node.generators[0].iter
            )
            inner = [*loops, _loop_variant_names(node)]
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.comprehension):
                    visit(child.iter, loops if child.iter is first else inner)
                    for part in (child.target, *child.ifs):
                        visit(part, inner)
                else:
                    visit(child, loops if child is first else inner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, [])
    return violations


def _record_format_violations(
    path: Path, tree: ast.AST, struct_allowed: bool
) -> list[str]:
    """REPRO011: ``struct`` outside the codec modules; per-field record loops."""
    violations: list[str] = []

    def visit(node: ast.AST, in_loop: bool) -> None:
        if not struct_allowed:
            imported = (
                isinstance(node, ast.Import)
                and any(alias.name == "struct" for alias in node.names)
            ) or (isinstance(node, ast.ImportFrom) and node.module == "struct")
            called = isinstance(node, ast.Call) and (
                dotted_name(node.func) or ""
            ).startswith("struct.")
            if imported or called:
                violations.append(
                    f"{path}:{node.lineno}: REPRO011 'struct' used outside the "
                    "record-format modules; the byte layout of a row is "
                    "defined once, by the codec in repro/engine/rows.py"
                )
        if (
            in_loop
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("decode", "encode")
            and (dotted_name(node.func.value) or "").rsplit(".", 1)[-1] == "datatype"
        ):
            violations.append(
                f"{path}:{node.lineno}: REPRO011 per-field "
                f"'.datatype.{node.func.attr}()' inside a loop re-creates the "
                "record loop the compiled codec replaced; use decode_row/"
                "encode_row or schema.codec.decoder(positions)"
            )
        inside = in_loop or isinstance(node, _LOOPS)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return violations


def _calls_to(nodes: list[ast.AST], method: str) -> list[ast.AST]:
    """The calls among ``nodes`` whose target's last name is ``method``."""
    return [
        node
        for node in nodes
        if isinstance(node, ast.Call)
        and (dotted_name(node.func) or "").rsplit(".", 1)[-1] == method
    ]


def _write_path_violations(path: Path, tree: ast.AST, normalized: str) -> list[str]:
    """REPRO012: occurrences past the budget of a write-path piece."""
    violations: list[str] = []
    nodes = list(ast.walk(tree))

    def over_budget(found: list[ast.AST], budget: int, what: str) -> None:
        for node in sorted(found, key=lambda n: n.lineno)[budget:]:
            violations.append(
                f"{path}:{node.lineno}: REPRO012 {what}; extend the shared "
                "routine instead of restating it"
            )

    def calls_to(method: str) -> list[ast.AST]:
        return _calls_to(nodes, method)

    if normalized.endswith(TABLE_SUFFIX):
        for kind in ("INSERT", "UPDATE", "DELETE"):
            named = [
                node
                for node in nodes
                if isinstance(node, ast.Attribute)
                and node.attr == kind
                and dotted_name(node.value) == "LogRecordKind"
            ]
            over_budget(
                named, 1,
                f"LogRecordKind.{kind} named again: the {kind.lower()} "
                "mutation is written once, in the per-row core the row and "
                "batch entries share",
            )
        over_budget(
            calls_to("register_undo"), 3,
            "a fourth register_undo(): each mutation registers its undo "
            "once, in its per-row core",
        )
        over_budget(
            calls_to("admit"), 2,
            "a third admit(): a row is admitted once, in the insert or the "
            "update core",
        )
        over_budget(
            calls_to("encode"), 0,
            "an encode() after admission: the timestamp stamp is patched "
            "into the admitted record",
        )
    if normalized.endswith((TABLE_SUFFIX, LOADER_SUFFIX)):
        over_budget(
            calls_to("validate_values") + calls_to("encode_row"), 0,
            "validate-then-encode restated: a written row goes through "
            "TableSchema.admit(), one pass per row",
        )
    if normalized.endswith(SPJ_VIEW_SUFFIX):
        over_budget(
            calls_to("_delete_by_key"), 1,
            "a second _delete_by_key() call site: row images reach the view "
            "storage through the one row-image routine",
        )
    if normalized.endswith(AGGREGATE_VIEW_SUFFIX):
        removals = {id(call) for call in calls_to("_remove_row")}
        routines = [
            function
            for function in nodes
            if isinstance(function, ast.FunctionDef)
            and any(id(inner) in removals for inner in ast.walk(function))
        ]
        over_budget(
            routines, 1,
            "_remove_row() called from a second routine: row images reach "
            "the groups through the one row-image routine",
        )
    if not normalized.endswith(AFTER_IMAGE_SUFFIXES):
        over_budget(
            calls_to("compile_after_image"), 0,
            "compile_after_image() outside repro/core/opdelta.py: the after "
            "image of a hybrid Op-Delta is derived by derive_row_images()",
        )
    return violations


def _access_path_violations(path: Path, tree: ast.AST, normalized: str) -> list[str]:
    """REPRO013: ``index_on(`` / ``from_table(`` calls past a module's budget."""
    violations: list[str] = []
    nodes = list(ast.walk(tree))
    for method, budgets, advice in (
        ("index_on", INDEX_PROBE_BUDGETS,
         "ask repro.sql.planner.choose_path for the access path"),
        ("from_table", TABLE_IMAGE_BUDGETS,
         "the columnar applier builds the one table image a component needs"),
    ):
        budget = next(
            (n for suffix, n in budgets.items() if normalized.endswith(suffix)), 0
        )
        calls = sorted(node.lineno for node in _calls_to(nodes, method))
        violations.extend(
            f"{path}:{lineno}: REPRO013 {method}() called outside the one "
            f"access-path chooser; {advice}"
            for lineno in calls[budget:]
        )
    return violations


def _catalog_copy_violations(path: Path, tree: ast.AST, normalized: str) -> list[str]:
    """REPRO014: an engine ``Database`` built, or driven, by the obs read path."""
    if OBS_PATH_FRAGMENT not in normalized:
        return []
    nodes = list(ast.walk(tree))
    found: list[tuple[int, str]] = []
    if not normalized.endswith(OBS_ENGINE_SUFFIX):
        found.extend(
            (node.lineno, "Database() constructed under repro/obs/ outside "
             "introspect/meta.py")
            for node in _calls_to(nodes, "Database")
        )
    if normalized.endswith(CATALOG_SUFFIXES):
        found.extend(
            (node.lineno, f"{method}() called by the system catalog")
            for method in COPY_METHODS
            for node in _calls_to(nodes, method)
        )
    return [
        f"{path}:{lineno}: REPRO014 {what}; sys.* rows are served in place "
        "through repro.sql.source, not copied into an engine table"
        for lineno, what in sorted(found)
    ]


def _pipeline_assembly_violations(
    path: Path, tree: ast.AST, normalized: str
) -> list[str]:
    """REPRO015: a window transform inside transport, or a second flight stack."""
    nodes = list(ast.walk(tree))
    found: list[tuple[int, str]] = []
    if TRANSPORT_PATH_FRAGMENT in normalized:
        found.extend(
            (node.lineno, f"class {node.name} derives from Protocol under "
             "repro/transport/: transport takes the window, not stand-ins for "
             "what transforms it")
            for node in nodes
            if isinstance(node, ast.ClassDef)
            and any(
                (dotted_name(base) or "").rsplit(".", 1)[-1] == "Protocol"
                for base in node.bases
            )
        )
        found.extend(
            (node.lineno, f"{method}() called under repro/transport/: window "
             "transforms are plain calls the pipeline makes before shipping")
            for method in WINDOW_TRANSFORMS
            for node in _calls_to(nodes, method)
        )
    if BENCH_PATH_FRAGMENT in normalized and not normalized.endswith(
        FLIGHT_STACK_SUFFIX
    ):
        found.extend(
            (node.lineno, f"{name}() constructed under repro/bench/ outside "
             "flight.py: drive bench.flight.WindowedPipeline instead of "
             "assembling the stack again")
            for name in FLIGHT_STACK_CLASSES
            for node in _calls_to(nodes, name)
        )
    return [
        f"{path}:{lineno}: REPRO015 {what}" for lineno, what in sorted(found)
    ]


def _code_instantiation_violations(
    path: Path, tree: ast.AST, normalized: str
) -> list[str]:
    """REPRO016: ``eval``/``exec``/``compile`` outside the one memoised factory."""
    calls = sorted(
        (
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in CODE_BUILTINS
        ),
        key=lambda node: node.lineno,
    )
    memoised: set[int] = set()
    if calls and normalized.endswith(EMITTER_SUFFIX):
        memoised = {
            id(inner)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and any(
                (
                    dotted_name(d.func if isinstance(d, ast.Call) else d) or ""
                ).endswith("lru_cache")
                for d in function.decorator_list
            )
            for inner in ast.walk(function)
        }
    violations: list[str] = []
    allowed = 1
    for node in calls:
        name = node.func.id  # type: ignore[attr-defined]
        if id(node) not in memoised:
            why = (
                "outside the memoised factory of repro/sql/expressions.py, the "
                "one place emitted source is instantiated"
            )
        elif not (node.args and isinstance(node.args[0], ast.Name)):
            why = (
                "on an expression: the source arrives from the emitter as a "
                "plain name and constants through the factory's parameters, "
                "never spliced at the call site"
            )
        elif not allowed:
            why = "a second time: emitted source is instantiated by one call"
        else:
            allowed = 0
            continue
        violations.append(f"{path}:{node.lineno}: REPRO016 {name}() called {why}")
    return violations


def _discarded_row_id_violations(
    path: Path, tree: ast.AST, normalized: str
) -> list[str]:
    """REPRO017: a comprehension over ``.scan(`` that throws the row id away."""
    budget = next(
        (
            n for suffix, n in DISCARDED_ROW_ID_BUDGETS.items()
            if normalized.endswith(suffix)
        ),
        0,
    )
    found = sorted(
        node.iter.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.comprehension)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Attribute)
        and node.iter.func.attr == "scan"
        and isinstance(node.target, ast.Tuple)
        and isinstance(node.target.elts[0], ast.Name)
        and node.target.elts[0].id.startswith("_")
    )
    return [
        f"{path}:{lineno}: REPRO017 the row id of .scan() is discarded; "
        "scan_values() reads the values alone, a page at a time"
        for lineno in found[budget:]
    ]


def _unprepared_statement_violations(
    path: Path, tree: ast.AST, normalized: str
) -> list[str]:
    """REPRO018: warehouse DML built as a tree outside a template builder."""
    if WAREHOUSE_PATH_FRAGMENT not in normalized:
        return []
    def last_name(node: ast.AST) -> str:
        return (dotted_name(node) or "").rpartition(".")[2]

    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    builders: list[ast.AST] = []
    named: set[str] = set()
    for call in calls:
        if last_name(call.func) in TEMPLATE_BUILDER_CALLS:
            for argument in [*call.args, *(k.value for k in call.keywords)]:
                if isinstance(argument, ast.Lambda):
                    builders.append(argument)
                elif name := last_name(argument):
                    named.add(name)
    builders.extend(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in named
    )
    inside = {id(inner) for builder in builders for inner in ast.walk(builder)}
    budget = next(
        (
            n for suffix, n in ONE_OFF_STATEMENT_BUDGETS.items()
            if normalized.endswith(suffix)
        ),
        0,
    )
    found = sorted(
        (call.lineno, last_name(call.func))
        for call in calls
        if last_name(call.func) in DML_NODE_CLASSES and id(call) not in inside
    )
    binds = sorted(
        call.lineno
        for call in calls
        if isinstance(call.func, ast.Attribute) and call.func.attr == "bind"
    )
    bind_budget = next(
        (n for suffix, n in BIND_BUDGETS.items() if normalized.endswith(suffix)), 0
    )
    return [
        f"{path}:{lineno}: REPRO018 {name}() built outside a template builder; "
        "bind it from TEMPLATES.prepared(...) or rewrite it through reshaped(...)"
        for lineno, name in found[budget:]
    ] + [
        f"{path}:{lineno}: REPRO018 .bind() builds a tree per statement; run the "
        "template from its values with Session.execute_prepared(template, rows)"
        for lineno in binds[bind_budget:]
    ]


def _node_switch_violations(
    path: Path, tree: ast.AST, normalized: str
) -> list[str]:
    """REPRO019: a hand-written switch over the expression-node classes."""
    if normalized.endswith(AST_NODES_SUFFIX) or not isinstance(tree, ast.Module):
        return []
    # Top-level functions and methods, each with everything nested in it.
    bodies = [("", tree.body)] + [
        (f"{node.name}.", node.body)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    ]
    violations = []
    for prefix, body in bodies:
        for function in body:
            if not isinstance(function, ast.FunctionDef):
                continue
            name = prefix + function.name
            if any(
                normalized.endswith(suffix) and name == allowed
                for suffix, allowed in SEMANTIC_SWITCHES
            ):
                continue
            tested = {
                (dotted_name(cls) or "").rpartition(".")[2]
                for call in ast.walk(function)
                if isinstance(call, ast.Call)
                and dotted_name(call.func) == "isinstance"
                and len(call.args) == 2
                for cls in getattr(call.args[1], "elts", [call.args[1]])
            }.intersection(EXPRESSION_NODE_CLASSES)
            if len(tested) >= NODE_SWITCH_LIMIT:
                violations.append(
                    f"{path}:{function.lineno}: REPRO019 {name}() switches "
                    f"over {len(tested)} expression-node classes "
                    f"({', '.join(sorted(tested))}); traverse with ast_nodes."
                    "walk / rewrite / map_expressions, or give its reason in "
                    "SEMANTIC_SWITCHES if it says what the nodes mean"
                )
    return violations


def _stored(target: ast.expr) -> list[ast.expr]:
    """The single targets of an assignment or ``del`` target list."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [inner for element in target.elts for inner in _stored(element)]
    if isinstance(target, ast.Starred):
        return _stored(target.value)
    return [target]


def _page_state_violations(path: Path, tree: ast.AST, normalized: str) -> list[str]:
    """REPRO020: a page's slots, write count or kept decode written elsewhere."""
    if normalized.endswith(PAGE_SUFFIX):
        return []
    targets: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets.extend(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
    found = []
    for target in (single for group in targets for single in _stored(group)):
        base = target
        while isinstance(base, ast.Subscript):  # page._slots[i], page._decoded[k]
            base = base.value
        if isinstance(base, ast.Attribute) and base.attr in PAGE_STATE_ATTRS:
            found.append((target.lineno, base.attr))
    return [
        f"{path}:{lineno}: REPRO020 '.{attr}' written outside "
        "repro/engine/page.py; change a page through its own methods, which "
        "bump the write count its kept decode is checked against"
        for lineno, attr in sorted(found)
    ]


def _commutation_violations(path: Path, tree: ast.AST, normalized: str) -> list[str]:
    """REPRO021: ``commutes(`` calls past a module's budget."""
    budget = next(
        (n for suffix, n in COMMUTES_BUDGETS.items() if normalized.endswith(suffix)),
        0,
    )
    calls = sorted(node.lineno for node in _calls_to(list(ast.walk(tree)), "commutes"))
    return [
        f"{path}:{lineno}: REPRO021 commutes() called outside the "
        "commutation record; read the verdict from one the analyzer made "
        "(analyzer.record() or ConflictGraph.record: .commute / .conflict)"
        for lineno in calls[budget:]
    ]


def _replay_judge_violations(path: Path, tree: ast.AST, normalized: str) -> list[str]:
    """REPRO024: ``_replay(`` calls, ``.rule_for(`` calls and
    ``.needs_before_image`` reads past a module's budget."""
    nodes = list(ast.walk(tree))

    def budget(budgets: dict[str, int]) -> int:
        return next(
            (n for suffix, n in budgets.items() if normalized.endswith(suffix)), 0
        )

    calls = sorted(node.lineno for node in _calls_to(nodes, "_replay"))
    lookups = (
        sorted(
            node.lineno
            for node in nodes
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "rule_for"
        )
        if any(tree in normalized for tree in RULE_FREE_TREES)
        else []
    )
    reads = sorted(
        node.lineno
        for node in nodes
        if isinstance(node, ast.Attribute)
        and node.attr == "needs_before_image"
        and isinstance(node.ctx, ast.Load)
    )
    return [
        f"{path}:{lineno}: REPRO024 _replay() called outside replay_kind and "
        "the planner's per-kind widening; ask replay_kind(view, statement)"
        for lineno in calls[budget(REPLAY_BUDGETS):]
    ] + [
        f"{path}:{lineno}: REPRO024 delta rule looked up on the apply path; "
        "apply asks replay_kind(view, statement)"
        for lineno in lookups
    ] + [
        f"{path}:{lineno}: REPRO024 '.needs_before_image' read where no "
        "capture is decided; the apply path is replay_kind(view, statement)'s"
        for lineno in reads[budget(IMAGE_CHOICE_BUDGETS):]
    ]


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _resolved_string(call: ast.Call) -> str:
    """REPRO022: the name a call resolves from a string literal —
    ``getattr(obj, "name")``'s, or ``ReportPass(runner="name")``'s — else
    the empty string."""
    callee = dotted_name(call.func)
    argument: ast.expr | None = None
    if callee == "getattr" and len(call.args) > 1:
        argument = call.args[1]
    elif callee == "ReportPass":
        argument = next((k.value for k in call.keywords if k.arg == "runner"), None)
    if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
        return argument.value
    return ""


def _referenced_names(tree: ast.Module, package_init: bool) -> set[str]:
    """REPRO022: the identifiers a module names (see the rule's docstring)."""
    found: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Call):
            name = _resolved_string(node)
        else:
            name = ""
        if name.isidentifier() and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for statement in tree.body:
        if package_init and isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(statement, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets
        ):
            continue
        visit(statement, frozenset())
    return found


def _public_functions(tree: ast.Module, module: str) -> list[tuple[str, str, int]]:
    """``(qualified name, name, line)`` of each public function and method."""
    found: list[tuple[str, str, int]] = []

    def scan(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            public = not getattr(node, "name", "_").startswith("_")
            if public and isinstance(node, _DEFINITIONS):
                found.append((f"{prefix}{node.name}", node.name, node.lineno))
            elif public and isinstance(node, ast.ClassDef):
                scan(node.body, f"{prefix}{node.name}.")

    scan(tree.body, f"{module}.")
    return found


#: ``(absolute path, st_mtime_ns, st_size)`` -> the file's AST, or the
#: ``SyntaxError`` parsing it raised.  Every rule reads its trees here, so a
#: process parses each file once; no rule may mutate a tree it is given.  A
#: rewrite that keeps the size within one timestamp tick would go unseen: the
#: key assumes nothing writes a file while one process lints it.
_TREES: dict[tuple[Path, int, int], ast.Module | SyntaxError] = {}
#: ``(path as given, st_mtime_ns, st_size)`` -> what :func:`lint_file` found:
#: the walks, not the parse, are most of a rule pass.
_VERDICTS: dict[tuple[str, int, int], list[str]] = {}


def _version(path: Path) -> tuple[int, int]:
    stat = path.stat()
    return stat.st_mtime_ns, stat.st_size


def parse_file(path: Path) -> ast.Module:
    """``path``'s AST, parsed on first read and kept while the file is
    unchanged; raises ``SyntaxError`` when it does not parse."""
    key = (path.absolute(), *_version(path))
    if key not in _TREES:
        try:
            _TREES[key] = ast.parse(
                path.read_text(encoding="utf-8"), filename=str(path)
            )
        except SyntaxError as exc:
            _TREES[key] = exc
    tree = _TREES[key]
    if isinstance(tree, SyntaxError):
        raise tree
    return tree


def _program_trees(root: Path) -> tuple[Path, dict[Path, ast.Module]]:
    """REPRO022/023: the package under ``root`` and every program's AST."""
    package = root / "src" / "repro"
    return package, {
        path: parse_file(path)
        for path in python_files([package, *(root / t for t in PROGRAM_TREES)])
    }


def _package_modules(
    package: Path, trees: dict[Path, ast.Module]
) -> list[tuple[Path, ast.Module, str]]:
    """``(path, tree, dotted module name)`` of each module of ``package``."""
    modules = []
    for path, tree in trees.items():
        if package in path.parents:
            parts = path.relative_to(package.parent).with_suffix("").parts
            modules.append(
                (path, tree, ".".join(parts[:-1] if parts[-1] == "__init__" else parts))
            )
    return modules


def reach_violations(
    root: Path, exemptions: dict[str, str] | None = None
) -> list[str]:
    """REPRO022: public names of ``root/src/repro`` no program names."""
    exemptions = REACH_EXEMPTIONS if exemptions is None else exemptions
    package, trees = _program_trees(root)
    reached: set[str] = set()
    for path, tree in trees.items():
        reached |= _referenced_names(tree, package_init=path.name == "__init__.py")
    violations: list[str] = []
    defined: dict[str, str] = {}
    for path, tree, module in _package_modules(package, trees):
        for qualified, name, lineno in _public_functions(tree, module):
            defined[qualified] = name
            if name not in reached and qualified not in exemptions:
                violations.append(
                    f"{path}:{lineno}: REPRO022 {qualified} is reached by no "
                    "program (src/repro, examples/, benchmarks/); delete it, "
                    "move it into tests/, or give a program a use for it"
                )
    for qualified in sorted(exemptions):
        if qualified not in defined:
            why = "no longer exists"
        elif defined[qualified] in reached:
            why = "has a caller now"
        else:
            continue
        violations.append(
            f"{package}: REPRO022 stale exemption {qualified}: it {why}; "
            "remove it from REACH_EXEMPTIONS"
        )
    return violations


def _decorators(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
) -> set[str]:
    return {
        (dotted_name(d.func if isinstance(d, ast.Call) else d) or "").rpartition(".")[2]
        for d in node.decorator_list
    }


def _base_names(node: ast.ClassDef) -> list[str]:
    return [(dotted_name(base) or "").rpartition(".")[2] for base in node.bases]


#: REPRO023: what one call site passes — positional arguments before any
#: ``*args``, whether there is one, the keywords, whether there is a ``**``.
_Passed = tuple[int, bool, frozenset[str], bool]


def _call_sites(tree: ast.Module) -> list[tuple[str, _Passed]]:
    """REPRO023: ``(called name, what it passes)`` for each call in ``tree``
    (see the rule's docstring for how a name is resolved)."""
    bound: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.keyword)
            and node.arg
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            and node.value.value.isidentifier()
        ):
            bound.setdefault(node.arg, set()).add(node.value.value)
    found: list[tuple[str, _Passed]] = []

    def visit(node: ast.AST, cls: ast.ClassDef | None, classmethod_: bool) -> None:
        if isinstance(node, ast.ClassDef):
            cls, classmethod_ = node, False
        elif isinstance(node, _DEFINITIONS) and cls is not None:
            classmethod_ = "classmethod" in _decorators(node)
        if isinstance(node, ast.Call):
            calls = [(node.func, node.args)]
            if node.args and isinstance(node.args[0], (ast.Name, ast.Attribute)):
                calls.append((node.args[0], node.args[1:]))
            for func, args in calls:
                names: set[str] = set()
                if isinstance(func, ast.Name):
                    if func.id == "cls" and classmethod_ and cls is not None:
                        names = {cls.name}
                    else:
                        names = {func.id, *bound.get(func.id, ())}
                elif isinstance(func, ast.Attribute):
                    super_init = (
                        func.attr == "__init__"
                        and isinstance(func.value, ast.Call)
                        and dotted_name(func.value.func) == "super"
                    )
                    names = (
                        set(_base_names(cls)) if super_init and cls else {func.attr}
                    )
                positional = next(
                    (i for i, a in enumerate(args) if isinstance(a, ast.Starred)),
                    len(args),
                )
                passed = (
                    positional,
                    positional < len(args),
                    frozenset(k.arg for k in node.keywords if k.arg),
                    any(k.arg is None for k in node.keywords),
                )
                found.extend((name, passed) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, classmethod_)

    visit(tree, None, False)
    return found


def _defaulted_parameters(
    tree: ast.Module, module: str
) -> list[tuple[str, str, str, int | None, int]]:
    """REPRO023: ``(qualified callable, called name, parameter, positional
    index or None, line)`` of each defaulted parameter of a public function,
    method or constructor; a constructor is called by its class's name."""
    found: list[tuple[str, str, str, int | None, int]] = []

    def parameters(node: ast.FunctionDef | ast.AsyncFunctionDef, method: bool):
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        if method and "staticmethod" not in _decorators(node):
            positional = positional[1:]
        first_defaulted = len(positional) - len(arguments.defaults)
        for index, argument in enumerate(positional):
            if index >= first_defaulted:
                yield argument.arg, index
        for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if default is not None:
                yield argument.arg, None

    def scan(body: list[ast.stmt], prefix: str, cls: ast.ClassDef | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                scan(node.body, f"{prefix}{node.name}.", node)
            elif not isinstance(node, _DEFINITIONS):
                continue
            elif cls is not None and node.name == "__init__":
                for name, index in parameters(node, method=True):
                    found.append((prefix[:-1], cls.name, name, index, node.lineno))
            elif not node.name.startswith("_"):
                for name, index in parameters(node, method=cls is not None):
                    found.append(
                        (f"{prefix}{node.name}", node.name, name, index, node.lineno)
                    )

    scan(tree.body, f"{module}.", None)
    return found


def setting_violations(
    root: Path, exemptions: dict[str, str] | None = None
) -> list[str]:
    """REPRO023: defaulted parameters in ``root/src/repro`` no program sets."""
    exemptions = SETTING_EXEMPTIONS if exemptions is None else exemptions
    package, trees = _program_trees(root)
    calls: dict[str, list[_Passed]] = {}
    for tree in trees.values():
        for name, passed in _call_sites(tree):
            calls.setdefault(name, []).append(passed)
    # A class with no ``__init__`` of its own is constructed through its
    # base's, so calls by its name reach the base's parameters.
    inherits: dict[str, list[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and "dataclass" not in _decorators(node)
                and not any(
                    isinstance(s, _DEFINITIONS) and s.name == "__init__"
                    for s in node.body
                )
            ):
                for base in _base_names(node):
                    inherits.setdefault(base, []).append(node.name)

    def callers(name: str) -> list[_Passed]:
        sites, seen, pending = [], {name}, [name]
        while pending:
            current = pending.pop()
            sites.extend(calls.get(current, ()))
            fresh = [c for c in inherits.get(current, ()) if c not in seen]
            seen.update(fresh)
            pending.extend(fresh)
        return sites

    violations: list[str] = []
    defined: dict[str, bool] = {}
    for path, tree, module in _package_modules(package, trees):
        for qualified, name, parameter, index, lineno in _defaulted_parameters(
            tree, module
        ):
            key = f"{qualified}({parameter}=)"
            defined[key] = any(
                parameter in keywords
                or spread
                or (index is not None and (index < positional or starred))
                for positional, starred, keywords, spread in callers(name)
            )
            if not defined[key] and key not in exemptions:
                violations.append(
                    f"{path}:{lineno}: REPRO023 {key} is set by no program "
                    "(src/repro, examples/, benchmarks/); inline its default, "
                    "or exempt it with one of SETTING_REASONS"
                )
    for key in sorted(exemptions):
        if key not in defined:
            why = "no longer exists"
        elif defined[key]:
            why = "is set by a program now"
        elif exemptions[key] not in SETTING_REASONS:
            why = "gives no reason from SETTING_REASONS"
        else:
            continue
        violations.append(
            f"{package}: REPRO023 stale exemption {key}: it {why}; "
            "fix or remove it in SETTING_EXEMPTIONS"
        )
    return violations


def lint_file(path: Path) -> list[str]:
    """Every per-file rule's violations in ``path``, found once per version
    of the file: the rules read nothing but its tree and its path."""
    key = (str(path), *_version(path))
    if key not in _VERDICTS:
        _VERDICTS[key] = _lint_file(path)
    return list(_VERDICTS[key])


def _lint_file(path: Path) -> list[str]:
    try:
        tree = parse_file(path)
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno or 0}: REPRO000 file does not parse: {exc.msg}"]

    violations: list[str] = []
    normalized = str(path).replace("\\", "/")
    clock_exempt = normalized.endswith(CLOCK_EXEMPT_SUFFIXES)
    parse_exempt = normalized.endswith(PARSE_EXEMPT_SUFFIXES)
    flight_module = FLIGHT_PATH_FRAGMENT in normalized
    mutation_banned = WAREHOUSE_PATH_FRAGMENT in normalized and not (
        normalized.endswith(MUTATION_EXEMPT_SUFFIXES)
    )
    rule_exempt = normalized.endswith(DELTA_RULE_EXEMPT_SUFFIXES) or (
        "verify" in path.name
    )
    obs_private_banned = OBS_PATH_FRAGMENT not in normalized
    if not normalized.endswith(EVALUATOR_EXEMPT_SUFFIXES):
        violations.extend(_evaluator_violations(path, tree))
    violations.extend(
        _record_format_violations(
            path, tree, normalized.endswith(RECORD_FORMAT_SUFFIXES)
        )
    )
    violations.extend(_write_path_violations(path, tree, normalized))
    violations.extend(_access_path_violations(path, tree, normalized))
    violations.extend(_catalog_copy_violations(path, tree, normalized))
    violations.extend(_pipeline_assembly_violations(path, tree, normalized))
    violations.extend(_code_instantiation_violations(path, tree, normalized))
    violations.extend(_discarded_row_id_violations(path, tree, normalized))
    violations.extend(_unprepared_statement_violations(path, tree, normalized))
    violations.extend(_node_switch_violations(path, tree, normalized))
    violations.extend(_page_state_violations(path, tree, normalized))
    violations.extend(_commutation_violations(path, tree, normalized))
    violations.extend(_replay_judge_violations(path, tree, normalized))

    #: Calls inside the one transactional-unit function (REPRO006); None
    #: outside the integrator modules, where the rule does not apply.
    unit_calls: set[int] | None = None
    if COLUMNAR_PATH_FRAGMENT in normalized:
        violations.extend(_hot_loop_violations(path, tree, min_depth=1))
    elif normalized.endswith(BATCH_APPLY_SUFFIXES):
        violations.extend(_hot_loop_violations(path, tree, min_depth=2))
        unit_calls = {
            id(inner)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and function.name == TRANSACTIONAL_UNIT_FUNCTION
            for inner in ast.walk(function)
        }

    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            violation = _check_handler(path, node)
            if violation is not None:
                violations.append(violation)
            continue
        if not rule_exempt and isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr == "rules":
                    violations.append(
                        f"{path}:{node.lineno}: REPRO007 assigning to "
                        "'.rules' swaps in delta rules no certificate has "
                        "model-checked; compile plans through "
                        "repro.semantics.planner.ViewMaintenancePlanner"
                    )
            continue
        if (
            obs_private_banned
            and isinstance(node, ast.Attribute)
            and node.attr in OBS_PRIVATE_ATTRS
            and not (
                isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
            )
        ):
            violations.append(
                f"{path}:{node.lineno}: REPRO009 access to the private "
                f"obs-store collection '.{node.attr}' outside repro/obs/; "
                "read observability state through the stores' public "
                "accessors or query the sys.* system catalog "
                "(repro.obs.introspect.SystemCatalog)"
            )
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        if not clock_exempt and name in BANNED_CALLS:
            violations.append(
                f"{path}:{node.lineno}: REPRO001 call to {name}() breaks "
                "the virtual-clock discipline; use the database clock or a "
                "seeded random.Random instance"
            )
        method = name.rsplit(".", 1)[-1]
        if not rule_exempt and method == "DeltaRule":
            violations.append(
                f"{path}:{node.lineno}: REPRO007 hand-constructed "
                "DeltaRule bypasses the verifier's certificates; only "
                "repro/semantics/planner.py (and verifier test fixtures) "
                "may build delta rules"
            )
        if (
            not rule_exempt
            and method == "__setattr__"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "rules"
        ):
            violations.append(
                f"{path}:{node.lineno}: REPRO007 __setattr__(..., 'rules') "
                "mutates a frozen plan's delta rules behind the verifier's "
                "back; compile a fresh plan through the planner instead"
            )
        if flight_module and method in FLIGHT_BANNED_CALLS:
            violations.append(
                f"{path}:{node.lineno}: REPRO005 flight modules may not "
                f"call {method}(); time reaches repro/obs/flight/ only as "
                "data (at_ms arguments, span timestamps) — inject the "
                "clock reading at the sampling seam instead"
            )
        if (
            mutation_banned
            and "." in name
            and method in MUTATION_METHODS
            and not _is_bulk_internal(node)
        ):
            violations.append(
                f"{path}:{node.lineno}: REPRO006 direct .{method}() call "
                "mutates warehouse state outside the certified integrator "
                "commit paths; route the change through OpDeltaIntegrator/"
                "ValueDeltaIntegrator (or pass mode=...BULK_INTERNAL for a "
                "pre-delta bulk load)"
            )
        if (
            unit_calls is not None
            and "." in name
            and method in TXN_CONTROL_METHODS
            and id(node) not in unit_calls
        ):
            violations.append(
                f"{path}:{node.lineno}: REPRO006 .{method}() call outside "
                f"{TRANSACTIONAL_UNIT_FUNCTION}(); the integrators have one "
                "commit site — run the statements inside "
                "'with transactional_unit(session, what) as txn:'"
            )
        if not parse_exempt and method == "parse":
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if (
                    isinstance(arg, ast.Attribute)
                    and arg.attr == "statement_text"
                ):
                    violations.append(
                        f"{path}:{node.lineno}: REPRO004 parsing "
                        "'.statement_text' directly binds a second copy of "
                        "a statement the record already carries and skips "
                        "the statement template table's Op-Delta "
                        "accounting; use the OpDelta.statement property"
                    )
                    break
        if (
            method in METRIC_METHODS
            and "." in name
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            metric = node.args[0].value
            if not METRIC_NAME_PATTERN.match(metric):
                violations.append(
                    f"{path}:{node.lineno}: REPRO002 metric name {metric!r} "
                    "does not follow the '<subsystem>.<object>.<event>' "
                    "snake_case dot-namespace convention"
                )
            elif metric.split(".", 1)[0] not in KNOWN_SUBSYSTEMS:
                violations.append(
                    f"{path}:{node.lineno}: REPRO002 metric name {metric!r} "
                    "starts an unknown subsystem namespace; use one of "
                    f"{', '.join(sorted(KNOWN_SUBSYSTEMS))} (or add the new "
                    "subsystem to KNOWN_SUBSYSTEMS in tools/lint_rules.py)"
                )
            elif metric.startswith("obs.") and not metric.startswith(
                "obs.pipeline."
            ):
                violations.append(
                    f"{path}:{node.lineno}: REPRO002 metric name {metric!r} "
                    "is outside the observability layer's own namespace; "
                    "obs metrics must be named 'obs.pipeline.*'"
                )
    return violations


def python_files(targets: list[Path]) -> list[Path]:
    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.suffix == ".py":
            files.append(target)
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files or directories to lint (default: src/repro)",
    )
    args = parser.parse_args(argv)
    targets = args.paths or [Path("src/repro")]

    missing = [t for t in targets if not t.exists()]
    if missing:
        for target in missing:
            print(f"lint_rules: no such path: {target}", file=sys.stderr)
        return 2

    violations: list[str] = []
    checked = 0
    for path in python_files(targets):
        violations.extend(lint_file(path))
        checked += 1
    for target in targets:
        if target.is_dir() and target.parts[-2:] == ("src", "repro"):
            violations.extend(reach_violations(target.parent.parent))
            violations.extend(setting_violations(target.parent.parent))
    for line in violations:
        print(line)
    print(
        f"lint_rules: {checked} files checked, {len(violations)} violations",
        file=sys.stderr,
    )
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
