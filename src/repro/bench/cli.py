"""``repro-bench``: run paper experiments from the command line.

Examples::

    repro-bench --list
    repro-bench table4
    repro-bench all --metrics
    repro-bench table2 --trace trace.json --json results.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import dataclass
from typing import Any

from ..errors import ReproError
from ..obs.context import observe
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from . import report as reports
from .experiments import REGISTRY
from .report import render


# --------------------------------------------------------------- report passes
@dataclass(frozen=True)
class ReportPass:
    """One alternate report mode of the CLI (a ``--health``-style flag).

    This registry is the single source of truth for everything
    flag-shaped about the report passes: argparse registration, the
    mutual-exclusion check, ``--fault`` gating, dispatch and the
    no-arguments usage hint all iterate :data:`REPORT_PASSES` instead of
    repeating the flag list.
    """

    flag: str
    #: Short phrase for the no-arguments usage hint.
    summary: str
    #: Full ``--help`` text.
    help: str
    #: Module of this package whose ``runner`` builds the report
    #: (``to_dict``/``exit_code``); imported only when the pass runs.
    module: str
    runner: str
    #: The :mod:`.report` function that renders it.
    renderer: str
    #: The ``--fault`` choice that requires this pass, if any.
    fault: str | None = None
    #: argparse metavar for value-taking flags; ``None`` = store_true.
    metavar: str | None = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    def active(self, args: argparse.Namespace) -> bool:
        value = getattr(args, self.dest)
        return value is not None and value is not False

    def run(self, args: argparse.Namespace) -> tuple[Any, str]:
        """Run the pass with the CLI values it declares; report and text."""
        module = importlib.import_module(f".{self.module}", __package__)
        runner = getattr(module, self.runner)
        renderer = getattr(reports, self.renderer)
        if self.metavar is not None:
            # A value-taking pass (``--sql``) renders the answer to its
            # value, not the drill that produced it.
            result = runner(getattr(args, self.dest))
            return result, renderer(result.query)
        result = runner() if self.fault is None else runner(fault=args.fault)
        return result, renderer(result)


REPORT_PASSES: tuple[ReportPass, ...] = (
    ReportPass(
        flag="--health",
        summary="audited pipeline-health pass",
        help="run the audited pipeline-health pass instead of experiments: "
        "capture the seed workload through the plain, batched and compacted "
        "pipelines, audit lineage conservation, ordering and state digests, "
        "and print per-view freshness, per-stage lag and the auditor verdict",
        module="health",
        runner="run_health",
        renderer="render_health",
        fault="drop-queue-message",
    ),
    ReportPass(
        flag="--certify",
        summary="schedule-certification pass",
        help="run the schedule-certification pass instead of experiments: "
        "statically prove the seed plain/batched/compacted schedules "
        "serializable, measure the widened commutativity prover's "
        "parallelism delta, and verify state parity and zero sanitizer "
        "overhead",
        module="certify",
        runner="run_certify",
        renderer="render_certify",
        fault="swap-lane-ops",
    ),
    ReportPass(
        flag="--verify-plans",
        summary="delta-rule verification pass",
        help="run the delta-rule verification pass instead of experiments: "
        "model-check every compiled view-maintenance plan in the seed "
        "catalog over exhaustive small-scope micro-databases, prove the "
        "certificate cache is pay-once, and drive a captured workload "
        "through the integrator's certificate-gated pre-flight",
        module="verify",
        runner="run_verify",
        renderer="render_verify",
        fault="corrupt-delta-rule",
    ),
    ReportPass(
        flag="--flight",
        summary="flight-recorded pipeline pass",
        help="run the flight-recorded pipeline pass instead of experiments: "
        "drive the seed workload with a seeded load spike under the full "
        "time-series/cost-attribution/SLO stack, and print the window "
        "timeline, the top-K cost profile and every burn-rate alert; the "
        "exit code reports whether the spike alert fired and cleared",
        module="flight",
        runner="run_flight",
        renderer="render_flight",
    ),
    ReportPass(
        flag="--forensics",
        summary="system-catalog queue-stall drill",
        help="run the system-catalog forensics drill instead of experiments: "
        "drive a steady workload with a seeded queue stall under the full "
        "observability stack, assemble sys.critical_path, check lifecycle "
        "conservation via SQL against the pipeline auditor, refresh the "
        "incremental monitoring views, and print per-window/per-view stage "
        "blame; the exit code is 0 only when the queue stage is blamed for "
        "the p99 end-to-end lag",
        module="introspect",
        runner="run_forensics",
        renderer="render_forensics",
    ),
    ReportPass(
        flag="--sql",
        summary="ad-hoc SELECT over the sys.* system tables",
        help="run one read-only SELECT over the sys.* system tables "
        "(sys.events, sys.metrics, sys.watermarks, sys.lag, sys.series, "
        "sys.cost, sys.slo, sys.critical_path) snapshotted from the "
        "deterministic forensics drill — or over sys.templates, the "
        "process's statement template table — and print the result rows; "
        "malformed or unresolvable queries exit 2 with a positioned "
        "diagnostic",
        module="introspect",
        runner="run_sql",
        renderer="render_query_result",
        metavar="QUERY",
    ),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Reproduce the tables and figures of Ram & Do, 'Extracting "
            "Delta for Incremental Data Warehouse Maintenance' (ICDE 2000)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (or 'all'); see --list.  With --check, "
        "annotated SQL fixture files instead",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the semantic checker instead of experiments: with no "
        "arguments, validate the seed workload statements against the seed "
        "catalog and dump the compiled view-maintenance plans; with file "
        "arguments, check annotated SQL fixtures ('-- expect: CODE' lines) "
        "for exact diagnostic matches",
    )
    for report_pass in REPORT_PASSES:
        if report_pass.metavar is None:
            parser.add_argument(
                report_pass.flag, action="store_true", help=report_pass.help
            )
        else:
            parser.add_argument(
                report_pass.flag,
                metavar=report_pass.metavar,
                help=report_pass.help,
            )
    parser.add_argument(
        "--fault",
        choices=[p.fault for p in REPORT_PASSES if p.fault is not None],
        help="seed this fault into the flagship pass (drop-queue-message "
        "with --health, swap-lane-ops with --certify, corrupt-delta-rule "
        "with --verify-plans); the exit code then reports whether the "
        "fault was detected",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect every subsystem's metrics (engine, extraction, "
        "analysis, compaction, transport, warehouse) during each experiment "
        "and print a cost breakdown after its table",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record virtual-time spans and write a Chrome-trace JSON file "
        "('-' for stdout); open it at chrome://tracing or ui.perfetto.dev",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="dump raw results as JSON to FILE ('-' for stdout) in addition "
        "to the rendered tables",
    )
    args = parser.parse_args(argv)

    if args.check:
        from .check import run_check

        return run_check(args.experiments)

    active = [p for p in REPORT_PASSES if p.active(args)]
    if len(active) > 1:
        flags = " and ".join(p.flag for p in active)
        print(f"{flags} are mutually exclusive", file=sys.stderr)
        return 2
    for report_pass in REPORT_PASSES:
        if (
            report_pass.fault is not None
            and args.fault == report_pass.fault
            and not report_pass.active(args)
        ):
            print(
                f"--fault {report_pass.fault} requires {report_pass.flag}",
                file=sys.stderr,
            )
            return 2

    if active:
        try:
            result, rendered = active[0].run(args)
        except ReproError as exc:
            print(f"repro-bench: {exc}", file=sys.stderr)
            return 2
        destination = sys.stderr if args.json == "-" else sys.stdout
        print(rendered, file=destination)
        if args.json is not None:
            try:
                _write(args.json, result.to_dict())
            except OSError as exc:
                print(
                    f"repro-bench: cannot write {exc.filename}: {exc.strerror}",
                    file=sys.stderr,
                )
                return 1
        return result.exit_code

    if args.list or not args.experiments:
        if not args.list:
            hints = "; ".join(
                f"{p.flag}: {p.summary}" for p in REPORT_PASSES
            )
            print(
                "repro-bench: no experiments given; listing the available "
                "ids.  Run `repro-bench all` for every experiment, or one "
                f"of the report passes ({hints}); `repro-bench --help` has "
                "the details",
                file=sys.stderr,
            )
        for name in REGISTRY:
            print(name)
        return 0

    wanted = list(REGISTRY) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in wanted if name not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    if args.trace == "-" and args.json == "-":
        print(
            "only one of --trace/--json may write to stdout ('-')",
            file=sys.stderr,
        )
        return 2
    # With a '-' destination, stdout carries that JSON document alone (so it
    # can be piped into jq etc.) and the rendered tables move to stderr.
    report = sys.stderr if "-" in (args.trace, args.json) else sys.stdout

    observing = args.metrics or args.trace is not None
    trace_events: list[dict] = []
    results = []
    failed = []
    for position, name in enumerate(wanted, start=1):
        if observing:
            registry = MetricsRegistry()
            tracer = Tracer()
            with observe(metrics=registry, tracer=tracer):
                result = REGISTRY[name]()
            if args.metrics:
                result.metrics = registry.snapshot()
            if args.trace is not None:
                trace_events.extend(
                    tracer.chrome_trace_events(pid=position, process_name=name)
                )
        else:
            result = REGISTRY[name]()
        results.append(result)
        print(render(result), file=report)
        print(file=report)
        if not result.all_checks_pass:
            failed.append(name)

    try:
        if args.trace is not None:
            _write(
                args.trace,
                {"traceEvents": trace_events, "displayTimeUnit": "ms"},
            )
        if args.json is not None:
            _write(args.json, [result.to_dict() for result in results])
    except OSError as exc:
        print(f"repro-bench: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1

    if failed:
        print(f"shape checks FAILED for: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _write(destination: str, payload: object) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False, default=str)
    if destination == "-":
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
