"""Declarative freshness/latency SLOs with multi-window burn-rate alerts.

An objective states what "healthy" means — *"view ``parts_catalog`` is no
more than 400 virtual ms behind the source for 90% of samples"* — and the
:class:`SLOEngine` evaluates it against the flight recorder's
:class:`~repro.obs.flight.series.TimeSeriesStore` whenever asked.

Alerting follows the multi-window burn-rate discipline: the **burn rate**
of a window is the fraction of in-window samples violating the target,
divided by the error budget (``1 - objective``).  A burn of 1.0 spends
the budget exactly as fast as the objective allows; the engine fires only
when a *short* window burns ≥ ``fast_burn`` (the problem is happening
now) **and** a *long* window burns ≥ ``slow_burn`` (it is not a one-sample
blip), and clears once the short window's burn drops back under 1.0.
Both windows are virtual-time spans ending at the evaluation instant, so
alert positions are deterministic and byte-identical across runs.

Findings mirror the :class:`~repro.obs.pipeline.auditor.AuditFinding`
style — positioned codes with severities::

    SLO001  error    freshness objective burning (alert fired)
    SLO002  info     freshness alert cleared
    SLO003  error    latency objective burning (alert fired)
    SLO004  info     latency alert cleared
    SLO005  warning  objective has no samples to evaluate
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ...errors import ObservabilityError
from ...plain import Record, plain
from .series import RingSeries, TimeSeriesStore

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class FreshnessSLO:
    """Objective: one view's staleness stays under ``target_ms``."""

    view: str
    #: Staleness at or below this is a good sample.
    target_ms: float
    #: Allowed bad-sample fraction (0.1 = 90% objective).
    budget: float = 0.1
    #: Short ("page now") evaluation window, virtual ms.
    short_window_ms: float = 200.0
    #: Long ("it's sustained") evaluation window, virtual ms.
    long_window_ms: float = 1_000.0
    #: Short-window burn that (with the long window) fires the alert.
    fast_burn: float = 2.0
    #: Long-window burn corroborating the fast one.
    slow_burn: float = 1.0

    @property
    def key(self) -> str:
        return f"freshness:{self.view}"

    @property
    def series_name(self) -> str:
        return f"view.{self.view}.staleness_ms"

    @property
    def entity(self) -> str:
        return self.view

    def describe(self) -> str:
        return (
            f"view {self.view!r} staleness <= {self.target_ms:g}ms "
            f"for {100 * (1 - self.budget):g}% of samples"
        )


@dataclass(frozen=True)
class LatencySLO:
    """Objective: one pipeline stage's lag stays under ``target_ms``.

    ``stage`` is one of the recorder's lag-decomposition stages
    (``capture_to_ship``, ``ship_to_apply``, ``commit_to_apply``,
    ``end_to_end``); the engine reads the flight store's per-window mean
    of that stage's fresh lag samples.
    """

    stage: str
    target_ms: float
    budget: float = 0.1
    short_window_ms: float = 200.0
    long_window_ms: float = 1_000.0
    fast_burn: float = 2.0
    slow_burn: float = 1.0

    @property
    def key(self) -> str:
        return f"latency:{self.stage}"

    @property
    def series_name(self) -> str:
        return f"lag.{self.stage}.mean_ms"

    @property
    def entity(self) -> str:
        return self.stage

    def describe(self) -> str:
        return (
            f"stage {self.stage!r} lag <= {self.target_ms:g}ms "
            f"for {100 * (1 - self.budget):g}% of samples"
        )


#: Either objective kind; they share every field the engine touches.
Objective = FreshnessSLO | LatencySLO


@dataclass(frozen=True)
class SLOFinding(Record):
    """One positioned alert-state transition (auditor-finding style)."""

    code: str
    severity: str
    at_ms: float
    objective: str
    entity: str
    message: str
    short_burn: float = 0.0
    long_burn: float = 0.0

    def render(self) -> str:
        return (
            f"[{self.code}] {self.severity.upper()} @{self.at_ms:g}ms "
            f"{self.objective}: {self.message}"
        )


def burn_rate(series: RingSeries, since_ms: float, until_ms: float,
              target_ms: float, budget: float) -> float:
    """Violating-sample fraction over the window, divided by the budget."""
    values = series.values(since_ms, until_ms)
    if not values:
        return 0.0
    bad = sum(1 for value in values if value > target_ms)
    return (bad / len(values)) / budget


class SLOEngine:
    """Evaluates objectives over a flight store; tracks fired/cleared state."""

    def __init__(
        self,
        store: TimeSeriesStore,
        objectives: list[Objective] | None = None,
    ) -> None:
        self.store = store
        self.objectives: list[Objective] = []
        #: Objective key -> currently firing?
        self._firing: dict[str, bool] = {}
        #: Every state-transition finding, in evaluation order.
        self.history: list[SLOFinding] = []
        for objective in objectives or []:
            self.add(objective)

    def add(self, objective: Objective) -> None:
        if not 0 < objective.budget < 1:
            raise ObservabilityError(
                f"SLO {objective.key!r} budget must be in (0, 1), "
                f"got {objective.budget}"
            )
        if objective.short_window_ms > objective.long_window_ms:
            raise ObservabilityError(
                f"SLO {objective.key!r} short window "
                f"({objective.short_window_ms}ms) exceeds its long window "
                f"({objective.long_window_ms}ms)"
            )
        if any(existing.key == objective.key for existing in self.objectives):
            raise ObservabilityError(
                f"SLO {objective.key!r} is already registered"
            )
        self.objectives.append(objective)
        self._firing[objective.key] = False

    # -------------------------------------------------------------- evaluation
    def evaluate(self, now_ms: float) -> list[SLOFinding]:
        """Evaluate every objective at ``now_ms``; return new findings only.

        A finding is emitted only on a state *transition* (fired or
        cleared) or when an objective has no samples at all — steady
        states stay quiet, so repeated evaluation is idempotent.
        """
        findings: list[SLOFinding] = []
        for objective in self.objectives:
            finding = self._evaluate_one(objective, now_ms)
            if finding is not None:
                findings.append(finding)
        self.history.extend(findings)
        return findings

    def _evaluate_one(
        self, objective: Objective, now_ms: float
    ) -> SLOFinding | None:
        series = self.store.get(objective.series_name)
        if series is None or len(series) == 0:
            if self._firing[objective.key]:
                return None  # keep firing; absence of data is not recovery
            return SLOFinding(
                code="SLO005",
                severity="warning",
                at_ms=now_ms,
                objective=objective.key,
                entity=objective.entity,
                message=(
                    f"no samples in series {objective.series_name!r}; "
                    f"objective '{objective.describe()}' cannot be evaluated"
                ),
            )
        short = burn_rate(
            series,
            now_ms - objective.short_window_ms,
            now_ms,
            objective.target_ms,
            objective.budget,
        )
        long = burn_rate(
            series,
            now_ms - objective.long_window_ms,
            now_ms,
            objective.target_ms,
            objective.budget,
        )
        was_firing = self._firing[objective.key]
        if not was_firing and (
            short >= objective.fast_burn and long >= objective.slow_burn
        ):
            self._firing[objective.key] = True
            fired_code = (
                "SLO001" if isinstance(objective, FreshnessSLO) else "SLO003"
            )
            return SLOFinding(
                code=fired_code,
                severity="error",
                at_ms=now_ms,
                objective=objective.key,
                entity=objective.entity,
                message=(
                    f"burn rate {short:.2f}x over {objective.short_window_ms:g}ms "
                    f"(and {long:.2f}x over {objective.long_window_ms:g}ms) "
                    f"violates '{objective.describe()}'"
                ),
                short_burn=short,
                long_burn=long,
            )
        if was_firing and short < 1.0:
            self._firing[objective.key] = False
            cleared_code = (
                "SLO002" if isinstance(objective, FreshnessSLO) else "SLO004"
            )
            return SLOFinding(
                code=cleared_code,
                severity="info",
                at_ms=now_ms,
                objective=objective.key,
                entity=objective.entity,
                message=(
                    f"burn rate back to {short:.2f}x over "
                    f"{objective.short_window_ms:g}ms; "
                    f"'{objective.describe()}' is healthy again"
                ),
                short_burn=short,
                long_burn=long,
            )
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "objectives": [
                {
                    "key": objective.key,
                    "kind": (
                        "freshness"
                        if isinstance(objective, FreshnessSLO)
                        else "latency"
                    ),
                    "entity": objective.entity,
                    "target_ms": objective.target_ms,
                    "budget": objective.budget,
                    "short_window_ms": objective.short_window_ms,
                    "long_window_ms": objective.long_window_ms,
                    "fast_burn": objective.fast_burn,
                    "slow_burn": objective.slow_burn,
                    "firing": self._firing[objective.key],
                    "describe": objective.describe(),
                }
                for objective in self.objectives
            ],
            "findings": plain(self.history),
        }
