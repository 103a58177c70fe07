"""Method-call capture at the integration-middleware level (paper §2.4).

"Deltas can also be captured in the integration infrastructure (CORBA, DCE,
and DCOM) between the COTS software.  The message channel exit points can
be tapped to capture the deltas.  Deltas here will be (most likely) in the
form of high-level object method calls, instead of SQL statements ...
A customized mapping mechanism is now required to map each object's methods
(including semantics) into an equivalent method applicable to the data
warehouse — something that may not be always feasible."

Two capture points are modelled:

* the application/COTS boundary — every business API call on a
  :class:`~repro.sources.cots.CotsSystem`;
* the integration layer — cross-system business transactions on an
  :class:`~repro.sources.enterprise.IntegratedEnterprise`.

A :class:`MethodCallMapper` holds the per-method translation into warehouse
statements; methods without a mapping raise — the §2.4 feasibility caveat
made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..engine.session import Session
from ..errors import ExtractionError, WarehouseError
from .cots import CotsSystem
from .enterprise import IntegratedEnterprise


@dataclass(frozen=True)
class MethodDelta:
    """One captured high-level method call."""

    sequence: int
    level: str              # "cots-api" or "integration-layer"
    system: str | None      # None for integration-layer calls
    method: str
    arguments: tuple[Any, ...]
    captured_at: float

    @property
    def size_bytes(self) -> int:
        """Transport volume: method id + rendered arguments."""
        return (
            16 + len(self.method)
            + sum(len(str(argument)) + 1 for argument in self.arguments)
        )


class MiddlewareCapture:
    """Taps business-method invocations at one or both capture levels."""

    def __init__(self) -> None:
        self._sequence = 0
        self._captured: list[MethodDelta] = []
        self._detachers: list[Callable[[], None]] = []

    # ------------------------------------------------------------------ wiring
    def tap_system(self, system: CotsSystem) -> None:
        """Capture every business API call of one COTS system."""

        def listener(method: str, arguments: tuple[Any, ...]) -> None:
            self._record("cots-api", system.name, method, arguments,
                         system.clock.now)

        system.method_listeners.append(listener)
        self._detachers.append(
            lambda: system.method_listeners.remove(listener)
        )

    def tap_enterprise(self, enterprise: IntegratedEnterprise) -> None:
        """Capture cross-system business transactions at the middleware."""

        def listener(method: str, arguments: tuple[Any, ...]) -> None:
            self._record("integration-layer", None, method, arguments,
                         enterprise.clock.now)

        enterprise.method_listeners.append(listener)
        self._detachers.append(
            lambda: enterprise.method_listeners.remove(listener)
        )

    def detach(self) -> None:
        for detacher in self._detachers:
            detacher()
        self._detachers.clear()

    # ------------------------------------------------------------------ access
    def _record(self, level: str, system: str | None, method: str,
                arguments: tuple[Any, ...], at: float) -> None:
        self._sequence += 1
        self._captured.append(
            MethodDelta(self._sequence, level, system, method,
                        tuple(arguments), at)
        )

    def drain(self) -> list[MethodDelta]:
        captured, self._captured = self._captured, []
        return captured

    def __len__(self) -> int:
        return len(self._captured)


#: A mapping entry: builds warehouse SQL statements from call arguments.
MethodTranslation = Callable[[tuple[Any, ...]], Sequence[str]]


class MethodCallMapper:
    """The "customized mapping mechanism" of §2.4.

    Maps each captured method (by ``level:method`` or just ``method``) to
    the warehouse statements that reproduce its effect.  Unmapped methods
    raise :class:`ExtractionError` — capturing at this level is only as
    complete as the mapping, which "may not be always feasible".
    """

    def __init__(self) -> None:
        self._translations: dict[str, MethodTranslation] = {}

    def register(self, method: str, translation: MethodTranslation) -> None:
        if method in self._translations:
            raise ExtractionError(f"method {method!r} is already mapped")
        self._translations[method] = translation

    def translate(self, delta: MethodDelta) -> list[str]:
        translation = self._translations.get(delta.method)
        if translation is None:
            raise ExtractionError(
                f"no warehouse mapping for method {delta.method!r} "
                f"(captured at the {delta.level}); §2.4: such a mapping "
                "'may not be always feasible'"
            )
        return list(translation(delta.arguments))


class MethodDeltaApplier:
    """Applies captured method calls to the warehouse through a mapper."""

    def __init__(self, session: Session, mapper: MethodCallMapper) -> None:
        self._session = session
        self._mapper = mapper
        self.calls_applied = 0
        self.statements_executed = 0

    def apply(self, deltas: Iterable[MethodDelta]) -> None:
        """One warehouse transaction per captured call (boundary preserved)."""
        for delta in deltas:
            statements = self._mapper.translate(delta)
            self._session.begin()
            try:
                for sql in statements:
                    self._session.execute(sql)
                    self.statements_executed += 1
            except Exception as exc:
                if self._session.in_transaction:
                    self._session.rollback()
                raise WarehouseError(
                    f"applying method call {delta.method!r} failed: {exc}"
                ) from exc
            self._session.commit()
            self.calls_applied += 1
