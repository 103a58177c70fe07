"""Deterministic virtual-time accounting.

Every storage-engine primitive charges time to a :class:`VirtualClock`
instead of consuming wall-clock time.  This is the central substitution the
reproduction makes for the paper's 300 MHz NT testbed: experiments become
deterministic, laptop-fast and independent of the host machine, while the
*relative* costs still emerge from the real mechanics (page I/O, log forces,
triggered statements, ...) because every one of those mechanics charges the
clock through the calibrated :class:`repro.engine.costs.CostModel`.

The clock measures **virtual milliseconds**.  A :class:`Stopwatch` is the
idiomatic way to measure the cost of a region of code::

    with clock.stopwatch() as watch:
        table.insert(row)
    elapsed_ms = watch.elapsed

Virtual time is compared **to the bit** (artifacts are ``cmp``-ed), and
float addition does not distribute: ``n`` charges of ``x`` are ``n``
additions, never one addition of ``n * x``.  There are three batchings of
the clock, and all perform exactly the additions they stand for, in order:

* :meth:`VirtualClock.advance_each` charges a run of records of one
  constant — computed a binade of the total at a time, where every addition
  of ``x`` adds the same rounded step;
* :meth:`VirtualClock.advance_cycle` charges a run of records that each pay
  a fixed *sequence* of charges (a dump pays the scan, then the file write)
  — a plain loop over a local total, no method call per charge;
* :meth:`VirtualClock.advance_runs` charges a run of pages that each pay one
  constant and then another per record (a buffer hit, then its records'
  scan) — in one step when the whole run ends in the binade it starts in,
  where each of the two constants adds its own same rounded step, and
  otherwise page by page.

When the measurement should be *kept* rather than consumed on the spot,
use a :class:`repro.obs.Tracer` span instead — spans are stamped from this
same clock, nest hierarchically, and export to Chrome-trace JSON, so a
whole experiment's cost breakdown stays attributable after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

#: Runs shorter than this are added one by one: the per-binade computation
#: costs about what four additions do.
_RUN = 4


class VirtualClock:
    """A monotonically increasing virtual-millisecond counter.

    The clock also hands out monotonically increasing *timestamps* for
    ``last_modified``-style columns so that timestamp-based extraction is
    deterministic: two successive calls to :meth:`timestamp` never return
    the same value even if no cost was charged in between.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._timestamp_seq = 0
        #: ``(x, top, step)`` of the last :meth:`advance_each` binade.
        self._binade = (math.nan, 0.0, 0.0)

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def advance(self, milliseconds: float) -> float:
        """Charge ``milliseconds`` of virtual time and return the new time.

        Negative charges are rejected: virtual time is monotonic.
        """
        if milliseconds < 0:
            raise ValueError(f"cannot advance clock by {milliseconds} ms")
        self._now += milliseconds
        return self._now

    def advance_each(self, milliseconds: float, times: int) -> float:
        """Charge ``milliseconds`` ``times`` times over; return the new time.

        Bit-equal to ``times`` calls of :meth:`advance` — ``n`` additions of
        ``x`` are not one addition of ``n * x`` in floating point, and virtual
        time is compared to the bit — but computed a binade of the total at a
        time.  In a binade ``[top/2, top)`` every float, the total included,
        is a multiple of ``u = ulp(total)``, so each addition of ``x`` that
        ends below ``top`` rounds ``x`` to the same multiple of ``u``:
        ``step``, what the first addition added.  The exception is a tie
        (``x mod u == u/2``), where rounding half to even reads the total's
        last bit: a tie, a zero total and a run shorter than :data:`_RUN`
        take the plain loop.  So ``k`` additions that end below ``top`` are
        ``total + k * step``, and both operations are exact: the results are
        multiples of ``u`` below ``top``.  A run that passes ``top`` is taken
        up to it (an addition ending exactly at ``top`` is still ``step``:
        its exact sum lies within ``u/2`` of ``top``, the nearest float on
        either side), then the addition that passes it is performed as it
        is, and the next binade begins.  ``(x, top, step)`` is kept for the
        next call: a scan charges the same ``x`` page after page.  Beside
        :meth:`advance_cycle` and :meth:`advance_runs`, this is the only way a
        caller may charge a run of records at once.
        """
        if milliseconds < 0 or times < 0:
            raise ValueError(f"cannot advance clock {times} x {milliseconds} ms")
        now = self._now
        while times >= _RUN and 0.0 < now and now + milliseconds < math.inf:
            x, top, step = self._binade
            if x != milliseconds or not top / 2 <= now < top:
                ulp = math.ulp(now)
                if milliseconds % ulp == ulp / 2:
                    break
                top, step = ulp * 2.0**53, now + milliseconds - now
                self._binade = (milliseconds, top, step)
            if now + times * step < top:  # the whole run stays in the binade
                self._now = now = now + times * step
                return now
            # Up to ``top``, then the addition that passes it, as it is.
            run = min(times - 1, int((top - now) // step))
            now += run * step
            now += milliseconds
            times -= run + 1
        for _ in range(times):
            now += milliseconds
        self._now = now
        return now

    def advance_cycle(self, charges: Sequence[float], times: int) -> float:
        """Charge the sequence ``charges`` ``times`` times over; return the
        new time.

        Bit-equal to ``times`` rounds of one :meth:`advance` per charge, in
        order: every addition is performed as it is, on a local total, so
        nothing is merged or reordered — only the method calls are saved.
        A cycle of one charge is :meth:`advance_each`'s run.
        """
        if times < 0 or min(charges, default=0.0) < 0:
            raise ValueError(f"cannot advance clock {times} x {charges} ms")
        if len(charges) == 1:
            return self.advance_each(charges[0], times)
        now = self._now
        for _ in range(times):
            for charge in charges:
                now += charge
        self._now = now
        return now

    def advance_runs(self, head: float, each: float, counts: Sequence[int]) -> float:
        """Per count ``n`` of ``counts``, charge ``head`` once and then
        ``each`` ``n`` times over; return the new time.

        Bit-equal to, per count, :meth:`advance` of ``head`` followed by
        :meth:`advance_each` of ``(each, n)``.  In the binade ``[top/2,
        top)`` of the total, every addition of ``head`` that ends below
        ``top`` adds the same rounded step and so does every addition of
        ``each`` (:meth:`advance_each`, ties and a zero total excepted), so a
        run that ends below ``top`` is the total plus the pages times the
        one step and the records times the other — exact, the results being
        multiples of the total's ulp below ``top``.  A run that does not is
        charged page by page.
        """
        if head < 0 or each < 0 or min(counts, default=0) < 0:
            raise ValueError(f"cannot advance clock {counts} x ({head}, {each}) ms")
        now = self._now
        if 0.0 < now:
            ulp = math.ulp(now)
            if head % ulp != ulp / 2 and each % ulp != ulp / 2:
                end = (
                    now + len(counts) * (now + head - now)
                    + sum(counts) * (now + each - now)
                )
                if end < ulp * 2.0**53:
                    self._now = end
                    return end
        for times in counts:
            self._now += head
            self.advance_each(each, times)
        return self._now

    def timestamp(self) -> float:
        """Return a unique, strictly increasing virtual timestamp.

        The fractional tie-breaker keeps timestamps unique even when many
        rows are stamped at the same virtual instant, which mirrors how a
        real DBMS timestamp has sub-millisecond resolution.
        """
        self._timestamp_seq += 1
        return self._now + self._timestamp_seq * 1e-9

    def stopwatch(self) -> "Stopwatch":
        """Return a context manager measuring elapsed virtual time."""
        return Stopwatch(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.3f}ms)"


@dataclass
class Stopwatch:
    """Measures elapsed virtual time over a ``with`` block."""

    clock: VirtualClock
    started_at: float = field(default=0.0, init=False)
    stopped_at: float | None = field(default=None, init=False)

    def __enter__(self) -> "Stopwatch":
        self.started_at = self.clock.now
        self.stopped_at = None
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stopped_at = self.clock.now

    @property
    def elapsed(self) -> float:
        """Virtual milliseconds elapsed (live if the block is still open)."""
        end = self.stopped_at if self.stopped_at is not None else self.clock.now
        return end - self.started_at


def format_duration(milliseconds: float) -> str:
    """Render virtual milliseconds the way the paper's tables do.

    Examples: ``"117 ms"``, ``"3 min"``, ``"1 hr 32 min"``.
    """
    if milliseconds < 0:
        raise ValueError("duration cannot be negative")
    seconds = milliseconds / 1000.0
    if seconds < 1:
        return f"{milliseconds:.0f} ms"
    if seconds < 120:
        return f"{seconds:.1f} s"
    minutes = seconds / 60.0
    if minutes < 60:
        return f"{minutes:.0f} min"
    hours = int(minutes // 60)
    rem_minutes = int(round(minutes - hours * 60))
    if rem_minutes == 60:
        hours += 1
        rem_minutes = 0
    if rem_minutes == 0:
        return f"{hours} hr"
    return f"{hours} hr {rem_minutes} min"
