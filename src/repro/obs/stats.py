"""Shared deterministic statistics over exact virtual-time samples.

Both the pipeline layer's :class:`~repro.obs.pipeline.watermarks.LagSamples`
and the flight recorder's :class:`~repro.obs.flight.series.RingSeries`
answer "what is the p-th percentile of these samples?", so the arithmetic
lives here once.

The percentile is **exact**: nearest-rank returns an actual observed sample
(never an interpolation), and the rank is computed in integer arithmetic
(percent points, then a ceiling division) so that pinned regression values
can never drift with floating-point rounding of ``q * n``.
"""

from __future__ import annotations

from typing import Sequence


def nearest_rank_percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-percentile (``0 <= q <= 1``) of ``values``.

    Deterministic and exact: the result is always one of the samples.  The
    rank is ``ceil(percent * n / 100)`` with ``percent = int(q * 100)``,
    clamped to ``[1, n]``; an empty sample set yields 0.0.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    percent = min(100, max(0, int(q * 100)))
    rank = max(1, -(-percent * len(ordered) // 100))  # ceil division
    return ordered[min(rank, len(ordered)) - 1]

