"""Ablation — indexing the timestamp column (§3.1.1).

"The time stamp based methods require table scans unless an index is
defined on the time stamp attribute.  Additionally, indices may not be
used by the query optimizer if the deltas form a significant portion of
the table."

With a B-tree on ``last_modified``, the planner uses it for small deltas
and falls back to the scan once the delta fraction crosses the
selectivity threshold — so indexing only rescues the small-delta regime.
"""

from __future__ import annotations

from ...extraction.timestamp import TimestampExtractor
from ...sql.planner import INDEX_SELECTIVITY_THRESHOLD
from ..report import ExperimentResult
from .common import SMALL_POOL_PAGES, build_workload_database
from .table2 import _restamp

DEFAULT_SOURCE_ROWS = 25_000
#: Delta fractions straddling the optimizer threshold.
DEFAULT_FRACTIONS = (0.001, 0.01, 0.04, 0.10, 0.50)


def run(
    source_rows: int = DEFAULT_SOURCE_ROWS,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
) -> ExperimentResult:
    indexed_ms, plain_ms, plans = [], [], []
    for fraction in fractions:
        delta_rows = max(1, int(source_rows * fraction))

        database, _w = build_workload_database(
            source_rows, buffer_pages=SMALL_POOL_PAGES, name="tsx-plain"
        )
        extractor = TimestampExtractor(database, "parts")
        cutoff = _restamp(database, "parts", delta_rows)
        outcome = extractor.extract_to_file(cutoff)
        plain_ms.append(outcome.elapsed_ms)

        database, _w = build_workload_database(
            source_rows, buffer_pages=SMALL_POOL_PAGES, name="tsx-indexed"
        )
        database.table("parts").create_index("idx_ts", "last_modified")
        extractor = TimestampExtractor(database, "parts")
        cutoff = _restamp(database, "parts", delta_rows)
        outcome = extractor.extract_to_file(cutoff)
        indexed_ms.append(outcome.elapsed_ms)
        plans.append(outcome.plan)

    result = ExperimentResult(
        experiment_id="timestamp_index",
        title="Timestamp extraction with and without a timestamp index",
        parameters={
            "source_rows": source_rows,
            "optimizer_threshold": INDEX_SELECTIVITY_THRESHOLD,
        },
        headers=[f"{f:.1%}" for f in fractions],
        series={
            "no_index_ms": plain_ms,
            "with_index_ms": indexed_ms,
        },
        unit="ms",
        notes=[f"indexed-run plans: {plans}"],
    )
    below = [i for i, f in enumerate(fractions) if f <= INDEX_SELECTIVITY_THRESHOLD]
    above = [i for i, f in enumerate(fractions) if f > INDEX_SELECTIVITY_THRESHOLD]
    result.check(
        "index wins decisively below the threshold",
        all(indexed_ms[i] < 0.5 * plain_ms[i] for i in below),
    )
    result.check(
        "optimizer uses the index only below the threshold",
        all("index-range" in plans[i] for i in below)
        and all("scan" in plans[i] and "index" not in plans[i] for i in above),
    )
    result.check(
        "above the threshold both run as scans (within 10%)",
        all(abs(indexed_ms[i] / plain_ms[i] - 1.0) < 0.10 for i in above),
    )
    return result
