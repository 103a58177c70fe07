"""Relevance pruning of a window before it is shipped, for the tests that
hand the transport, the integrator and the auditor a pruned window.

No pipeline the experiments run prunes at the transport: the integrator
skips what the analyzer calls irrelevant at apply time.  These helpers drop
the same statements one stage earlier, settling each as ``PRUNED`` at stage
``transport`` so the conservation law still closes over the window.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator

from repro.analysis import OpDeltaAnalyzer
from repro.core.opdelta import OpDeltaTransaction
from repro.obs.pipeline.context import ambient_pipeline
from repro.obs.pipeline.events import lineage_key


def prune_transaction(
    analyzer: OpDeltaAnalyzer, group: OpDeltaTransaction
) -> OpDeltaTransaction | None:
    """Drop irrelevant statements; ``None`` when nothing survives."""
    kept = [op for op in group.operations if not analyzer.analyze_op(op).pruned]
    if not kept:
        return None
    if len(kept) == len(group.operations):
        return group
    return dataclasses.replace(group, operations=kept)


def prune_window(
    analyzer: OpDeltaAnalyzer, groups: Iterable[OpDeltaTransaction]
) -> Iterator[OpDeltaTransaction]:
    """Prune a window lazily, one group at a time, settling what is dropped."""
    for group in groups:
        kept = prune_transaction(analyzer, group)
        recorder = ambient_pipeline()
        if recorder is not None and kept is not group:
            survivors = () if kept is None else kept.operations
            surviving = {lineage_key(op) for op in survivors}
            for op in group.operations:
                if lineage_key(op) not in surviving:
                    recorder.record_pruned(op, at_ms=None, stage="transport")
        if kept is not None:
            yield kept
