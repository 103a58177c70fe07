"""The pairwise proofs as they were before a window kept one record of them,
kept as the oracle the commutation record is compared with
(``tests/test_property_conflict_record.py``).

Until then the conflict graph and the schedule certifier each derived their
own footprints and each called ``commutes`` on the same op pairs: the graph
through ``transactions_conflict`` over every transaction pair, the certifier
through its ``_footprint`` / ``_commutes`` / ``_conflict_witness``.  Here
every verdict is proved afresh from a fresh footprint, and nothing is kept.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.conflict import CommutationRecord
from repro.analysis.rwsets import StatementFootprint
from repro.analysis.safety import commutes, op_footprint
from repro.core.opdelta import OpDelta, OpDeltaTransaction
from repro.core.selfmaint import ViewDefinition


def transactions_conflict(
    a: Sequence[StatementFootprint],
    b: Sequence[StatementFootprint],
    key_columns: Mapping[str, str] | None = None,
    *,
    structural: bool = True,
) -> bool:
    """Whether two transactions' statement footprints fail to commute."""
    return any(
        not commutes(fa, fb, key_columns, structural=structural)
        for fa in a
        for fb in b
    )


def reference_graph(
    groups: Sequence[OpDeltaTransaction],
    *,
    table_columns: Mapping[str, Sequence[str]] | None = None,
    key_columns: Mapping[str, str] | None = None,
    views: Sequence[ViewDefinition] = (),
    structural: bool = True,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """``(edges, components)`` by the deleted loop of ``build_conflict_graph``."""
    footprints = [
        [op_footprint(op, table_columns, views) for op in g.operations]
        for g in groups
    ]
    txn_ids = [g.txn_id for g in groups]
    parent = list(range(len(groups)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    edges = []
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if transactions_conflict(
                footprints[i], footprints[j], key_columns, structural=structural
            ):
                edges.append((txn_ids[i], txn_ids[j]))
                root_i, root_j = find(i), find(j)
                if root_i != root_j:
                    parent[root_j] = root_i
    by_root: dict[int, list[int]] = {}
    for i in range(len(groups)):
        by_root.setdefault(find(i), []).append(txn_ids[i])
    return tuple(edges), tuple(tuple(m) for _, m in sorted(by_root.items()))


class FreshRecord(CommutationRecord):
    """A record that keeps nothing and prunes nothing: every read is a fresh
    proof, as the certifier's own ``_footprint`` / ``_commutes`` /
    ``_conflict_witness`` made them over every transaction pair."""

    def footprint(self, op: OpDelta) -> StatementFootprint:
        return op_footprint(op, self._table_columns, self._views)

    def commute(self, a: OpDelta, b: OpDelta) -> bool:
        return commutes(
            self.footprint(a),
            self.footprint(b),
            self._key_columns,
            structural=self._structural,
        )

    def conflicts(
        self, groups: Sequence[OpDeltaTransaction]
    ) -> list[tuple[int, int, tuple[OpDelta, OpDelta]]]:
        """Every transaction pair asked, every op pair proved: no sweep."""
        found = []
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                witness = next(
                    (
                        (a, b)
                        for a in groups[i].operations
                        for b in groups[j].operations
                        if not self.commute(a, b)
                    ),
                    None,
                )
                if witness is not None:
                    found.append((i, j, witness))
        return found
