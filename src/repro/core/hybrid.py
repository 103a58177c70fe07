"""Hybrid capture policy: when to augment the operation with before images.

Built from the warehouse's view definitions via the static
self-maintainability analysis.  The policy is evaluated at capture time —
before the statement runs — so it is conservative: if *any* view on the
table might need before images for this kind of operation, they are
fetched.  Per-statement refinement happens at apply time
(:func:`repro.core.selfmaint.classify_operation`).
"""

from __future__ import annotations

from typing import Iterable

from ..errors import SelfMaintenanceError
from .opdelta import OpKind
from .selfmaint import Maintainability, ViewDefinition, combined_requirement


class ViewAwareHybridPolicy:
    """Fetch before images exactly when some warehouse view needs them."""

    def __init__(self, views: Iterable[ViewDefinition]) -> None:
        self._views = list(views)
        self._cache: dict[tuple[str, OpKind], bool] = {}

    def requires_before_image(self, table: str, kind: OpKind) -> bool:
        key = (table, kind)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        requirement = combined_requirement(self._views, table, kind)
        if requirement is Maintainability.NOT_SELF_MAINTAINABLE:
            raise SelfMaintenanceError(
                f"a view over {table!r} is not self-maintainable even with "
                "before images (its join side is not available at the "
                "warehouse); integration would have to query the sources"
            )
        needed = requirement is Maintainability.NEEDS_BEFORE_IMAGE
        self._cache[key] = needed
        return needed

    @property
    def views(self) -> list[ViewDefinition]:
        return list(self._views)


class AlwaysHybridPolicy:
    """Worst-case policy: capture before images for every update/delete.

    Used by the ablation benchmarks to bound the extra capture cost of
    hybrid Op-Delta ("in the worst case, the operation description has to
    be augmented with the before image").
    """

    def requires_before_image(self, table: str, kind: OpKind) -> bool:
        return kind in (OpKind.UPDATE, OpKind.DELETE)
