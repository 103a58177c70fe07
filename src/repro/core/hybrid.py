"""The worst-case hybrid capture policy.

A hybrid policy answers, at capture time — before the statement runs —
whether UPDATE/DELETE on a table need their before images.  The policy
programs run is compiled from the warehouse's views
(:class:`repro.semantics.planner.PlanDrivenCapturePolicy`); this one
always says yes, which bounds what hybrid capture can cost.
"""

from __future__ import annotations

from .opdelta import OpKind


class AlwaysHybridPolicy:
    """Worst-case policy: capture before images for every update/delete.

    Used by the ablation benchmarks to bound the extra capture cost of
    hybrid Op-Delta ("in the worst case, the operation description has to
    be augmented with the before image").
    """

    def requires_before_image(self, table: str, kind: OpKind) -> bool:
        return kind in (OpKind.UPDATE, OpKind.DELETE)
