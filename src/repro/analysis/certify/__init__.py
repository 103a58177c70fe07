"""Static schedule certification + runtime interference sanitizing.

The conflict graph (:mod:`repro.analysis.conflict`) *constructs* orders
that are claimed equivalent to the source serial order; this package
independently *proves* a proposed parallel schedule serializable before
any delta is applied, and cross-checks the verdict at runtime:

* :mod:`~repro.analysis.certify.schedule` — the explicit lane-assignment
  model (:class:`LaneSchedule`), the one deterministic LPT packer (which
  ``run_conflict_schedule`` folds too), and the ``swap-lane-ops`` fault
  planter used by the race drill.
* :mod:`~repro.analysis.certify.certifier` — :func:`certify` reads every
  pairwise verdict from the conflict graph's commutation record and emits
  positioned ``RACE001``–``RACE006`` findings (offending op pair,
  correlation ids, witness interleaving) when a schedule is not provably
  serializable; :func:`verify_compaction` re-proves the coalescer's
  reorderings; :class:`Certificate` carries the verdict and the
  commuting-pair statistics.
* :mod:`~repro.analysis.certify.sanitizer` — an opt-in
  :class:`InterferenceSanitizer` recording the lane of every table access
  and flagging conflicting accesses on different lanes
  (``RACE101``–``RACE103``) as they happen.

All three read an :class:`~repro.analysis.conflict.CommutationRecord` made
by the one :class:`~repro.analysis.analyzer.OpDeltaAnalyzer`, so they judge
every op pair alike.
"""

from .certifier import Certificate, RaceFinding, certify, verify_compaction
from .sanitizer import InterferenceSanitizer
from .schedule import (
    LaneSchedule,
    lpt_schedule,
    plant_lane_swap,
    single_lane_schedule,
)

__all__ = [
    "Certificate",
    "InterferenceSanitizer",
    "LaneSchedule",
    "RaceFinding",
    "certify",
    "lpt_schedule",
    "plant_lane_swap",
    "single_lane_schedule",
    "verify_compaction",
]
