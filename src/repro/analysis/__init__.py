"""Static analysis of captured Op-Delta statements.

Everything here works on the SQL AST alone — no statement is ever
executed.  The package answers three questions about each captured
operation, all conservatively (a "yes" is a proof, a "no" just means the
analyzer could not prove it):

* :mod:`~repro.analysis.rwsets` — *what does it touch?*  Read/write column
  sets and predicate-bounded row ranges.
* :mod:`~repro.analysis.safety` — *can it be replayed, retried,
  reordered?*  Determinism, idempotence and pairwise commutativity.
* :mod:`~repro.analysis.conflict` — *which transactions are independent?*
  The conflict graph whose components the warehouse scheduler applies in
  parallel.
* :mod:`~repro.analysis.relevance` — *does the warehouse care?*  Pruning
  of statements no materialised view (and no mirror) can observe.
* :mod:`~repro.analysis.certify` — *is this parallel schedule safe to
  run?*  Static serializability certification of proposed lane
  assignments plus a vector-clock interference sanitizer that
  cross-checks the verdict at runtime.
* :mod:`~repro.analysis.verify` — *are the compiled delta rules
  actually equivalent to recomputation?*  Small-scope bounded model
  checking of each maintenance plan, producing cached
  :class:`~repro.analysis.verify.PlanCertificate` objects the
  integrator requires as a pre-flight.

:class:`OpDeltaAnalyzer` is the facade the capture hook, transport layer
and integrator share.
"""

from .analyzer import AnalysisRecord, OpDeltaAnalyzer
from .certify import (
    Certificate,
    InterferenceSanitizer,
    LaneSchedule,
    RaceFinding,
    lpt_schedule,
    plant_lane_swap,
    single_lane_schedule,
    verify_compaction,
)
from .conflict import (
    CommutationRecord,
    ConflictGraph,
    build_conflict_graph,
    parallel_order,
)
from .relevance import RelevanceVerdict
from .rwsets import (
    ColumnConstraint,
    Interval,
    PredicateRange,
    StatementFootprint,
    extract_footprint,
    range_from_insert,
    range_from_predicate,
)
from .verify import (
    CertificateCache,
    Counterexample,
    DeltaRuleVerifier,
    PlanCertificate,
    ScopeConfig,
    VerifyFinding,
)
from .safety import (
    Determinism,
    commutes,
    conjunct_negations,
    conjuncts_imply,
    is_idempotent,
    op_footprint,
    pin_time_functions,
    predicates_disjoint,
    self_accumulation,
    statement_determinism,
)

__all__ = [
    "AnalysisRecord",
    "OpDeltaAnalyzer",
    "Certificate",
    "InterferenceSanitizer",
    "LaneSchedule",
    "RaceFinding",
    "lpt_schedule",
    "plant_lane_swap",
    "single_lane_schedule",
    "verify_compaction",
    "op_footprint",
    "pin_time_functions",
    "CommutationRecord",
    "ConflictGraph",
    "build_conflict_graph",
    "parallel_order",
    "RelevanceVerdict",
    "ColumnConstraint",
    "Interval",
    "PredicateRange",
    "StatementFootprint",
    "extract_footprint",
    "range_from_insert",
    "range_from_predicate",
    "Determinism",
    "commutes",
    "conjunct_negations",
    "conjuncts_imply",
    "predicates_disjoint",
    "is_idempotent",
    "self_accumulation",
    "statement_determinism",
    "CertificateCache",
    "Counterexample",
    "DeltaRuleVerifier",
    "PlanCertificate",
    "ScopeConfig",
    "VerifyFinding",
]
