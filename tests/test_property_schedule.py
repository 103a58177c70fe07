"""Property: the folded LPT lane schedule is the simulation it replaced.

``run_conflict_schedule`` packs with :func:`repro.analysis.certify.lpt_pack`
— the packer ``lpt_schedule`` uses — and folds the finish times; the
discrete-event simulation it ran before is ``tests/reference_schedule.py``.
On random integer and float durations and one to six lanes, ``serial_ms``,
``parallel_ms`` and ``component_finish_ms`` must be the same to the bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.warehouse import run_conflict_schedule

from .reference_schedule import simulated_schedule

_durations = st.one_of(
    st.integers(0, 40).map(float),
    st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
)


@given(st.lists(st.lists(_durations, max_size=5), max_size=12), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_the_folded_schedule_is_the_simulation(components, workers):
    report = run_conflict_schedule(components, workers=workers)
    folded = (report.serial_ms, report.parallel_ms, report.component_finish_ms)
    assert repr(folded) == repr(simulated_schedule(components, workers))
