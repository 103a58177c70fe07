"""Property: ``span`` is the positions an interval holds, by brute force.

:func:`repro.engine.index.span` is the one range search over sorted keys:
the B-tree's estimate (``estimate_range``) and scan (``range_scan``) and a
scan's page bounds (``repro.engine.table._excluded``) all bisect through it.
Here sorted int and float keys — duplicates, ``-0.0`` beside ``0.0``,
``±inf`` — meet an interval with either side open (``None``), closed or
open, and ends of either numeric kind.  ``span`` must name exactly the
positions whose key satisfies both sides when compared in Python, and the
three readers must agree with it.

A NaN end satisfies no comparison, so no key lies inside it; bisection
gives that only for an exclusive NaN side, which is the only kind
``settle_bounds`` makes.  An inclusive NaN side is the planner's one-sided
estimate of ``k >= NaN`` / ``k <= NaN``, pinned by its plans in
``tests/test_sql_planner.py``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.engine.costs import DEFAULT_COST_MODEL
from repro.engine.index import BTreeIndex, span
from repro.engine.rows import RowId
from repro.engine.table import _excluded

from .test_property_page_bounds import _Listed

_VALUES = st.one_of(
    st.integers(-5, 5),
    st.integers(-5, 5).map(float),
    st.sampled_from([0.0, -0.0, 0.5, -2.5, math.inf, -math.inf]),
)


@st.composite
def _side(draw):
    """One side of an interval: ``(value or None, inclusive)``."""
    if draw(st.booleans()):
        return None, draw(st.booleans())
    if draw(st.integers(0, 9)) == 0:
        return math.nan, False
    return draw(_VALUES), draw(st.booleans())


def _inside(key, low, high, include_low, include_high):
    above = low is None or key > low or (include_low and key == low)
    below = high is None or key < high or (include_high and key == high)
    return above and below


@settings(max_examples=400, deadline=None)
@given(st.lists(_VALUES, max_size=12).map(sorted), _side(), _side())
def test_span_is_the_brute_force_positions(keys, low_side, high_side):
    (low, include_low), (high, include_high) = low_side, high_side
    interval = (low, high, include_low, include_high)
    positions = span(keys, *interval)
    assert list(positions) == [
        at for at, key in enumerate(keys) if _inside(key, *interval)
    ]

    clock = VirtualClock()
    index = BTreeIndex("ix", "k", clock, DEFAULT_COST_MODEL)
    for at, key in enumerate(keys):
        index.insert(key, RowId(0, at))
    assert index.estimate_range(*interval) == len(positions)
    # Ties keep their insertion order, so a RowId names its key's position.
    assert list(index.range_scan(*interval)) == [RowId(0, at) for at in positions]
    assert _excluded(_Listed(keys), None, [(0, *interval)]) == (not positions)
