"""Property-based tests: DES lock invariants and queue delivery guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.sim import Environment, LockMode, RWLock
from repro.transport import PersistentQueue

_jobs = st.lists(
    st.tuples(
        st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
        st.floats(min_value=0.0, max_value=50.0),   # arrival
        st.floats(min_value=0.1, max_value=20.0),   # hold time
    ),
    min_size=1,
    max_size=15,
)


@given(_jobs)
@settings(max_examples=80, deadline=None)
def test_rwlock_safety_invariant(jobs):
    """At no simulated instant do a writer and any other holder coexist."""
    env = Environment()
    lock = RWLock(env)
    holders = {"readers": 0, "writer": False}
    violations = []

    def job(mode, arrival, hold):
        yield env.timeout(arrival)
        yield lock.acquire(mode)
        if mode is LockMode.EXCLUSIVE:
            if holders["writer"] or holders["readers"]:
                violations.append(env.now)
            holders["writer"] = True
        else:
            if holders["writer"]:
                violations.append(env.now)
            holders["readers"] += 1
        yield env.timeout(hold)
        if mode is LockMode.EXCLUSIVE:
            holders["writer"] = False
        else:
            holders["readers"] -= 1
        lock.release(mode)

    for mode, arrival, hold in jobs:
        env.process(job(mode, arrival, hold))
    env.run()
    assert violations == []
    assert holders == {"readers": 0, "writer": False}
    total = lock.shared_acquisitions + lock.exclusive_acquisitions
    assert total == len(jobs)  # nobody starved


_queue_scripts = st.lists(
    st.sampled_from(["enqueue", "receive_ack", "receive_nack", "crash"]),
    min_size=1,
    max_size=40,
)


@given(_queue_scripts)
@settings(max_examples=80, deadline=None)
def test_queue_never_loses_unacked_messages(script):
    """At-least-once delivery: every enqueued message is eventually
    deliverable unless it was explicitly acknowledged."""
    queue: PersistentQueue[int] = PersistentQueue(VirtualClock())
    next_message = 0
    outstanding: set[int] = set()
    acked: set[int] = set()

    for action in script:
        if action == "enqueue":
            queue.enqueue(next_message, 10)
            outstanding.add(next_message)
            next_message += 1
        elif action == "receive_ack":
            message = queue.receive()
            if message is not None:
                delivery, payload = message
                queue.ack(delivery)
                outstanding.discard(payload)
                acked.add(payload)
        elif action == "receive_nack":
            message = queue.receive()
            if message is not None:
                delivery, _payload = message
                queue.nack(delivery)
        else:  # crash: everything in flight is redelivered
            queue.recover()

    queue.recover()
    remaining = []
    while (message := queue.receive()) is not None:
        delivery, payload = message
        queue.ack(delivery)
        remaining.append(payload)
    assert set(remaining) == outstanding
    assert not (set(remaining) & acked)


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), max_size=20),
       st.floats(min_value=0.5, max_value=20.0),
       st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_availability_experiment_invariants(durations, query_ms, interarrival):
    """Query waits are bounded by the lock discipline.

    With a FIFO readers-writer lock and one maintenance process, a query's
    wait is at most the residual reader work when the writer queued (≤ one
    query) plus the writer's hold: the whole batch in batch mode, one unit
    in interleaved mode.  (Interleaved max wait can slightly exceed the
    batch *window* under query saturation — hypothesis found that — so the
    per-mode bounds, not a cross-mode comparison, are the real invariant.)
    """
    from repro.warehouse import run_availability_experiment

    batch = run_availability_experiment(
        durations, query_ms, interarrival, mode="batch", horizon_ms=2_000.0
    )
    online = run_availability_experiment(
        durations, query_ms, interarrival, mode="interleaved",
        horizon_ms=2_000.0,
    )
    assert batch.max_wait_ms <= query_ms + sum(durations) + 1e-6
    longest_unit = max(durations, default=0.0)
    # Between interleaved units the writer re-queues; each re-queue can add
    # one residual query before the unit runs.
    assert online.max_wait_ms <= (query_ms + longest_unit) * max(
        1, len(durations)
    ) + 1e-6
    for report in (batch, online):
        assert report.maintenance_busy_ms <= report.maintenance_span_ms + 1e-6
