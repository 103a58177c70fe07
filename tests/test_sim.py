"""Tests for the discrete-event kernel and the readers-writer lock."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, LockMode, RWLock


class TestEnvironment:
    def test_timeout_advances_time(self):
        env = Environment()
        log = []

        def process():
            yield env.timeout(10)
            log.append(env.now)
            yield env.timeout(5)
            log.append(env.now)

        env.process(process())
        env.run()
        assert log == [10, 15]

    def test_processes_interleave(self):
        env = Environment()
        log = []

        def worker(name, delay):
            yield env.timeout(delay)
            log.append((name, env.now))

        env.process(worker("slow", 20))
        env.process(worker("fast", 5))
        env.run()
        assert log == [("fast", 5), ("slow", 20)]

    def test_join_another_process(self):
        env = Environment()
        log = []

        def child():
            yield env.timeout(7)
            return "result"

        def parent():
            value = yield env.process(child())
            log.append((env.now, value))

        env.process(parent())
        env.run()
        assert log == [(7, "result")]

    def test_run_until(self):
        env = Environment()

        def forever():
            while True:
                yield env.timeout(10)

        env.process(forever())
        assert env.run(until=35) == 35

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_yielding_non_event_rejected(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_all_of(self):
        env = Environment()
        log = []

        def worker(delay):
            yield env.timeout(delay)

        def waiter():
            # Waiting on all of several processes: join each in turn.
            first = env.process(worker(5))
            second = env.process(worker(12))
            yield first
            yield second
            log.append(env.now)

        env.process(waiter())
        env.run()
        assert log == [12]


class TestRWLock:
    def test_readers_share(self):
        env = Environment()
        lock = RWLock(env)
        log = []

        def reader(name):
            yield lock.acquire(LockMode.SHARED)
            log.append((name, "in", env.now))
            yield env.timeout(10)
            lock.release(LockMode.SHARED)

        env.process(reader("a"))
        env.process(reader("b"))
        env.run()
        # Both entered at t=0: shared access.
        assert [(n, t) for n, _e, t in log] == [("a", 0), ("b", 0)]

    def test_writer_excludes_readers(self):
        env = Environment()
        lock = RWLock(env)
        log = []

        def writer():
            yield lock.acquire(LockMode.EXCLUSIVE)
            yield env.timeout(10)
            lock.release(LockMode.EXCLUSIVE)

        def reader():
            yield env.timeout(1)  # arrive while writer holds the lock
            yield lock.acquire(LockMode.SHARED)
            log.append(env.now)
            lock.release(LockMode.SHARED)

        env.process(writer())
        env.process(reader())
        env.run()
        assert log == [10]

    def test_writer_waits_for_readers(self):
        env = Environment()
        lock = RWLock(env)
        log = []

        def reader():
            yield lock.acquire(LockMode.SHARED)
            yield env.timeout(8)
            lock.release(LockMode.SHARED)

        def writer():
            yield env.timeout(1)
            yield lock.acquire(LockMode.EXCLUSIVE)
            log.append(env.now)
            lock.release(LockMode.EXCLUSIVE)

        env.process(reader())
        env.process(writer())
        env.run()
        assert log == [8]

    def test_fifo_fairness_no_writer_starvation(self):
        env = Environment()
        lock = RWLock(env)
        log = []

        def reader(name, arrival):
            yield env.timeout(arrival)
            yield lock.acquire(LockMode.SHARED)
            log.append((name, env.now))
            yield env.timeout(10)
            lock.release(LockMode.SHARED)

        def writer(arrival):
            yield env.timeout(arrival)
            yield lock.acquire(LockMode.EXCLUSIVE)
            log.append(("w", env.now))
            yield env.timeout(5)
            lock.release(LockMode.EXCLUSIVE)

        env.process(reader("r1", 0))
        env.process(writer(1))
        env.process(reader("r2", 2))  # must queue behind the writer (FIFO)
        env.run()
        assert log == [("r1", 0), ("w", 10), ("r2", 15)]

    def test_release_underflow(self):
        env = Environment()
        lock = RWLock(env)
        with pytest.raises(SimulationError):
            lock.release(LockMode.SHARED)
        with pytest.raises(SimulationError):
            lock.release(LockMode.EXCLUSIVE)

    def test_telemetry_counters(self):
        env = Environment()
        lock = RWLock(env)

        def one_of_each():
            yield lock.acquire(LockMode.SHARED)
            lock.release(LockMode.SHARED)
            yield lock.acquire(LockMode.EXCLUSIVE)
            lock.release(LockMode.EXCLUSIVE)

        env.process(one_of_each())
        env.run()
        assert lock.shared_acquisitions == 1
        assert lock.exclusive_acquisitions == 1
