"""Unit tests for Mutex and BoundedQueue."""

import pytest

from repro.sim import Simulator, Process, Mutex, BoundedQueue, QueueClosed


def spawn(sim, gen, name="p"):
    return Process(sim, gen, name).start()


class TestMutex:
    def test_uncontended_acquire(self):
        sim = Simulator()
        mutex = Mutex(sim)
        log = []

        def proc():
            yield from mutex.acquire("a")
            log.append("held")
            mutex.release()

        spawn(sim, proc())
        sim.run()
        assert log == ["held"]
        assert not mutex.locked

    def test_mutual_exclusion(self):
        sim = Simulator()
        mutex = Mutex(sim)
        log = []

        def proc(name, hold):
            yield from mutex.acquire(name)
            log.append(("enter", name, sim.now))
            yield hold
            log.append(("exit", name, sim.now))
            mutex.release()

        spawn(sim, proc("a", 100))
        spawn(sim, proc("b", 50))
        sim.run()
        # b cannot enter until a exits at t=100
        assert log == [
            ("enter", "a", 0),
            ("exit", "a", 100),
            ("enter", "b", 100),
            ("exit", "b", 150),
        ]

    def test_try_acquire(self):
        sim = Simulator()
        mutex = Mutex(sim)
        assert mutex.try_acquire("x") is True
        assert mutex.try_acquire("y") is False
        mutex.release()
        assert mutex.try_acquire("y") is True

    def test_release_unlocked_raises(self):
        sim = Simulator()
        mutex = Mutex(sim)
        with pytest.raises(RuntimeError):
            mutex.release()

    def test_contention_count(self):
        sim = Simulator()
        mutex = Mutex(sim)

        def holder():
            yield from mutex.acquire("h")
            yield 100
            mutex.release()

        def contender():
            yield 10
            yield from mutex.acquire("c")
            mutex.release()

        spawn(sim, holder())
        spawn(sim, contender())
        sim.run()
        assert mutex.contention_count == 1
        assert mutex.acquire_count == 2


class TestBoundedQueue:
    def test_put_get_order(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=10)
        got = []

        def producer():
            for i in range(5):
                yield from q.put(i)

        def consumer():
            for _ in range(5):
                item = yield from q.get()
                got.append(item)

        spawn(sim, producer())
        spawn(sim, consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_put_blocks_when_full(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=2)
        log = []

        def producer():
            for i in range(4):
                yield from q.put(i)
                log.append(("put", i, sim.now))

        def slow_consumer():
            yield 100
            while len(q):
                yield from q.get()
                yield 100

        spawn(sim, producer())
        spawn(sim, slow_consumer())
        sim.run()
        put_times = {i: t for (_op, i, t) in log}
        assert put_times[0] == 0 and put_times[1] == 0
        assert put_times[2] == 100  # blocked until first get
        assert put_times[3] == 200

    def test_get_blocks_when_empty(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=2)
        log = []

        def consumer():
            item = yield from q.get()
            log.append((item, sim.now))

        def producer():
            yield 77
            yield from q.put("late")

        spawn(sim, consumer())
        spawn(sim, producer())
        sim.run()
        assert log == [("late", 77)]

    def test_try_put_and_try_get(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=1)
        assert q.try_put("a") is True
        assert q.try_put("b") is False
        ok, item = q.try_get()
        assert ok and item == "a"
        ok, item = q.try_get()
        assert not ok and item is None

    def test_unbounded_never_full(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=None)
        for i in range(1000):
            assert q.try_put(i)
        assert not q.is_full()

    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BoundedQueue(sim, capacity=0)

    def test_close_drains_then_raises(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=4)
        q.try_put("last")
        q.close()
        results = []

        def consumer():
            try:
                while True:
                    item = yield from q.get()
                    results.append(item)
            except QueueClosed:
                results.append("closed")

        spawn(sim, consumer())
        sim.run()
        assert results == ["last", "closed"]

    def test_put_to_closed_raises(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=4)
        q.close()

        def producer():
            yield from q.put("x")

        spawn(sim, producer())
        with pytest.raises(QueueClosed):
            sim.run()

    def test_max_occupancy_tracked(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=10)
        for i in range(7):
            q.try_put(i)
        for _ in range(3):
            q.try_get()
        assert q.max_occupancy == 7

    def test_peek(self):
        sim = Simulator()
        q = BoundedQueue(sim)
        assert q.peek() is None
        q.try_put("head")
        q.try_put("tail")
        assert q.peek() == "head"
        assert len(q) == 2
