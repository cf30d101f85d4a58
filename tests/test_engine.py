"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import PeriodicCounter, Simulator


def test_schedule_and_run_order(sim):
    order = []
    sim.schedule(5, order.append, "b")
    sim.schedule(1, order.append, "a")
    sim.schedule(9, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9


def test_same_cycle_fifo(sim):
    """Events in the same cycle run in scheduling order."""
    order = []
    for i in range(10):
        sim.schedule(3, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_zero_delay_runs_after_queued_same_cycle(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(0, order.append, "nested")

    sim.schedule(1, first)
    sim.schedule(1, order.append, "second")
    sim.run()
    assert order == ["first", "second", "nested"]


@pytest.mark.skipif(not __debug__, reason="schedule validation follows "
                    "__debug__: python -O drops it")
def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


@pytest.mark.parametrize("period", [0, -3])
def test_arm_rejects_period_below_one(sim, period):
    with pytest.raises(ValueError, match="period"):
        sim.arm(PeriodicCounter(period))
    assert sim.counters == [] and sim.idle()


def test_schedule_at(sim):
    hits = []
    sim.schedule_at(7, hits.append, 1)
    sim.run()
    assert sim.now == 7 and hits == [1]
    with pytest.raises(ValueError):
        sim.schedule_at(3, hits.append, 2)


def test_cancel(sim):
    hits = []
    ev = sim.schedule(4, hits.append, "x")
    sim.schedule(2, ev.cancel)
    sim.run()
    assert hits == []


def test_run_until(sim):
    hits = []
    sim.schedule(10, hits.append, 1)
    sim.schedule(30, hits.append, 2)
    sim.run(until=20)
    assert hits == [1]
    assert sim.now == 20
    sim.run()
    assert hits == [1, 2]


def test_run_until_advances_clock_with_empty_heap(sim):
    sim.run(until=100)
    assert sim.now == 100


def test_run_until_past_cycle_rejected(sim):
    """A horizon before the clock raises, as schedule_at does for a past
    time: it used to move the clock back, so a zero-delay callback then
    ran at an earlier cycle than events already executed."""
    hits = []
    sim.call_later(100, hits.append, "a")
    sim.call_later(200, hits.append, "b")
    assert sim.run(until=150) == 150
    with pytest.raises(ValueError, match="past cycle"):
        sim.run(until=120)
    assert sim.now == 150
    sim.call_later(0, lambda: hits.append(sim.now))
    sim.run()  # the guard left the simulator runnable
    assert hits == ["a", 150, "b"] and sim.now == 200


def test_negative_max_events_rejected(sim):
    """A negative budget raises instead of draining the whole heap."""
    sim.call_later(1, lambda: None)
    with pytest.raises(ValueError, match="negative max_events"):
        sim.run(max_events=-1)
    assert sim.events_processed == 0 and sim.live_events == 1


def test_max_events(sim):
    hits = []
    for i in range(5):
        sim.schedule(i + 1, hits.append, i)
    sim.run(max_events=3)
    assert hits == [0, 1, 2]
    sim.run()
    assert hits == [0, 1, 2, 3, 4]


def test_step(sim):
    hits = []
    sim.schedule(2, hits.append, "a")
    assert sim.step() is True
    assert hits == ["a"] and sim.now == 2
    assert sim.step() is False


def test_events_processed_counts(sim):
    for i in range(7):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_not_reentrant(sim):
    def recurse():
        with pytest.raises(RuntimeError):
            sim.run()

    sim.schedule(1, recurse)
    sim.run()


def test_step_not_reentrant(sim):
    """step() shares run()'s re-entrancy guard: calling it from inside
    a callback fails loudly instead of corrupting the clock."""
    hits = []

    def recurse():
        hits.append("outer")
        with pytest.raises(RuntimeError):
            sim.step()

    sim.schedule(1, recurse)
    sim.schedule(2, hits.append, "after")
    sim.run()
    assert hits == ["outer", "after"]
    assert sim.now == 2
    # the guard is released afterwards: step() works again
    sim.schedule(1, hits.append, "post")
    assert sim.step() is True
    assert hits == ["outer", "after", "post"]


def test_mass_cancel_inside_callback_keeps_heap_alias(sim):
    """The run loop holds a direct alias to the heap list; a purge
    triggered by >_PURGE_FLOOR cancels from *inside* a callback must
    compact that same list object (slice assignment), or the loop
    would keep draining a stale snapshot.  Exercises the compaction
    racing the run loop and asserts both the alias identity and that
    the surviving schedule still executes in deterministic order."""
    from repro.sim.engine import _PURGE_FLOOR

    hits = []
    heap_ids = []
    # enough victims that cancelled entries exceed both the absolute
    # floor and half the heap, forcing _purge mid-run
    victims = [sim.schedule(100 + i, hits.append, f"dead{i}")
               for i in range(2 * _PURGE_FLOOR)]
    survivors_before = len(sim._heap)
    heap_id = id(sim._heap)

    def massacre():
        heap_ids.append(id(sim._heap))
        for ev in victims:
            ev.cancel()
        # a purge fired mid-burst (cancelled entries crossed the floor
        # and half the heap): the heap is now smaller than the victim
        # count even though every victim was cancelled, and the object
        # is still the same list the run loop iterates
        assert len(sim._heap) < len(victims)
        assert sim._cancelled_in_heap < len(victims)
        heap_ids.append(id(sim._heap))

    sim.schedule(10, massacre)
    sim.schedule(20, hits.append, "a")
    sim.schedule(500, hits.append, "b")
    assert sim.pending == survivors_before + 3
    sim.run()
    assert heap_ids == [heap_id, heap_id]
    assert id(sim._heap) == heap_id
    assert hits == ["a", "b"]
    assert sim.now == 500
    assert sim.events_processed == 3  # massacre, "a", "b"


def test_cancel_own_future_events_interleaved(sim):
    """Repeated cancel bursts from callbacks (timeout-style churn)
    keep ordering deterministic across multiple purges."""
    hits = []
    pool = []

    def burst(tag):
        hits.append(tag)
        for ev in pool:
            ev.cancel()
        pool.clear()
        pool.extend(sim.schedule(sim.now + 50 + i, hits.append, f"x{tag}{i}")
                    for i in range(80))

    for t in (10, 20, 30):
        sim.schedule(t, burst, t)
    sim.schedule(25, hits.append, "mid")
    sim.run(until=40)
    assert hits == [10, 20, "mid", 30]
    # the last burst's events are still pending and live
    assert sim.live_events == 80


def test_idle_ignores_cancelled(sim):
    ev = sim.schedule(5, lambda: None)
    assert not sim.idle()
    ev.cancel()
    assert sim.idle()


def test_live_event_count_tracks_schedule_cancel_run(sim):
    evs = [sim.schedule(i + 1, lambda: None) for i in range(4)]
    assert sim.live_events == 4
    evs[0].cancel()
    assert sim.live_events == 3
    evs[0].cancel()  # idempotent: no double decrement
    assert sim.live_events == 3
    sim.run()
    assert sim.live_events == 0 and sim.idle()
    assert sim.events_processed == 3


def test_cancel_after_execution_is_noop(sim):
    ev = sim.schedule(1, lambda: None)
    sim.run()
    assert sim.live_events == 0
    ev.cancel()  # already executed: must not corrupt the live count
    assert sim.live_events == 0
    sim.schedule(1, lambda: None)
    assert sim.live_events == 1 and not sim.idle()


def test_idle_is_constant_time(sim):
    """idle() reads a counter — no heap scan, same answer as before."""
    evs = [sim.schedule(5, lambda: None) for _ in range(10)]
    assert not sim.idle()
    for ev in evs:
        ev.cancel()
    assert sim.idle()


def test_lazy_purge_compacts_heap(sim):
    """Mass cancellation shrinks the heap without waiting for pops."""
    evs = [sim.schedule(i + 1, lambda: None) for i in range(300)]
    for ev in evs[:250]:
        ev.cancel()
    assert sim.live_events == 50
    # cancelled entries exceeded half the heap -> compaction happened
    assert sim.pending < 300
    order = []
    sim.schedule(1000, order.append, "last")
    sim.run()
    assert sim.events_processed == 51 and order == ["last"]


def test_purge_during_run_keeps_determinism(sim):
    """Cancelling en masse from inside a callback (which compacts the
    heap mid-run) must not disturb execution order."""
    hits = []
    victims = [sim.schedule(50 + i, hits.append, f"dead{i}")
               for i in range(200)]
    sim.schedule(10, lambda: [ev.cancel() for ev in victims])
    sim.schedule(20, hits.append, "a")
    sim.schedule(300, hits.append, "b")
    sim.run()
    assert hits == ["a", "b"]
    assert sim.now == 300


def test_until_with_exhausted_budget_keeps_clock(sim):
    """Budget expiring with live work pending must not advance to
    ``until`` — the interval was not fully simulated."""
    for t in (10, 20, 30):
        sim.schedule(t, lambda: None)
    sim.run(until=50, max_events=2)
    assert sim.now == 20  # stopped at the last executed event
    sim.run(until=50)
    assert sim.now == 50


def test_until_with_budget_and_only_cancelled_events(sim):
    """Cancelled events never charge the budget nor hold the clock:
    with nothing live before ``until``, the clock reaches it even at
    max_events=0 (previously the budget break left now untouched)."""
    for t in (5, 15):
        sim.schedule(t, lambda: None).cancel()
    sim.run(until=50, max_events=0)
    assert sim.now == 50
    assert sim.events_processed == 0


def test_until_budget_live_event_blocks_clock(sim):
    sim.schedule(5, lambda: None).cancel()
    sim.schedule(20, lambda: None)
    sim.run(until=50, max_events=0)
    # a live event at t=20 is still pending: clock must not jump it
    assert sim.now == 0
    sim.run(until=50, max_events=1)
    assert sim.now == 50  # event ran, rest of the interval is empty
    assert sim.events_processed == 1


def test_clock_monotonic_across_many_events(sim):
    times = []
    import random
    rng = random.Random(0)
    for _ in range(200):
        sim.schedule(rng.randint(0, 50), lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
