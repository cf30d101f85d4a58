"""Equivalence properties of the event engine's drain paths.

A random program of ``schedule``, ``call_later``, ``enqueue``,
``rearm`` and ``cancel`` —
including handlers that schedule and cancel while the drain runs — must
execute identically whether it is drained by one unbounded ``run()``,
by ``run(max_events=k)`` chunks of random size, by ``step()``, or by
``run(until=...)`` horizons.  The same programs with every ``rearm``
replaced by ``schedule`` are the reference for handle reuse, and the
PUNO re-arm through ``enqueue`` is pinned against a reference tick
that re-arms through ``call_later``.
"""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.puno import DirectoryPUNO
from repro.sim.config import PUNOConfig
from repro.sim.engine import Event, Simulator
from repro.sim.stats import Stats

# Spawned events per program: keeps each example small while handlers
# react to each other several generations deep.
SPAWN_LIMIT = 120
# Re-armed timer slots, each holding its latest handle the way a node
# holds its op timer: ("rearm", (slot, delay)) re-arms a slot and
# ("cancel_slot", slot) cancels whatever handle the slot holds.
SLOTS = 3

ACTION = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 12)),
    st.tuples(st.just("call_later"), st.integers(0, 12)),
    st.tuples(st.just("enqueue"), st.integers(0, 12)),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
    st.tuples(st.just("rearm"), st.tuples(st.integers(0, SLOTS - 1),
                                          st.integers(0, 12))),
    st.tuples(st.just("cancel_slot"), st.integers(0, SLOTS - 1)),
)
SETUP = st.lists(ACTION, max_size=30)
REACTIONS = st.lists(st.lists(ACTION, max_size=3), max_size=SPAWN_LIMIT)


def _live_in_heap(sim: Simulator) -> int:
    return sum(1 for item in sim._heap
               if item[2] is None or not item[2].cancelled)


def _build(setup, reactions, reference=False):
    """A simulator loaded with the program, and the log its events
    append ``(tag, now)`` to.  Event ``tag`` runs ``reactions[tag]``;
    cancels pick a handle by index, executed ones included (a no-op).
    ``reference`` arms the slots through ``schedule`` (a fresh handle
    per timer) instead of ``rearm``."""
    sim = Simulator()
    log = []
    handles = []
    slots = [Event() for _ in range(SLOTS)]
    spawned = [0]

    def apply(action):
        kind, arg = action
        if kind == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
            return
        if kind == "cancel_slot":
            slots[arg].cancel()
            return
        if spawned[0] >= SPAWN_LIMIT:
            return
        tag = spawned[0]
        spawned[0] += 1
        if kind == "rearm":
            slot, delay = arg
            if reference:
                slots[slot] = sim.schedule(delay, fire, tag)
            else:
                slots[slot] = sim.rearm(slots[slot], sim.now + delay, fire,
                                        (tag,))
        elif kind == "schedule":
            handles.append(sim.schedule(arg, fire, tag))
        elif kind == "enqueue":
            sim.enqueue(sim.now + arg, fire, (tag,))
        else:
            sim.call_later(arg, fire, tag)

    def fire(tag):
        log.append((tag, sim.now))
        if tag < len(reactions):
            for action in reactions[tag]:
                apply(action)

    for action in setup:
        apply(action)
    return sim, log


@settings(max_examples=150, deadline=None)
@given(SETUP, REACTIONS, st.lists(st.integers(1, 9), min_size=1,
                                  max_size=8))
def test_drain_paths_agree(setup, reactions, chunks):
    ref, ref_log = _build(setup, reactions)
    ref.run()
    assert ref.idle() and ref.live_events == 0

    chunked, chunked_log = _build(setup, reactions)
    i = 0
    while not chunked.idle():
        k = chunks[i % len(chunks)]
        i += 1
        before = chunked.events_processed
        chunked.run(max_events=k)
        done = chunked.events_processed - before
        assert chunked.live_events == _live_in_heap(chunked)
        # a chunk stops short of its budget only on an empty heap
        assert done == k or chunked.live_events == 0

    stepped, stepped_log = _build(setup, reactions)
    while stepped.step():
        assert stepped.live_events == _live_in_heap(stepped)
    assert stepped.idle()

    for sim, log in ((chunked, chunked_log), (stepped, stepped_log)):
        assert log == ref_log
        assert sim.events_processed == ref.events_processed == len(ref_log)
        assert sim.now == ref.now


@settings(max_examples=100, deadline=None)
@given(SETUP, REACTIONS, st.lists(st.integers(1, 7), min_size=1,
                                  max_size=8))
def test_until_horizons_agree(setup, reactions, strides):
    ref, ref_log = _build(setup, reactions)
    ref.run()

    sim, log = _build(setup, reactions)
    i = 0
    while not sim.idle():
        sim.run(until=sim.now)  # the current cycle's followers only
        horizon = sim.now + strides[i % len(strides)]
        i += 1
        assert sim.run(until=horizon) == horizon
        assert sim.live_events == _live_in_heap(sim)
        assert all(item[0] > horizon for item in sim._heap
                   if item[2] is None or not item[2].cancelled)
    assert log == ref_log
    assert sim.events_processed == ref.events_processed


# ---------------------------------------------------------------------
# PUNO: the enqueue re-arm keeps call_later's seq order
# ---------------------------------------------------------------------

class _CallLaterPUNO(DirectoryPUNO):
    """Reference tick: the re-arm through call_later."""

    def _on_timeout(self) -> None:
        if not self._active:
            return
        self.pbuffer.decays += 1
        self.stats.puno_timeouts += 1
        self.sim.call_later(self._period, self._on_timeout)


def _puno_trace(unit_cls):
    """Events that land on, just before and just after the rollover
    ticks, each logging the tick count it observes; some re-arm
    same-cycle followers the way message deliveries do."""
    sim = Simulator()
    stats = Stats(4)
    unit = unit_cls(sim, 4, PUNOConfig(enabled=True), stats)
    period = unit._period
    log = []

    def probe(label):
        log.append((label, sim.now, stats.puno_timeouts))
        if label >= 1000:
            return
        if label % 3 == 0:
            sim.call_later(0, probe, label + 1000)
        if label % 5 == 0:
            sim.call_later(period, probe, label + 2000)

    for k in range(40):
        sim.call_later(k * period // 4, probe, k)
        sim.call_later(k * period // 4 + period, probe, 100 + k)
    sim.run(max_events=500)
    unit.stop()
    sim.run()
    return (log, stats.puno_timeouts, sim.events_processed, sim._seq,
            period)


def test_puno_rearm_matches_call_later_tick():
    real = _puno_trace(DirectoryPUNO)
    reference = _puno_trace(_CallLaterPUNO)
    assert real == reference
    log, ticks, events, _, period = real
    assert ticks > 10
    # probes really do share cycles with ticks, on both sides of them
    on_tick = [(label, now, seen) for label, now, seen in log
               if now and now % period == 0]
    assert {seen * period == now for _, now, seen in on_tick} == {True,
                                                                   False}
    assert events == len(log) + ticks + 1  # + the final no-op tick


# ---------------------------------------------------------------------
# rearm: reusing spent handles executes what fresh handles would
# ---------------------------------------------------------------------

# A timer that ran, then a cancel of the spent handle, then a re-arm:
# reusing the cancelled handle would skip the new timer.
CANCEL_SPENT = ([("rearm", (0, 1))], [[("cancel_slot", 0),
                                       ("rearm", (0, 2))]])
# Two re-arms of one slot while the first is still queued, then a
# cancel: sharing the queued handle would cancel both timers.
CANCEL_QUEUED = ([("rearm", (0, 5)), ("rearm", (0, 3)),
                  ("cancel_slot", 0)], [])


@settings(max_examples=150, deadline=None)
@given(SETUP, REACTIONS)
@example(*CANCEL_SPENT)
@example(*CANCEL_QUEUED)
def test_rearm_matches_schedule_reference(setup, reactions):
    ref, ref_log = _build(setup, reactions, reference=True)
    sim, log = _build(setup, reactions)
    assert sim.live_events == ref.live_events
    while True:
        ran, ref_ran = sim.step(), ref.step()
        assert ran == ref_ran
        assert sim.live_events == ref.live_events == _live_in_heap(sim)
        assert log == ref_log and sim.now == ref.now
        if not ran:
            break
    assert sim.idle() and ref.idle()
    assert sim.events_processed == ref.events_processed == len(ref_log)


def _mutant_rearm(reuse):
    """``Simulator.rearm`` with its reuse test replaced by ``reuse``."""
    def rearm(self, ev, time, fn, args):
        if reuse(ev):
            ev.sim = self
        else:
            ev = Event(self)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, ev, fn, args))
        return ev
    return rearm


# each drops one half of the has-run-and-not-cancelled test
_rearm_reusing_cancelled = _mutant_rearm(lambda ev: ev.sim is None)
_rearm_reusing_queued = _mutant_rearm(lambda ev: not ev.cancelled)


@pytest.mark.parametrize("mutant", [_rearm_reusing_cancelled,
                                    _rearm_reusing_queued])
def test_rearm_property_catches_unsafe_reuse(monkeypatch, mutant):
    monkeypatch.setattr(Simulator, "rearm", mutant)
    with pytest.raises(AssertionError):
        test_rearm_matches_schedule_reference()


def test_rearm_reuses_only_spent_handles():
    sim = Simulator()
    first = sim.rearm(Event(), 1, lambda: None, ())
    assert sim.rearm(first, 2, lambda: None, ()) is not first  # queued
    sim.run()
    assert sim.rearm(first, 3, lambda: None, ()) is first  # spent
    first.cancel()
    assert sim.rearm(first, 4, lambda: None, ()) is not first  # cancelled
    sim.run()
    assert sim.idle() and sim.events_processed == 3
