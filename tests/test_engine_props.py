"""Equivalence properties of the event engine's drain paths.

A random program of ``schedule``, ``call_later``, ``enqueue``,
``rearm``, ``cancel`` and engine-native periodic counters (armed,
re-timed and stopped mid-run, with explicit heap compactions) —
including handlers that schedule and cancel while the drain runs — must
execute identically whether it is drained by one unbounded ``run()``,
by ``run(max_events=k)`` chunks of random size, by ``step()``, or by
``run(until=...)`` horizons.  The reference is the same program built
from plain primitives: every ``rearm`` replaced by ``schedule`` and
every counter by a callback that re-arms itself through
``call_later``.  The PUNO rollover counter is pinned against the same
reference tick.
"""

import heapq
import inspect
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.puno import DirectoryPUNO
from repro.sim import engine
from repro.sim.config import PUNOConfig
from repro.sim.engine import Event, PeriodicCounter, Simulator
from repro.sim.stats import Stats

# Spawned events per program: keeps each example small while handlers
# react to each other several generations deep.
SPAWN_LIMIT = 120
# Re-armed timer slots, each holding its latest handle the way a node
# holds its op timer: ("rearm", (slot, delay)) re-arms a slot and
# ("cancel_slot", slot) cancels whatever handle the slot holds.
SLOTS = 3
# Periodic counters per program; ("counter", period) arms one,
# ("period", (i, p)) re-times counter i, ("stop", i) stops it.  Once no
# spawned event is left to run, every counter stops, so each program
# drains.
MAX_COUNTERS = 3

ACTION = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 12)),
    st.tuples(st.just("call_later"), st.integers(0, 12)),
    st.tuples(st.just("enqueue"), st.integers(0, 12)),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
    st.tuples(st.just("rearm"), st.tuples(st.integers(0, SLOTS - 1),
                                          st.integers(0, 12))),
    st.tuples(st.just("cancel_slot"), st.integers(0, SLOTS - 1)),
    st.tuples(st.just("counter"), st.integers(1, 12)),
    st.tuples(st.just("period"), st.tuples(st.integers(0, 1 << 16),
                                           st.integers(1, 12))),
    st.tuples(st.just("stop"), st.integers(0, 1 << 16)),
    st.tuples(st.just("purge"), st.just(0)),
)
SETUP = st.lists(ACTION, max_size=30)
REACTIONS = st.lists(st.lists(ACTION, max_size=3), max_size=SPAWN_LIMIT)


def _is_live(item) -> bool:
    """A queued entry that will execute: no handle, a live handle, or a
    counter (whose ``cancelled`` always reads True)."""
    ev = item[2]
    return (ev is None or not ev.cancelled
            or isinstance(ev, PeriodicCounter))


def _live_in_heap(sim: Simulator) -> int:
    return sum(1 for item in sim._heap if _is_live(item))


def _reference_tick(sim: Simulator, counter: PeriodicCounter):
    """What the drain loop does for a native counter, as a callback
    that re-arms itself through ``call_later``."""
    def tick():
        if counter.active:
            counter.count += 1
            sim.call_later(counter.period, tick)
    return tick


def _build(setup, reactions, reference=False):
    """A simulator loaded with the program, the log its events append
    ``(tag, now, counts)`` to, and its counters.  Event ``tag`` runs
    ``reactions[tag]``; cancels pick a handle by index, executed ones
    included (a no-op).  ``reference`` builds the program from plain
    primitives: slots armed through ``schedule`` (a fresh handle per
    timer) instead of ``rearm``, and counters ticked by
    :func:`_reference_tick` instead of the engine."""
    sim = Simulator()
    log = []
    handles = []
    slots = [Event() for _ in range(SLOTS)]
    counters = []
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
        if kind == "purge":
            sim._purge()
            return
        if kind == "period":
            if counters:
                counters[arg[0] % len(counters)].period = arg[1]
            return
        if kind == "stop":
            if counters:
                counters[arg % len(counters)].active = False
            return
        if kind == "counter":
            if len(counters) < MAX_COUNTERS:
                counter = PeriodicCounter(arg)
                counters.append(counter)
                if reference:
                    sim.call_later(arg, _reference_tick(sim, counter))
                else:
                    sim.arm(counter)
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

    def stop_counters_when_done():
        if not any(item[3] is fire and _is_live(item) for item in sim._heap):
            for counter in counters:
                counter.active = False

    def fire(tag):
        log.append((tag, sim.now, tuple(c.count for c in counters)))
        if tag < len(reactions):
            for action in reactions[tag]:
                apply(action)
        stop_counters_when_done()

    for action in setup:
        apply(action)
    stop_counters_when_done()
    return sim, log, counters


def _state(sim, log, counters):
    """Everything two equivalent engines must agree on at any point."""
    return (list(log), sim.now, sim.events_processed, sim._seq,
            sim.live_events, [c.count for c in counters])


@settings(max_examples=150, deadline=None)
@given(SETUP, REACTIONS, st.lists(st.integers(1, 9), min_size=1,
                                  max_size=8))
def test_drain_paths_agree(setup, reactions, chunks):
    ref = _build(setup, reactions, reference=True)
    ref[0].run()
    assert ref[0].idle() and ref[0].live_events == 0

    whole = _build(setup, reactions)
    whole[0].run()

    chunked = _build(setup, reactions)
    sim = chunked[0]
    i = 0
    while not sim.idle():
        k = chunks[i % len(chunks)]
        i += 1
        before = sim.events_processed
        sim.run(max_events=k)
        done = sim.events_processed - before
        assert sim.live_events == _live_in_heap(sim)
        # a chunk stops short of its budget only on an empty heap
        assert done == k or sim.live_events == 0

    stepped = _build(setup, reactions)
    while stepped[0].step():
        assert stepped[0].live_events == _live_in_heap(stepped[0])
    assert stepped[0].idle()

    for run in (whole, chunked, stepped):
        assert _state(*run) == _state(*ref)


@settings(max_examples=100, deadline=None)
@given(SETUP, REACTIONS, st.lists(st.integers(1, 7), min_size=1,
                                  max_size=8))
def test_until_horizons_agree(setup, reactions, strides):
    ref = _build(setup, reactions, reference=True)
    ref[0].run()

    run = _build(setup, reactions)
    sim = run[0]
    i = 0
    while not sim.idle():
        sim.run(until=sim.now)  # the current cycle's followers only
        horizon = sim.now + strides[i % len(strides)]
        i += 1
        assert sim.run(until=horizon) == horizon
        assert sim.live_events == _live_in_heap(sim)
        assert all(item[0] > horizon for item in sim._heap
                   if _is_live(item))
    state, ref_state = _state(*run), _state(*ref)
    # the last horizon leaves the clock past the last event
    assert state[0] == ref_state[0] and state[2:] == ref_state[2:]


# ---------------------------------------------------------------------
# PUNO: the native rollover counter keeps call_later's seq order
# ---------------------------------------------------------------------

class _CallLaterPUNO(DirectoryPUNO):
    """Reference tick: the P-Buffer's rollover counter driven by
    :func:`_reference_tick` instead of the engine; the armed counter's
    heap entry is swapped for the callback's, under the same key."""

    def __init__(self, sim, *args):
        super().__init__(sim, *args)
        (time, seq, _, _, _), = sim._heap
        sim._heap[0] = (time, seq, None,
                        _reference_tick(sim, self.pbuffer), ())


def _puno_trace(unit_cls):
    """Events that land on, just before and just after the rollover
    ticks, each logging the tick count it observes; some re-arm
    same-cycle followers the way message deliveries do."""
    sim = Simulator()
    stats = Stats(4)
    unit = unit_cls(sim, 4, PUNOConfig(), stats)
    period = unit.pbuffer.period
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


# A counter ticking while a spawned event is pending: a re-arm that
# does not take a fresh seq shows in the sequence counter.
COUNTER_TICKS = ([("counter", 2), ("call_later", 5)], [])
# A compaction while a counter is queued: dropping its entry (its
# ``cancelled`` reads True) loses the counter's events.
PURGE_COUNTER = ([("counter", 5), ("purge", 0)], [])


@settings(max_examples=150, deadline=None)
@given(SETUP, REACTIONS)
@example(*CANCEL_SPENT)
@example(*CANCEL_QUEUED)
@example(*COUNTER_TICKS)
@example(*PURGE_COUNTER)
def test_rearm_matches_schedule_reference(setup, reactions):
    """Stepped side by side, the program and its plain-primitive
    reference agree after every event."""
    ref = _build(setup, reactions, reference=True)
    run = _build(setup, reactions)
    sim = run[0]
    assert _state(*run) == _state(*ref)
    while True:
        ran, ref_ran = sim.step(), ref[0].step()
        assert ran == ref_ran
        assert sim.live_events == _live_in_heap(sim)
        assert _state(*run) == _state(*ref)
        if not ran:
            break
    assert sim.idle() and ref[0].idle()


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


def _engine_mutant(method, old, new):
    """``Simulator.<method>`` with ``old`` in its source replaced by
    ``new``."""
    src = textwrap.dedent(inspect.getsource(getattr(Simulator, method)))
    assert src.count(old) == 1
    namespace = dict(vars(engine))
    exec(src.replace(old, new), namespace)
    return namespace[method]


# the drain loop re-arms a counter under the seq it already used
_drain_skipping_seq_bump = _engine_mutant("_drain", "self._seq = seq + 1",
                                          "pass")


def _purge_dropping_counters(self):
    """``Simulator._purge`` that drops whatever reads as cancelled."""
    self._heap[:] = [item for item in self._heap
                     if item[2] is None or not item[2].cancelled]
    heapq.heapify(self._heap)
    self._cancelled_in_heap = 0


@pytest.mark.parametrize("method, mutant", [
    ("_drain", _drain_skipping_seq_bump),
    ("_purge", _purge_dropping_counters)], ids=["seq_bump", "purge"])
def test_counter_property_catches_engine_mutants(monkeypatch, method,
                                                 mutant):
    monkeypatch.setattr(Simulator, method, mutant)
    with pytest.raises(AssertionError):
        test_rearm_matches_schedule_reference()


def test_counter_fires_as_events_and_stops_inert():
    sim = Simulator()
    counter = PeriodicCounter(3)
    sim.arm(counter)
    assert sim.counters == [counter] and sim.live_events == 1
    sim.run(until=7)
    assert counter.count == 2 and sim.events_processed == 2
    counter.period = 5
    sim.run(until=9)
    assert counter.count == 3  # at 9, re-armed for 14
    counter.active = False
    sim.run()
    assert counter.count == 3 and sim.events_processed == 4
    assert sim.now == 14 and sim.idle()


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
