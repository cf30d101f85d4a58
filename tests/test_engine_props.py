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
``call_later``.  Lockstep programs arm eight or more counters of one
period in one cycle, so the engine queues them as one batch entry
and, while they share a period and all run, fires it in one pass;
the reference is then compared after every chunk, step and horizon,
live count and sequence counter included, with budgets aimed at a
batch's last tick and one tick before it.  The PUNO rollover counter
is pinned against the same reference tick, with several directories
ticking in lockstep on one engine.
"""

import heapq
import inspect
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.puno import DirectoryPUNO
from repro.network.message import Message, MessageType, TxTag
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
# drains.  Lockstep programs arm 8 or more of one period.
MAX_COUNTERS = 12
LOCKSTEP_COUNTERS = (8, MAX_COUNTERS)

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


@st.composite
def lockstep_programs(draw):
    """8 or more counters of one period armed in one cycle, with
    events on their first tick cycle armed between two of them, the
    first spawned event re-timing one counter and one follower (to the
    batch's period or another), some spawned event stopping a
    follower, then a random tail.  The first spawned event outlives
    the first ticks, so whole batches fire in one pass before it."""
    period = draw(st.integers(1, 12))
    n = draw(st.integers(*LOCKSTEP_COUNTERS))
    setup = []
    for _ in range(n):
        setup.append(("counter", period))
        if draw(st.integers(0, 3)) == 0:
            setup.append(("enqueue", period))  # between two counters
    setup.insert(0, ("call_later", draw(st.integers(period, 4 * period))))
    setup += draw(st.lists(ACTION, max_size=10))
    retime = ("period", (draw(st.integers(0, 1 << 16)),
                         draw(st.integers(1, 12))))
    retime_follower = ("period", (draw(st.integers(1, n - 1)),
                                  draw(st.sampled_from([period,
                                                        period + 1]))))
    reactions = draw(REACTIONS) or [[]]
    reactions[0] = [retime, retime_follower] + reactions[0]
    stop = ("stop", draw(st.integers(1, n - 1)))
    reactions[draw(st.integers(0, len(reactions) - 1))].insert(0, stop)
    return setup, reactions


PROGRAMS = st.one_of(st.tuples(SETUP, REACTIONS), lockstep_programs())
# max_events chunks and until strides; 0 and -1 are aimed at the next
# cycle of counter ticks (see _aimed): its last tick, and one before it
CHUNKS = st.lists(st.integers(-1, 9), min_size=1, max_size=8)
STRIDES = st.lists(st.integers(-1, 7), min_size=1, max_size=8)


def _is_live(item) -> bool:
    """A queued entry that will execute: no handle, a live handle, or a
    counter (whose ``cancelled`` always reads True)."""
    ev = item[2]
    return (ev is None or not ev.cancelled
            or isinstance(ev, PeriodicCounter))


def _live_in_heap(sim: Simulator) -> int:
    """Live events in the heap, each counter follower counted."""
    return sum(1 + len(item[4] or ()) if isinstance(item[2], PeriodicCounter)
               else 1 for item in sim._heap if _is_live(item))


def _reference_tick(sim: Simulator, counter: PeriodicCounter):
    """What the drain loop does for a native counter, as a callback
    that re-arms itself through ``call_later``."""
    def tick():
        if counter.active:
            counter.count += 1
            sim.call_later(counter.period, tick)
    return tick


def _aimed(sim: Simulator, k: int):
    """``(horizon, budget)`` for a drawn chunk or stride ``k`` whose
    run should end with the ticks of the next cycle a counter is due
    in: the budget of ``k == 0`` covers every live event queued up to
    and including that cycle's last counter entry, followers counted,
    so a lockstep batch ends exactly at it; ``k == -1`` stops one tick
    before.  None without a queued counter."""
    entries = [item for item in sim._heap
               if isinstance(item[2], PeriodicCounter)]
    if not entries:
        return None
    horizon = min(item[0] for item in entries)
    last = max(item[:2] for item in entries if item[0] == horizon)
    budget = sum(1 + len(item[4] or ()) if isinstance(item[2],
                                                      PeriodicCounter)
                 else 1 for item in sim._heap
                 if item[:2] <= last and _is_live(item))
    return horizon, budget + k


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


# Eight counters of period 3 armed in one cycle, an event on their first
# tick cycle between the fourth and the fifth, and the first spawned
# event re-timing one of them at a tick cycle: a batch entry split
# around the event, merged again, then left by the re-timed counter.
LOCKSTEP = ([("call_later", 12)] + [("counter", 3)] * 4 + [("enqueue", 3)]
            + [("counter", 3)] * 4,
            [[("period", (2, 5)), ("call_later", 12)]])


@settings(max_examples=150, deadline=None)
@given(PROGRAMS, CHUNKS)
@example(LOCKSTEP, [1, 2, 5])
@example(LOCKSTEP, [0, -1, 0, 3])
def test_drain_paths_agree(program, chunks):
    """One unbounded ``run()`` ends where the reference does, and
    ``max_events`` chunks agree with the reference drained in the same
    chunks after every chunk.  Chunks of 0 and -1 end at the next
    counter entry's last tick and one tick before it."""
    ref = _build(*program, reference=True)
    ref[0].run()
    assert ref[0].idle() and ref[0].live_events == 0
    whole = _build(*program)
    whole[0].run()
    assert _state(*whole) == _state(*ref)

    ref = _build(*program, reference=True)
    chunked = _build(*program)
    sim = chunked[0]
    i = 0
    while not sim.idle():
        k = chunks[i % len(chunks)]
        i += 1
        if k < 1:
            aimed = _aimed(sim, k)
            k = max(1, aimed[1]) if aimed else 1
        before = sim.events_processed
        sim.run(max_events=k)
        ref[0].run(max_events=k)
        assert _state(*chunked) == _state(*ref)
        assert sim.live_events == _live_in_heap(sim)
        # a chunk stops short of its budget only on an empty heap
        assert sim.events_processed - before == k or sim.live_events == 0
    assert ref[0].idle()


@settings(max_examples=100, deadline=None)
@given(PROGRAMS, STRIDES)
@example(LOCKSTEP, [3, 1])
@example(LOCKSTEP, [0, -1, 2])
def test_until_horizons_agree(program, strides):
    """``run(until=...)`` horizons, the reference run to the same
    horizons, agree after every horizon.  A stride of 0 ends at the
    next counter entry's cycle; -1 gives that horizon a ``max_events``
    budget that ends one tick inside the entry, so the clock stays
    put."""
    ref = _build(*program, reference=True)
    run = _build(*program)
    sim = run[0]
    i = 0
    while not sim.idle():
        sim.run(until=sim.now)  # the current cycle's followers only
        ref[0].run(until=sim.now)
        assert _state(*run) == _state(*ref)
        stride = strides[i % len(strides)]
        i += 1
        aimed = _aimed(sim, stride) if stride < 1 else None
        if aimed is not None and stride < 0:
            horizon, budget = aimed
            budget = max(1, budget)
            now = sim.run(until=horizon, max_events=budget)
            ref[0].run(until=horizon, max_events=budget)
            assert _state(*run) == _state(*ref)
            assert now == horizon or any(
                item[0] <= horizon for item in sim._heap if _is_live(item))
            continue
        horizon = aimed[0] if aimed else sim.now + max(1, stride)
        assert sim.run(until=horizon) == horizon
        ref[0].run(until=horizon)
        assert _state(*run) == _state(*ref)
        assert sim.live_events == _live_in_heap(sim)
        assert all(item[0] > horizon for item in sim._heap
                   if _is_live(item))
    assert ref[0].idle()


# ---------------------------------------------------------------------
# PUNO: the native rollover counter keeps call_later's seq order
# ---------------------------------------------------------------------

class _CallLaterPUNO(DirectoryPUNO):
    """Reference tick: the P-Buffer's rollover counter driven by
    :func:`_reference_tick` instead of the engine; the armed counter's
    heap entry is swapped for the callback's, under the same key."""

    def __init__(self, sim, *args):
        super().__init__(sim, *args)
        i, = [i for i, item in enumerate(sim._heap)
              if item[2] is self.pbuffer]
        time, seq = sim._heap[i][:2]
        sim._heap[i] = (time, seq, None,
                        _reference_tick(sim, self.pbuffer), ())


# Directories per PUNO trace: all armed in one cycle with one period,
# so their ticks share cycles and the engine batches them.
PUNO_UNITS = 8


def _puno_trace(unit_cls):
    """Events that land on, just before and just after the rollover
    ticks of several directories on one engine, each logging the tick
    counts it observes; some re-arm same-cycle followers the way
    message deliveries do.  One probe is armed between the fourth and
    the fifth directory, so it runs between two ticks of one cycle, and
    one request re-times the third directory mid-run.  Returns the
    trace and, apart, the most followers one heap entry held."""
    sim = Simulator()
    stats = Stats(4)
    cfg = PUNOConfig()
    log = []
    widest = [0]
    units = []

    def probe(label):
        log.append((label, sim.now,
                    tuple(unit.pbuffer.count for unit in units)))
        widest[0] = max([widest[0]] + [len(item[4]) for item in sim._heap
                                       if item[3] is None and item[4]])
        if label == 7:
            units[2].observe_request(Message(
                MessageType.GETX, 0, 1, 0, requester=1, req_id=1,
                tx=TxTag(1, sim.now, 0, 3 * period)))
        if label >= 1000:
            return
        if label % 3 == 0:
            sim.call_later(0, probe, label + 1000)
        if label % 5 == 0:
            sim.call_later(period, probe, label + 2000)

    for u in range(PUNO_UNITS):
        units.append(unit_cls(sim, 4, cfg, stats))
        period = units[0].pbuffer.period
        if u == 3:
            sim.call_later(period, probe, 999)
    for k in range(40):
        sim.call_later(k * period // 4, probe, k)
        sim.call_later(k * period // 4 + period, probe, 100 + k)
    sim.run(max_events=1500)
    for unit in units:
        unit.stop()
    sim.run()
    retimed = units[2].pbuffer.period
    return (log, stats.puno_timeouts, sim.events_processed, sim._seq,
            period, retimed), widest[0]


def test_puno_rearm_matches_call_later_tick():
    real, widest = _puno_trace(DirectoryPUNO)
    reference, _ = _puno_trace(_CallLaterPUNO)
    assert real == reference
    log, ticks, events, _, period, retimed = real
    assert ticks > 10 * PUNO_UNITS and retimed != period
    # the directories' ticks really were queued as batches
    assert widest >= PUNO_UNITS // 2 - 1
    # probes really do share cycles with ticks, on both sides of them,
    # and between two directories' ticks of one cycle
    on_tick = [(now, seen) for _, now, seen in log
               if now and now % period == 0]
    assert {seen[0] * period == now for now, seen in on_tick} == {True,
                                                                  False}
    assert any(seen[3] * period == now != seen[4] * period
               for now, seen in on_tick)
    assert events == len(log) + ticks + PUNO_UNITS  # + final no-op ticks


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
@given(PROGRAMS)
@example(CANCEL_SPENT)
@example(CANCEL_QUEUED)
@example(COUNTER_TICKS)
@example(PURGE_COUNTER)
@example(LOCKSTEP)
def test_rearm_matches_schedule_reference(program):
    """Stepped side by side, the program and its plain-primitive
    reference agree after every event."""
    ref = _build(*program, reference=True)
    run = _build(*program)
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


def _engine_mutant(method, *edits):
    """``Simulator.<method>`` with each ``(old, new)`` of ``edits``
    applied to its source, every occurrence of ``old`` replaced."""
    src = textwrap.dedent(inspect.getsource(getattr(Simulator, method)))
    for old, new in edits:
        assert old in src
        src = src.replace(old, new)
    namespace = dict(vars(engine))
    exec(src, namespace)
    return namespace[method]


# the drain loop re-arms a counter under the seq it already used
_drain_skipping_seq_bump = _engine_mutant("_drain",
                                          ("self._seq = s + 1", "pass"))
# a batch runs to the end of its cycle whatever the budget says
_drain_firing_whole_cycle = _engine_mutant(
    "_drain", ("if not budget:", "if False:"),
    ("while budget and heap:", "while budget > 0 and heap:"))
# the followers of a batch entry are not counted as live events
_drain_counting_batch_as_one = _engine_mutant(
    "_drain", ("self._followers -= len(args)", "pass"))


def _queue_counting_batch_as_one(self, time, seq, counter, followers):
    """``Simulator._queue`` that leaves the follower total alone."""
    heapq.heappush(self._heap, (time, seq, counter, None, followers))


# the one-pass path leaves the first follower's count alone
_drain_one_pass_skipping_count = _engine_mutant(
    "_drain", ("c.count += 1", "c.count += c is not args[0]"))
# the one-pass path takes one seq too few
_drain_one_pass_short_seq = _engine_mutant(
    "_drain", ("self._seq = s + n", "self._seq = s + n - 1"))
# the one-pass path fires followers of another period at the head's
_drain_one_pass_mixed_periods = _engine_mutant(
    "_drain", ("if not c.active or c.period != period:",
               "if not c.active:"))


def _purge_dropping_counters(self):
    """``Simulator._purge`` that drops whatever reads as cancelled."""
    self._heap[:] = [item for item in self._heap
                     if item[2] is None or not item[2].cancelled]
    heapq.heapify(self._heap)
    self._cancelled_in_heap = 0


@pytest.mark.parametrize("method, mutant, check", [
    ("_drain", _drain_skipping_seq_bump,
     test_rearm_matches_schedule_reference),
    ("_purge", _purge_dropping_counters,
     test_rearm_matches_schedule_reference),
    ("_drain", _drain_firing_whole_cycle,
     test_rearm_matches_schedule_reference),
    # step() never leaves followers queued: chunks do
    ("_drain", _drain_counting_batch_as_one, test_drain_paths_agree),
    ("_queue", _queue_counting_batch_as_one, test_drain_paths_agree),
    ("_drain", _drain_one_pass_skipping_count, test_drain_paths_agree),
    ("_drain", _drain_one_pass_short_seq, test_drain_paths_agree),
    ("_drain", _drain_one_pass_mixed_periods, test_drain_paths_agree)],
    ids=["seq_bump", "purge", "whole_cycle", "batch_as_one_live",
         "queue_as_one_live", "one_pass_count", "one_pass_seq",
         "one_pass_mixed_periods"])
def test_counter_property_catches_engine_mutants(monkeypatch, method,
                                                 mutant, check):
    monkeypatch.setattr(Simulator, method, mutant)
    with pytest.raises(AssertionError):
        check()


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


def test_lockstep_counters_queue_as_one_entry():
    sim = Simulator()
    counters = [PeriodicCounter(5) for _ in range(8)]
    for counter in counters:
        sim.arm(counter)
    sim.run(max_events=8)  # the first cycle: eight singletons
    entry, = sim._heap
    assert entry == (10, 8, counters[0], None, counters[1:])
    assert sim.live_events == sim.pending == 8
    sim.run(max_events=3)  # stops inside the batch at cycle 10
    assert [c.count for c in counters] == [2] * 3 + [1] * 5
    assert sorted(sim._heap, key=lambda item: item[:2]) == [
        (10, 11, counters[3], None, counters[4:]),
        (15, 16, counters[0], None, counters[1:3])]
    assert sim.live_events == sim.pending == 8
    assert sim.now == 10 and sim.events_processed == 11 and sim._seq == 19


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
