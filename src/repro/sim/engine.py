"""Discrete-event simulation engine.

A single global clock measured in CPU cycles.  Events are callbacks
scheduled at absolute times; ties are broken by insertion order so runs
are fully deterministic.  The engine is deliberately minimal — the whole
simulator is built out of components that schedule follow-up work on
each other, which keeps the hot path (one heap push/pop per event) cheap
enough for multi-million-event runs in pure Python.

Hot-path notes
--------------

* Heap entries are ``(time, seq, event_or_None, fn, args)`` tuples:
  heap sifts compare tuples element-wise in C and — because ``seq`` is
  unique — never fall through to the later elements, and the run loop
  unpacks the callback straight out of the tuple without touching any
  Python attribute.
* :meth:`Simulator.call_later` schedules a callback with *no* Event
  object at all (the third tuple slot is ``None``).  Callers that never
  cancel — message delivery, directory wakeups — skip one object
  allocation per event, which is the bulk of all events in a run.  The
  :class:`Event` that :meth:`Simulator.schedule` returns is only a
  cancellation handle: a ``cancelled`` flag and a backref to the
  simulator, nothing the heap or the loop reads otherwise.
  :meth:`Simulator.enqueue` is ``call_later`` at an absolute time
  without validation or ``*args`` packing, for the callers that create
  most events (message delivery); only this module knows the heap
  entry's layout.
* A :class:`PeriodicCounter` (the PUNO rollover timeout) fires with no
  callback: the drain loop bumps and re-arms it under the key a
  self-re-arming callback would push, on the loop's rare
  cancelled-handle branch, so other events pay no extra test for it.
* Cancellable timers that re-arm one after another (a node's op
  timers) go through :meth:`Simulator.rearm`: the same unchecked push
  as ``enqueue``, but with a handle, and the handle of the caller's
  previous timer is reused once that timer has run.  A spent handle
  is referenced by no queued entry, so reusing it changes no event;
  a cancelled or still-queued one is never reused.  Only the
  watchdog and the fault injector still allocate a handle per
  ``schedule``.
* One drain loop serves every run without ``until``: full drains,
  ``max_events`` chunks (what :meth:`repro.system.System.run` uses) and
  :meth:`Simulator.step`.  It pops first, skips cancelled entries,
  commits the clock only when the timestamp changes, and counts down a
  local budget (:data:`_NO_BUDGET` when unbounded) and a local
  ``events_processed``, written back once per call.  Events stay in the
  heap until the instant they execute, so cancellation, live-event
  accounting and exception unwinding keep their obvious semantics.
  ``run(until=...)`` keeps a separate peek-first loop that hands
  each live event to the drain loop; only tests use it.
* The number of *live* (queued, not cancelled) events is derived, not
  counted: ``len(heap) - cancelled_in_heap``.  :meth:`Simulator.idle`
  and :attr:`Simulator.live_events` stay O(1) while ``schedule``, the
  sends and the drain loop carry no counter update.
* Cancelled events normally stay in the heap until they surface at the
  top, but once they exceed half the heap (and a small absolute floor)
  the heap is compacted in place — long runs with heavy
  cancel-and-reschedule traffic (node timeouts) no longer drag a tail
  of dead entries through every sift.  Compaction keeps counters.
* ``schedule``/``call_later`` validation (negative-delay check, int
  coercion) follows ``__debug__``: it runs by default and under pytest,
  and ``python -O`` drops it.  Every internal caller passes
  non-negative ints, so both modes execute the same events.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

# Compact the heap when cancelled entries outnumber live ones and
# there are at least this many of them (avoids churn on tiny heaps).
_PURGE_FLOOR = 64

# Budget sentinel for run(max_events=None): large enough that no run
# can exhaust it, so the loop needs no per-event None check.
_NO_BUDGET = 1 << 62


class Event:
    """A cancellation handle for a scheduled callback.

    The heap stores ``(time, seq, event, fn, args)`` tuples and the run
    loop dispatches from the tuple, so the handle carries only the
    ``cancelled`` flag and the simulator backref that cancellation
    accounting needs.  A handle built without a simulator counts as
    spent: :meth:`Simulator.rearm` takes it as a caller's first handle.
    """

    __slots__ = ("cancelled", "sim")

    def __init__(self, sim: "Optional[Simulator]" = None):
        self.cancelled = False
        self.sim = sim  # backref for cancel accounting; None once run

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it surfaces.

        Idempotent; cancelling an event that already executed is a
        no-op (the engine drops its backref on execution).
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event{flag}>"


class PeriodicCounter:
    """A counter the engine itself bumps every ``period`` cycles.

    Armed once with :meth:`Simulator.arm`, each firing is one engine
    event (counted in ``events_processed``, followed by ``post_event``)
    that runs no callback: while ``active``, the drain loop adds one to
    ``count`` and re-arms the counter at ``now + period`` with a fresh
    sequence number, reading ``period`` as it stands then.  Once
    ``active`` is cleared the counter fires once more as an inert event
    and leaves the heap.

    Its heap entry is ``(time, seq, counter, None, None)``.
    ``cancelled`` is a class attribute that always reads True, so the
    drain loop reaches the counter on its cancelled-handle branch,
    where the ``None`` callback tells it from a cancelled
    :class:`Event`: message and op-timer events take no extra test.
    It is never cancelled and never counts as cancelled.
    """

    __slots__ = ("period", "active", "count")

    cancelled = True

    def __init__(self, period: int = 1):
        self.period = period
        self.active = True
        self.count = 0


class Simulator:
    """Binary-heap event loop with an integer cycle clock."""

    __slots__ = ("now", "_heap", "_seq", "_running", "events_processed",
                 "_cancelled_in_heap", "post_event", "counters")

    def __init__(self) -> None:
        self.now: int = 0
        # entries are (time, seq, Event-or-None, fn, args), or (time,
        # seq, counter, None, None); seq uniqueness means tuple
        # comparison never reaches element 2
        self._heap: List[Tuple[int, int, Any, Any, Any]] = []
        self._seq: int = 0
        self._running = False
        self.events_processed: int = 0
        # cancelled entries still in the heap: drives lazy compaction
        # and, subtracted from the heap size, gives the live count
        self._cancelled_in_heap: int = 0
        # Optional hook invoked after every executed event (the event
        # boundary).  Installed by the protocol sanitizer; None (the
        # default) costs one local None-check per event in the hot loop.
        self.post_event: Optional[Callable[[], None]] = None
        # every PeriodicCounter armed on this engine, for reports
        self.counters: List[PeriodicCounter] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any,
                 _validate: bool = __debug__) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; a zero delay runs later in the
        current cycle (after already-queued same-cycle events).
        """
        if _validate:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            delay = int(delay)
        seq = self._seq
        self._seq = seq + 1
        ev = Event(self)
        heapq.heappush(self._heap, (self.now + delay, seq, ev, fn, args))
        return ev

    def call_later(self, delay: int, fn: Callable[..., Any], *args: Any,
                   _validate: bool = __debug__) -> None:
        """Schedule ``fn(*args)`` with no cancellation handle.

        Identical ordering semantics to :meth:`schedule`, but the heap
        entry carries no Event object — one allocation less per event.
        Use for callbacks that are never cancelled (message delivery,
        directory wakeups); anything that might need ``cancel()`` must
        go through :meth:`schedule`.
        """
        if _validate:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            delay = int(delay)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, None, fn, args))

    def enqueue(self, time: int, fn: Callable[..., Any],
                args: Tuple[Any, ...]) -> None:
        """Queue ``fn(*args)`` at absolute cycle ``time``, unchecked.

        :meth:`call_later` without its validation or argument packing,
        for the callers that create most events (message delivery).
        ``time`` must not lie before :attr:`now`.
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, None, fn, args))

    def rearm(self, ev: Event, time: int, fn: Callable[..., Any],
              args: Tuple[Any, ...]) -> Event:
        """Queue ``fn(*args)`` at absolute cycle ``time``, unchecked,
        and return its cancellation handle.

        ``ev`` is the caller's previous handle.  It is reused when its
        event has run (``sim`` dropped, never cancelled): no queued
        entry refers to it any more.  A cancelled or still-queued
        handle gets a fresh :class:`Event`, exactly what
        :meth:`schedule` would return.  The caller must keep no other
        reference to ``ev`` that it may cancel later: a reused handle
        cancels the new event.  ``time`` must not lie before
        :attr:`now`.
        """
        if ev.sim is None and not ev.cancelled:
            ev.sim = self
        else:
            ev = Event(self)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, ev, fn, args))
        return ev

    def arm(self, counter: PeriodicCounter) -> None:
        """Start ``counter``: its first firing is ``counter.period``
        cycles from now, then one every period while it is active
        (see :class:`PeriodicCounter`)."""
        self.counters.append(counter)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap,
                       (self.now + counter.period, seq, counter, None, None))

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self.schedule(time - self.now, fn, *args)

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for a still-queued event."""
        self._cancelled_in_heap += 1
        if (self._cancelled_in_heap >= _PURGE_FLOOR
                and self._cancelled_in_heap * 2 >= len(self._heap)):
            self._purge()

    def _purge(self) -> None:
        """Compact the heap in place, dropping cancelled entries.

        Mutates the existing list (slice assignment) so aliases held by
        a running :meth:`run` loop stay valid.  A counter's entry (no
        callback) is kept, although its ``cancelled`` reads True.
        """
        self._heap[:] = [item for item in self._heap
                         if item[2] is None or not item[2].cancelled
                         or item[3] is None]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the heap drains, ``until`` cycles pass, or
        ``max_events`` events execute.  Returns the final clock value.

        ``until`` may not lie before the current clock (the clock never
        runs backwards) and ``max_events`` may not be negative.  Clock
        semantics with both limits: the clock only advances to
        ``until`` when everything scheduled up to ``until`` actually
        executed (cancelled events never count against ``max_events``
        and never hold the clock back); if the event budget expires
        with a live event still pending at or before ``until``, the
        clock stays at the last executed event.
        """
        if self._running:
            raise RuntimeError("simulator is not re-entrant")
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run until a past cycle ({until} < {self.now})")
        if max_events is not None and max_events < 0:
            raise ValueError(f"negative max_events {max_events}")
        budget = _NO_BUDGET if max_events is None else max_events
        self._running = True
        try:
            if until is None:
                self._drain(budget)
            else:
                self._drain_until(until, budget)
        finally:
            self._running = False
        return self.now

    def _drain(self, budget: int) -> None:
        """The drain loop: pop, skip cancelled, run, up to ``budget``
        live events or an empty heap."""
        heap = self._heap  # identity-stable: _purge compacts in place
        pop = heapq.heappop
        push = heapq.heappush
        post = self.post_event
        now = self.now
        processed = self.events_processed
        try:
            while budget and heap:
                t, _, ev, fn, args = pop(heap)
                if ev is not None:
                    if ev.cancelled:
                        if fn is not None:
                            self._cancelled_in_heap -= 1
                            continue
                        # a PeriodicCounter fires: count, re-arm, no
                        # callback
                        if t != now:
                            self.now = now = t
                        budget -= 1
                        processed += 1
                        if ev.active:
                            ev.count += 1
                            seq = self._seq
                            self._seq = seq + 1
                            push(heap, (t + ev.period, seq, ev, None, None))
                        if post is not None:
                            post()
                        continue
                    ev.sim = None  # executed: cancel() is a no-op
                if t != now:
                    self.now = now = t
                budget -= 1
                processed += 1
                fn(*args)
                if post is not None:
                    post()
        finally:
            self.events_processed = processed

    def _drain_until(self, until: int, budget: int) -> None:
        """Peek-first loop for ``run(until=...)``: stops before the
        first live event past ``until``, then moves the clock there.
        Each live event runs through :meth:`_drain` with a budget of
        one, so both loops execute an event the same way."""
        heap = self._heap
        while heap:
            t, _, ev, fn, _ = heap[0]
            if ev is not None and ev.cancelled and fn is not None:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            if t > until:
                break
            if not budget:
                # live work pending at/before the limit: the clock
                # must not jump past it
                return
            budget -= 1
            self._drain(1)
        self.now = until

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle.

        Delegates to :meth:`run` with a one-event budget so it shares
        the re-entrancy guard and the skip-cancelled logic — a callback
        calling ``step()`` from inside the loop fails loudly instead of
        silently corrupting the clock.
        """
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Number of queued non-cancelled events (O(1))."""
        return len(self._heap) - self._cancelled_in_heap

    def idle(self) -> bool:
        return len(self._heap) == self._cancelled_in_heap
