"""Structured event tracing.

A :class:`Tracer` collects timestamped, categorized events from the
simulator's hook points:

* ``msg`` — every coherence message injected into the network,
* ``tx`` — transaction lifecycle (begin / commit / abort),
* ``dir`` — directory services and unblocks,
* ``puno`` — unicast predictions and misprediction feedback.

Attach one via ``System(config, workload, "puno", trace=Tracer(...))`` (or
set ``stats.tracer`` by hand when driving components directly).
Tracing is off by default and costs one attribute check per hook when
disabled.

Events are held in memory (optionally bounded) and can be rendered as
text or written as JSON lines for external tooling.

JSONL schema
------------

:meth:`Tracer.write_jsonl` emits one JSON object per line.  Every
object carries exactly two envelope keys —

* ``t`` (int) — simulator cycle the event fired at,
* ``cat`` (str) — one of :data:`CATEGORIES`,

— plus the event's free-form payload fields (JSON-native scalars
only).  The well-known payloads by category:

* ``msg``: ``type`` (MessageType name), ``addr``, ``src``, ``dst``,
  ``req`` (original requester), ``u`` / ``mp`` (bool protocol
  extension bits);
* ``tx``: ``event`` ∈ {``begin``, ``commit``, ``abort``,
  ``retry_cap``}, ``node``, ``static`` (static tx id), ``ts``
  (priority timestamp); commits add ``cycles``/``reads``/``writes``,
  aborts add ``cause``/``attempt``/``wasted``;
* ``dir``: ``event`` = ``service``, ``home``, ``type``, ``addr``,
  ``req``, ``state`` (directory entry state name), ``sharers``;
* ``puno``: ``event`` ∈ {``unicast``, ``mp_feedback``}; unicasts add
  ``addr``/``target``/``requester``/``req_ts``/``target_ts``,
  feedback adds ``node``.

Payload keys never collide with the envelope: ``t`` and ``cat`` are
reserved, and :meth:`Tracer.emit` rejects payloads that use them.
:func:`read_jsonl` / :meth:`Tracer.from_jsonl` invert
:meth:`Tracer.write_jsonl`, so a trace round-trips losslessly through
disk (event order, times, categories and payloads all preserved).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

CATEGORIES = ("msg", "tx", "dir", "puno")


class TraceEvent:
    __slots__ = ("time", "category", "fields")

    def __init__(self, time: int, category: str, fields: Dict):
        self.time = time
        self.category = category
        self.fields = fields

    def as_dict(self) -> Dict:
        return {"t": self.time, "cat": self.category, **self.fields}

    def __repr__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:>8}] {self.category:<4} {kv}"


class Tracer:
    """Event collector with category filtering and an optional bound."""

    def __init__(self, categories: Optional[Iterable[str]] = None,
                 limit: Optional[int] = None):
        cats = set(categories) if categories is not None else set(CATEGORIES)
        unknown = cats - set(CATEGORIES)
        if unknown:
            raise ValueError(f"unknown trace categories {sorted(unknown)}; "
                             f"choices: {CATEGORIES}")
        self.categories: Set[str] = cats
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self.counts: Counter = Counter()

    # ------------------------------------------------------------------
    def enabled(self, category: str) -> bool:
        return category in self.categories

    def emit(self, category: str, time: int, **fields) -> None:
        if category not in self.categories:
            return
        if "t" in fields or "cat" in fields:
            raise ValueError("'t' and 'cat' are reserved envelope keys "
                             "in the JSONL schema")
        self.counts[category] += 1
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(TraceEvent(time, category, fields))

    # ------------------------------------------------------------------
    def filter(self, category: Optional[str] = None,
               start: int = 0, end: Optional[int] = None,
               **field_filters) -> List[TraceEvent]:
        """Events matching category, time window and exact field
        values (e.g. ``addr=0`` or ``node=3``)."""
        out = []
        for ev in self.events:
            if category is not None and ev.category != category:
                continue
            if ev.time < start:
                continue
            if end is not None and ev.time > end:
                continue
            if any(ev.fields.get(k) != v
                   for k, v in field_filters.items()):
                continue
            out.append(ev)
        return out

    def text(self, **filter_kwargs) -> str:
        return "\n".join(repr(ev) for ev in self.filter(**filter_kwargs))

    def write_jsonl(self, path) -> int:
        """Write all events as JSON lines (see the module docstring
        for the schema); returns the count."""
        with open(path, "w") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev.as_dict()) + "\n")
        return len(self.events)

    @classmethod
    def from_jsonl(cls, path) -> "Tracer":
        """Rebuild a tracer from a :meth:`write_jsonl` file.

        The returned tracer is unbounded and accepts every category;
        event order, times and payloads are exactly those on disk, so
        ``Tracer.from_jsonl(p).write_jsonl(q)`` reproduces the file
        byte-for-byte.
        """
        t = cls()
        for ev in read_jsonl(path):
            t.counts[ev.category] += 1
            t.events.append(ev)
        return t

    # ------------------------------------------------------------------
    def conflict_chains(self) -> List[Tuple[int, Dict]]:
        """Abort events with their recorded causes — a quick view of
        who killed whom."""
        return [(ev.time, ev.fields) for ev in self.events
                if ev.category == "tx"
                and ev.fields.get("event") == "abort"]


def read_jsonl(path) -> List[TraceEvent]:
    """Parse a :meth:`Tracer.write_jsonl` file back into events.

    Validates the envelope (``t`` int, ``cat`` a known category) per
    line and raises ``ValueError`` naming the offending line number —
    a trace file is an interchange artifact, so malformed input should
    fail loudly, not produce half a trace.
    """
    events: List[TraceEvent] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON ({exc})") from exc
            if not isinstance(doc, dict):
                raise ValueError(f"{path}:{lineno}: expected an object, "
                                 f"got {type(doc).__name__}")
            time = doc.pop("t", None)
            cat = doc.pop("cat", None)
            if not isinstance(time, int) or isinstance(time, bool):
                raise ValueError(f"{path}:{lineno}: missing/invalid "
                                 f"'t' (must be an integer cycle)")
            if cat not in CATEGORIES:
                raise ValueError(f"{path}:{lineno}: invalid 'cat' "
                                 f"{cat!r}; choices: {CATEGORIES}")
            events.append(TraceEvent(time, cat, doc))
    return events
