"""Deterministic, seeded coherence-message fault injection.

The :class:`FaultInjector` wraps ``Network.send`` — the same attach
point the protocol sanitizer uses to swap ``_send_fast``/``_send_full``
— and perturbs the message stream with four fault kinds:

* **drop** — the message is never delivered.  The protocol has no
  retransmission layer, so sustained drops are expected to wedge a run;
  the engine watchdog (:mod:`repro.sim.watchdog`) turns that wedge into
  a structured :class:`~repro.sim.watchdog.StallReport`.
* **duplicate** — the message is delivered twice (the copy slightly
  skewed in time).  Applied by default only to non-counting response
  types (DATA/DATA_EXCL/GRANT/PUT_ACK): duplicated requests violate
  assumptions a real interconnect also guarantees (a blocking directory
  never sees the same request twice), and duplicated ACK/NACK inflate
  the requester's multicast completion count — both would test the
  fault model, not the protocol.  Explicit ``per_type`` overrides are
  honored verbatim for experiments that want exactly that.
* **delay** — extra delivery latency drawn from
  ``[delay_min, delay_max]``.  Modeled as *congestion*: a delayed
  message raises a per-(src, dst) arrival floor so no later message on
  the pair can overtake it.  The directory protocol (like the mesh it
  abstracts) relies on point-to-point FIFO delivery — e.g. a FWD_GETX
  must not arrive at an ex-owner behind the PUT_ACK that released its
  writeback buffer — so a FIFO-preserving delay is always
  correctness-safe while a naive per-message jitter is not
  (deliberate FIFO violation is what ``reorder`` is for).
* **reorder** — hold one message per (src, dst) pair and release it
  behind the next message on that pair (or after ``reorder_window``
  cycles, whichever comes first), swapping their order.  Restricted to
  response types by default for the same reason as duplication.

plus **node stalls**: every ``stall_interval`` cycles a seeded victim
node "freezes" for ``stall_duration`` cycles — deliveries that would
arrive inside the freeze window are pushed past its end (a pure delay,
so always correctness-safe).

Determinism: all decisions draw from one named
:class:`~repro.sim.rng.RngFactory` stream (``"faults"``) seeded by
``FaultConfig.seed``, independent of the simulator's own streams — the
same config on the same workload perturbs the run identically.  With
every rate at 0.0 the injector does not install its wrapper at all, so
a zero-rate run is bit-identical to a plain run by construction (and
the property test also force-installs the wrapper to prove it is
transparent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.network.message import Message, MessageType
from repro.sim.rng import RngFactory

FAULT_KINDS = ("drop", "duplicate", "delay", "reorder")

# Types that are safe to perturb by default: responses feed a
# requester's MSHR (stale copies are detected and dropped there) or are
# idempotent acknowledgments.  Requests and UNBLOCK mutate blocking
# directory state and are delivered exactly-once by construction.
RESPONSE_TYPES = frozenset({
    MessageType.DATA, MessageType.DATA_EXCL, MessageType.GRANT,
    MessageType.ACK, MessageType.NACK, MessageType.PUT_ACK,
})

# ACK/NACK are *counting* messages: the requester completes a multicast
# GETX when acks + nacks reach the expected count, so a duplicate
# inflates the tally and lets the requester finish before every sharer
# actually invalidated (a real dir-sharers mismatch, not a tolerable
# stale response).  Reordering them is still safe — the count is
# order-insensitive — so only duplication gets the narrower set.
DUP_SAFE_TYPES = RESPONSE_TYPES - {MessageType.ACK, MessageType.NACK}


@dataclass(frozen=True)
class FaultConfig:
    """Rates and shape parameters for one injection campaign.

    ``per_type`` entries are ``(MessageType name, kind, rate)`` and
    override the global rate for that type; ``per_pair`` entries are
    ``(src, dst, kind, rate)`` and override the per-type value for that
    directed pair.  Tuples (not dicts) keep the config hashable and
    picklable across sweep workers.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    reorder: float = 0.0
    delay_min: int = 1
    delay_max: int = 64
    dup_skew: int = 8
    reorder_window: int = 128
    per_type: Tuple[Tuple[str, str, float], ...] = ()
    per_pair: Tuple[Tuple[int, int, str, float], ...] = ()
    stall_interval: int = 0
    stall_duration: int = 0

    def active(self) -> bool:
        """True when any fault can actually fire."""
        if self.drop or self.duplicate or self.delay or self.reorder:
            return True
        if any(rate for _, _, rate in self.per_type):
            return True
        if any(rate for _, _, _, rate in self.per_pair):
            return True
        return self.stall_interval > 0 and self.stall_duration > 0

    def validate(self) -> None:
        for name, kind, _ in self.per_type:
            if name not in MessageType.__members__:
                raise ValueError(f"unknown message type {name!r} in per_type")
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r} in per_type")
        for _, _, kind, _ in self.per_pair:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r} in per_pair")
        for rate in (self.drop, self.duplicate, self.delay, self.reorder):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate {rate} outside [0, 1]")


def audits_safe(faults: Optional[FaultConfig]) -> bool:
    """True when the fault mix preserves the audits' assumptions (no
    message ever lost or reordered).  An injected loss *should* leave
    memory short of the committed increments, so a run under such a mix
    skips the coherence/value audits; delay, duplicate and stall mixes
    keep them on."""
    if faults is None:
        return True
    if faults.drop or faults.reorder:
        return False
    kinds = {kind for _, kind, rate in faults.per_type if rate}
    kinds |= {kind for _, _, kind, rate in faults.per_pair if rate}
    return not kinds & {"drop", "reorder"}


_SPEC_ALIASES = {
    "dup": "duplicate",
    "drop": "drop",
    "duplicate": "duplicate",
    "delay": "delay",
    "reorder": "reorder",
    "seed": "seed",
    "delay_min": "delay_min",
    "delay_max": "delay_max",
    "dup_skew": "dup_skew",
    "reorder_window": "reorder_window",
    "stall_interval": "stall_interval",
    "stall_duration": "stall_duration",
}

_INT_FIELDS = frozenset({"seed", "delay_min", "delay_max", "dup_skew",
                         "reorder_window", "stall_interval",
                         "stall_duration"})


def parse_fault_spec(spec: str) -> FaultConfig:
    """Parse a ``--faults`` CLI spec like ``drop=0.01,dup=0.005,seed=7``."""
    kwargs: Dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad fault spec item {part!r} "
                             f"(expected key=value)")
        key, _, value = part.partition("=")
        field = _SPEC_ALIASES.get(key.strip())
        if field is None:
            raise ValueError(f"unknown fault spec key {key.strip()!r}; "
                             f"choices: {sorted(_SPEC_ALIASES)}")
        kwargs[field] = (int(value) if field in _INT_FIELDS
                         else float(value))
    cfg = FaultConfig(**kwargs)
    cfg.validate()
    return cfg


class FaultInjector:
    """Wraps ``Network.send`` with seeded fault decisions."""

    def __init__(self, config: FaultConfig, num_nodes: int):
        config.validate()
        self.config = config
        self.num_nodes = num_nodes
        self._rng = RngFactory(config.seed).stream("faults")
        # effective per-type rate table: global rates (duplicate and
        # reorder clamped to response types), then per_type overrides
        rates: Dict[MessageType, Tuple[float, float, float, float]] = {}
        for t in MessageType:
            rates[t] = (config.drop,
                        config.duplicate if t in DUP_SAFE_TYPES else 0.0,
                        config.delay,
                        config.reorder if t in RESPONSE_TYPES else 0.0)
        for name, kind, rate in config.per_type:
            t = MessageType[name]
            row = list(rates[t])
            row[FAULT_KINDS.index(kind)] = rate
            rates[t] = tuple(row)
        self._rates = rates
        self._pair_over: Dict[Tuple[int, int], Dict[str, float]] = {}
        for src, dst, kind, rate in config.per_pair:
            self._pair_over.setdefault((src, dst), {})[kind] = rate
        # fault log counters
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.stalls_injected = 0
        # wiring (filled by attach)
        self.sim = None
        self._inner = None
        self._latency = None  # the mesh's per-pair latency
        self._held: Dict[Tuple[int, int], Tuple[Message, int, object]] = {}
        # per-(src, dst) arrival floor: injected lateness that later
        # messages on the pair must not undercut (FIFO preservation)
        self._fifo_floor: Dict[Tuple[int, int], int] = {}
        self._stalled_until: Dict[int, int] = {}
        self._stall_ev = None
        self._attached = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, system, force: bool = False) -> None:
        """Install the send wrapper on ``system``'s network.

        With no active fault (all rates zero) the wrapper is not
        installed at all unless ``force`` is given, so a zero-rate
        config costs nothing and perturbs nothing.  Must run *after*
        sanitizer attachment: the wrapper captures whichever send
        implementation (fast or checked) is current.
        """
        if self._attached:
            raise RuntimeError("FaultInjector is already attached")
        self._attached = True
        self.sim = system.sim
        net = system.network
        self._inner = net.send
        self._latency = system.mesh.latency
        if not (self.config.active() or force):
            return
        net.send = self.send
        for node in system.nodes:
            # injected duplicates/delays can surface responses for
            # already-completed requests; nodes tolerate + count them
            node.fault_tolerant = True
        if self.config.stall_interval > 0 and self.config.stall_duration > 0:
            self._stall_ev = self.sim.schedule(
                self.config.stall_interval, self._inject_stall)

    def stop(self) -> None:
        """Cancel the recurring stall timer (workload finished)."""
        if self._stall_ev is not None:
            self._stall_ev.cancel()
            self._stall_ev = None

    # ------------------------------------------------------------------
    # the wrapped send
    # ------------------------------------------------------------------
    def send(self, msg: Message, extra_delay: int = 0) -> None:
        drop, dup, delay, reorder = self._rates[msg.mtype]
        if self._pair_over:
            over = self._pair_over.get((msg.src, msg.dst))
            if over is not None:
                drop = over.get("drop", drop)
                dup = over.get("duplicate", dup)
                delay = over.get("delay", delay)
                reorder = over.get("reorder", reorder)
        rng = self._rng
        key = (msg.src, msg.dst)
        if drop > 0.0 and rng.random() < drop:
            self.dropped += 1
            self._release_held(key)
            return
        jitter = 0
        if delay > 0.0 and rng.random() < delay:
            jitter = rng.randint(self.config.delay_min,
                                 self.config.delay_max)
            self.delayed += 1
        if self._stalled_until:
            jitter += self._stall_penalty(msg, extra_delay + jitter)
        jitter = self._fifo_clamp(key, extra_delay, jitter)
        if reorder > 0.0 and key not in self._held and rng.random() < reorder:
            # hold this message; the next send on the pair (or the
            # window flush) releases it behind whatever overtook it
            flush = self.sim.schedule(self.config.reorder_window,
                                      self._flush_held, key)
            self._held[key] = (msg, extra_delay + jitter, flush)
            self.reordered += 1
            return
        self._inner(msg, extra_delay + jitter)
        if dup > 0.0 and rng.random() < dup:
            self.duplicated += 1
            self._inner(msg, extra_delay + jitter + 1
                        + rng.randint(0, self.config.dup_skew))
        self._release_held(key)

    # ------------------------------------------------------------------
    # FIFO preservation for injected lateness
    # ------------------------------------------------------------------
    def _fifo_clamp(self, key: Tuple[int, int], extra_delay: int,
                    jitter: int) -> int:
        """Keep injected lateness FIFO: a message must not arrive on
        its (src, dst) pair before an earlier message we made late.

        Pairs with no injected lateness yet are left untouched (no
        floor entry), so a jitter-free run through the wrapper is
        bit-identical to a plain run.
        """
        naive = (self.sim.now + extra_delay + jitter
                 + self._latency(key[0], key[1]))
        floor = self._fifo_floor.get(key)
        if floor is not None and naive < floor:
            jitter += floor - naive
            naive = floor
        if jitter > 0:
            self._fifo_floor[key] = naive
        return jitter

    # ------------------------------------------------------------------
    # reorder bookkeeping
    # ------------------------------------------------------------------
    def _release_held(self, key: Tuple[int, int]) -> None:
        if not self._held:
            return
        held = self._held.pop(key, None)
        if held is None:
            return
        msg, extra, flush = held
        flush.cancel()
        self._inner(msg, extra)

    def _flush_held(self, key: Tuple[int, int]) -> None:
        held = self._held.pop(key, None)
        if held is None:
            return
        msg, extra, _ = held
        self._inner(msg, extra)

    # ------------------------------------------------------------------
    # node stalls
    # ------------------------------------------------------------------
    def _inject_stall(self) -> None:
        victim = self._rng.randrange(self.num_nodes)
        until = self.sim.now + self.config.stall_duration
        if self._stalled_until.get(victim, 0) < until:
            self._stalled_until[victim] = until
        self.stalls_injected += 1
        self._stall_ev = self.sim.schedule(self.config.stall_interval,
                                           self._inject_stall)

    def _stall_penalty(self, msg: Message, base_delay: int) -> int:
        until = self._stalled_until.get(msg.dst)
        if until is None:
            return 0
        arrival = (self.sim.now + base_delay
                   + self._latency(msg.src, msg.dst))
        if arrival >= until:
            del self._stalled_until[msg.dst]
            return 0
        return until - arrival

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        return (self.dropped + self.duplicated + self.delayed
                + self.reordered + self.stalls_injected)

    def summary(self) -> Dict[str, int]:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
            "stalls_injected": self.stalls_injected,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v}" for k, v in self.summary().items())
        return f"FaultInjector({parts})"
