"""Statistics collection.

One :class:`Stats` object per run gathers every quantity the paper's
evaluation reports:

* transaction counts (started / committed / aborted, by cause),
* transactional GETX classification for the false-aborting study
  (Figs. 2 and 3),
* network traffic in flit-router-traversals (Fig. 11),
* directory blocked cycles while servicing transactional GETX (Fig. 12),
* good vs discarded transactional cycles for the G/D ratio (Fig. 14),
* PUNO-internal counters (unicasts, mispredictions, notifications).

Everything is plain counters/histograms so post-processing stays in
:mod:`repro.analysis`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.network.message import MSG_TYPE_NAMES, N_MESSAGE_TYPES
from repro.sim.engine import PeriodicCounter

# Dense codes for predict_unicast decline reasons: the PUNO unit
# classifies every declined prediction, so the accumulator follows the
# same SoA pattern as the per-message-type counts (int index on the
# hot path, str-keyed Counter view folded on read).
DECLINE_REASONS = (
    "disabled", "no_tag", "committing", "ud_none", "short_nacker",
    "requester_older",
)
(DECLINE_DISABLED, DECLINE_NO_TAG, DECLINE_COMMITTING, DECLINE_UD_NONE,
 DECLINE_SHORT_NACKER, DECLINE_REQUESTER_OLDER) = range(6)
N_DECLINE_REASONS = len(DECLINE_REASONS)


class Histogram:
    """Sparse integer histogram with summary helpers."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def add(self, value: int, weight: int = 1) -> None:
        self.counts[int(value)] += weight

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def mean(self) -> float:
        t = self.total
        if t == 0:
            return 0.0
        return sum(v * c for v, c in self.counts.items()) / t

    def max(self) -> int:
        return max(self.counts) if self.counts else 0

    def distribution(self) -> Dict[int, float]:
        """value -> fraction of samples (the Fig. 3 series)."""
        t = self.total
        if t == 0:
            return {}
        return {v: c / t for v, c in sorted(self.counts.items())}

    def cdf(self) -> Dict[int, float]:
        t = self.total
        out: Dict[int, float] = {}
        acc = 0
        for v in sorted(self.counts):
            acc += self.counts[v]
            out[v] = acc / t
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram(n={self.total}, mean={self.mean():.2f})"


#: Integer per-node counters, in historical NodeStats field order.
#: Each has a ``_ns_<name>`` flat array on Stats (index = node id).
NODE_INT_FIELDS = (
    "tx_started", "tx_attempts", "tx_committed", "tx_aborted",
    "good_cycles", "discarded_cycles", "backoff_cycles", "stall_cycles",
    "nacks_received", "nacks_sent",
)


def _node_int_property(name: str):
    arr = f"_ns_{name}"

    def _get(self) -> int:
        return getattr(self._stats, arr)[self.node]

    def _set(self, value: int) -> None:
        getattr(self._stats, arr)[self.node] = value

    _get.__name__ = name
    return property(_get, _set, doc=f"Write-through view of "
                                    f"``Stats.{arr}[node]``.")


class NodeStats:
    """Per-node transaction accounting — a write-through *view*.

    The counters themselves live in flat per-field arrays on
    :class:`Stats` (``_ns_tx_started[node]`` and friends): the hot path
    bumps a list element, aggregates are C-level ``sum()`` over one
    array instead of an attribute walk over N objects, and a
    1024-node run carries eleven lists instead of 1024 stat objects.
    This class is the per-node accessor the analysis code and tests
    keep using — each attribute reads/writes the backing array, so
    ``stats.nodes[i].tx_committed += 1`` still works and is visible to
    every other reader.  Views are created lazily (see
    ``Stats.nodes``) and excluded from pickles (rebuilt from the
    arrays on unpickle).
    """

    __slots__ = ("_stats", "node")

    def __init__(self, stats: "Stats", node: int):
        self._stats = stats
        self.node = node

    tx_started = _node_int_property("tx_started")
    tx_attempts = _node_int_property("tx_attempts")
    tx_committed = _node_int_property("tx_committed")
    tx_aborted = _node_int_property("tx_aborted")
    good_cycles = _node_int_property("good_cycles")
    discarded_cycles = _node_int_property("discarded_cycles")
    backoff_cycles = _node_int_property("backoff_cycles")
    stall_cycles = _node_int_property("stall_cycles")
    nacks_received = _node_int_property("nacks_received")
    nacks_sent = _node_int_property("nacks_sent")

    @property
    def aborts_by_cause(self) -> Counter:
        """The node's live cause Counter (shared with the backing
        array, so mutation through the view sticks)."""
        return self._stats._ns_aborts_by_cause[self.node]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"NodeStats(node={self.node}, "
                f"committed={self.tx_committed}, "
                f"aborted={self.tx_aborted})")


class Stats:
    """Global run statistics."""

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        # --- per-node SoA accumulators -------------------------------
        # One flat array per counter (index = node id); NodeStats views
        # over them are built lazily by the ``nodes`` property.
        for _f in NODE_INT_FIELDS:
            setattr(self, f"_ns_{_f}", [0] * num_nodes)
        self._ns_aborts_by_cause: List[Counter] = \
            [Counter() for _ in range(num_nodes)]
        self._node_views: Optional[List[NodeStats]] = None
        # Optional repro.sim.trace.Tracer; components emit through this
        # when set (one attribute check per hook when tracing is off).
        self.tracer = None

        # --- messages / network -------------------------------------
        # Struct-of-arrays accumulators indexed by the dense
        # MessageType code: the hot path does one C-level list index
        # per event instead of hashing a str key into a Counter.  The
        # str-keyed Counter view (``messages_by_type``/``dir_requests``)
        # is folded on read, and only :meth:`snapshot` materializes it
        # for the canonical digest.
        self._msg_counts: List[int] = [0] * N_MESSAGE_TYPES
        self.flit_router_traversals: int = 0  # Fig. 11 metric
        self.flits_injected: int = 0

        # --- coherence / directory ----------------------------------
        self._dir_req_counts: List[int] = [0] * N_MESSAGE_TYPES
        self.dir_blocked_cycles_txgetx: int = 0  # Fig. 12 metric
        self.dir_blocked_cycles_total: int = 0
        self.dir_blocked_events: int = 0
        self.dir_queue_wait_cycles: int = 0
        self.l2_misses: int = 0
        self.writebacks: int = 0

        # --- transactional GETX classification (Figs. 2, 3) ---------
        self.tx_getx_total: int = 0
        self.tx_getx_nacked: int = 0
        self.tx_getx_granted: int = 0
        self.tx_getx_false_aborting: int = 0
        self.false_abort_victims: Histogram = Histogram()
        self.aborts_by_getx: int = 0  # aborts triggered by tx GETX
        self.aborts_by_gets: int = 0
        # victim aborts by request outcome: "granted" kills are
        # fundamental (the writer won), "false" kills happened under a
        # request that was nacked anyway — the PUNO-preventable mass
        self.granted_victims: int = 0
        self.false_victims: int = 0

        # --- PUNO ----------------------------------------------------
        self.puno_unicasts: int = 0
        self.puno_multicasts: int = 0
        self.puno_mispredictions: int = 0
        # misprediction causes (diagnosed at the unicast target)
        self.puno_mp_no_conflict: int = 0  # target tx doesn't touch line
        self.puno_mp_younger: int = 0  # target tx is younger than requester
        self.puno_mp_no_tx: int = 0  # target has no active transaction
        self.puno_correct_predictions: int = 0
        self.puno_notifications: int = 0
        self.puno_notified_backoff_cycles: int = 0
        self.puno_pbuffer_updates: int = 0
        self.puno_pbuffer_invalidations: int = 0
        # rollover ticks: the units' P-Buffers count them as engine
        # counters, folded on read (puno_timeouts); a pickle folds them
        # into the plain int
        self._rollover_counters: List[PeriodicCounter] = []
        self._puno_timeouts: int = 0
        # why predict_unicast declined, indexed by the dense
        # DECLINE_* codes; str-keyed view via the puno_declines property
        self._puno_decline_counts: List[int] = [0] * N_DECLINE_REASONS

        # --- RMW predictor -------------------------------------------
        self.rmw_upgraded_loads: int = 0
        self.rmw_trained: int = 0

        # --- run-level ------------------------------------------------
        self.execution_cycles: int = 0
        self.capacity_aborts: int = 0
        # Invariant checks executed by the protocol sanitizer (0 when
        # it is disabled).  Lives on Stats so it survives the pickle
        # trip back from parallel sweep workers.
        self.sanitizer_checks: int = 0

        # --- robustness ----------------------------------------------
        # Requests that exhausted HTMConfig.max_retries (the livelock
        # escape hatch) and self-aborted; always 0 in a healthy run.
        self.retry_cap_exhausted: int = 0
        # Stale/duplicate MSHR responses dropped under fault injection
        # (nodes only tolerate these when an injector is attached).
        self.stale_responses_dropped: int = 0
        # Owner-supplied values fabricated because a dropped message
        # left a registered owner without the data (fault runs only).
        self.fault_fabricated_values: int = 0

    # ------------------------------------------------------------------
    # str-keyed views over the SoA accumulators
    # ------------------------------------------------------------------
    @staticmethod
    def _fold_type_counts(counts: List[int],
                          names=MSG_TYPE_NAMES) -> Counter:
        """Dense int-indexed array -> name-keyed Counter (zero entries
        omitted, matching historical Counter contents)."""
        out: Counter = Counter()
        for code, n in enumerate(counts):
            if n:
                out[names[code]] = n
        return out

    @property
    def messages_by_type(self) -> Counter:
        """Per-type message counts keyed by MessageType *name* (str).

        Read-only fold of the int-indexed accumulator; hot-path writers
        use ``stats._msg_counts[msg.mtype] += 1`` directly.
        """
        return self._fold_type_counts(self._msg_counts)

    @property
    def dir_requests(self) -> Counter:
        """Per-type directory request counts (same str keying as
        :attr:`messages_by_type`); fold of ``_dir_req_counts``."""
        return self._fold_type_counts(self._dir_req_counts)

    def add_rollover_counter(self, counter: PeriodicCounter) -> None:
        """Count ``counter``'s firings in :attr:`puno_timeouts`."""
        self._rollover_counters.append(counter)

    def retire_rollover_counter(self, counter: PeriodicCounter) -> None:
        """Fold a stopped counter's final count into the plain int and
        let go of it, so a finished run's stats keep no P-Buffer
        alive."""
        self._rollover_counters.remove(counter)
        self._puno_timeouts += counter.count

    @property
    def puno_timeouts(self) -> int:
        """PUNO rollover timeouts so far: a fold over the units'
        rollover counters (their P-Buffers), exact at any point of a
        run."""
        return self._puno_timeouts + sum(
            c.count for c in self._rollover_counters)

    @property
    def puno_declines(self) -> Counter:
        """Prediction-decline counts keyed by reason name (str);
        fold of ``_puno_decline_counts``."""
        return self._fold_type_counts(self._puno_decline_counts,
                                      DECLINE_REASONS)

    # ------------------------------------------------------------------
    # per-node views
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List["NodeStats"]:
        """Per-node :class:`NodeStats` views, built lazily and cached.

        Views are cheap (two slots each), but a 1024-node event path
        never needs them — nodes bump the ``_ns_*`` arrays directly —
        so nothing materializes until an analysis/test reads through
        here.
        """
        views = self._node_views
        if views is None:
            views = self._node_views = [NodeStats(self, i)
                                        for i in range(self.num_nodes)]
        return views

    def _fold_node_stats(self) -> List[Dict[str, object]]:
        """Snapshot encoding of the per-node arrays.

        Emits the exact per-node dicts the pre-SoA NodeStats dataclass
        walk produced (same keys, Counter -> plain dict), keeping the
        canonical digest stable across the layout change.
        """
        arrays = [getattr(self, f"_ns_{f}") for f in NODE_INT_FIELDS]
        causes = self._ns_aborts_by_cause
        out: List[Dict[str, object]] = []
        for i in range(self.num_nodes):
            d: Dict[str, object] = {"node": i}
            for name, arr in zip(NODE_INT_FIELDS, arrays):
                d[name] = arr[i]
            d["aborts_by_cause"] = dict(causes[i])
            out.append(d)
        return out

    # ------------------------------------------------------------------
    # pickle compatibility
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Drop the cached node views: they are self-referential and
        trivially rebuilt from the ``_ns_*`` arrays on first access.
        Fold the rollover counters into a plain count, so the pickle
        carries no P-Buffer."""
        state = dict(self.__dict__)
        state["_node_views"] = None
        state["_puno_timeouts"] = self.puno_timeouts
        state["_rollover_counters"] = []
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Accept pickles from before the SoA accumulators.

        Cached RunResults (the content-addressed result cache) carry
        Stats pickled with ``messages_by_type``/``dir_requests`` as
        instance Counters; migrate them into the arrays so they don't
        shadow the fold-on-read properties.  A pickled ``nodes`` list
        (pre node-SoA) is likewise migrated into the per-field arrays.
        """
        for legacy, soa, names in (
                ("messages_by_type", "_msg_counts", MSG_TYPE_NAMES),
                ("dir_requests", "_dir_req_counts", MSG_TYPE_NAMES),
                ("puno_declines", "_puno_decline_counts",
                 DECLINE_REASONS)):
            counter = state.pop(legacy, None)
            if counter is not None and soa not in state:
                counts = [0] * len(names)
                for name, n in counter.items():
                    counts[names.index(name)] = n
                state[soa] = counts
        legacy_nodes = state.pop("nodes", None)
        state.setdefault("_node_views", None)
        if "puno_timeouts" in state:
            state["_puno_timeouts"] = state.pop("puno_timeouts")
            state["_rollover_counters"] = []
        self.__dict__.update(state)
        if legacy_nodes is not None and "_ns_tx_started" not in state:
            n = len(legacy_nodes)
            for f in NODE_INT_FIELDS:
                setattr(self, f"_ns_{f}",
                        [getattr(ns, f) for ns in legacy_nodes])
            self._ns_aborts_by_cause = [Counter(ns.aborts_by_cause)
                                        for ns in legacy_nodes]
            self.num_nodes = n

    # ------------------------------------------------------------------
    # aggregate helpers
    # ------------------------------------------------------------------
    @property
    def tx_started(self) -> int:
        return sum(self._ns_tx_started)

    @property
    def tx_committed(self) -> int:
        return sum(self._ns_tx_committed)

    @property
    def tx_aborted(self) -> int:
        return sum(self._ns_tx_aborted)

    @property
    def tx_attempts(self) -> int:
        return sum(self._ns_tx_attempts)

    @property
    def good_cycles(self) -> int:
        return sum(self._ns_good_cycles)

    @property
    def discarded_cycles(self) -> int:
        return sum(self._ns_discarded_cycles)

    def abort_rate(self) -> float:
        """Aborted fraction of transaction attempts (Table I metric)."""
        attempts = self.tx_attempts
        return self.tx_aborted / attempts if attempts else 0.0

    def gd_ratio(self) -> float:
        """Good/discarded transactional cycles (Fig. 14 metric)."""
        d = self.discarded_cycles
        if d == 0:
            return float("inf") if self.good_cycles > 0 else 0.0
        return self.good_cycles / d

    def false_aborting_fraction(self) -> float:
        """Fraction of transactional GETX that incur false aborting
        (Fig. 2 metric)."""
        if self.tx_getx_total == 0:
            return 0.0
        return self.tx_getx_false_aborting / self.tx_getx_total

    def prediction_accuracy(self) -> float:
        """PUNO unicast-destination prediction hit rate."""
        total = self.puno_correct_predictions + self.puno_mispredictions
        return self.puno_correct_predictions / total if total else 0.0

    def snapshot(self) -> Dict[str, object]:
        """Canonical, order-independent dump of *every* counter.

        Unlike :meth:`summary` (headline metrics only) this covers all
        scalar counters, per-type counters, histograms and per-node
        stats — two runs are behaviourally identical iff their
        snapshots compare equal, which is what the determinism and
        parallel-equivalence tests assert on.
        """
        out: Dict[str, object] = {}
        # The SoA accumulators fold back to their historical str-keyed
        # names here — the snapshot (and so the digest) is identical to
        # the pre-SoA encoding.  Per-node arrays fold the same way:
        # this is the only place 1024 per-node dicts ever materialize.
        out["messages_by_type"] = dict(self.messages_by_type)
        out["dir_requests"] = dict(self.dir_requests)
        out["puno_declines"] = dict(self.puno_declines)
        out["nodes"] = self._fold_node_stats()
        out["puno_timeouts"] = self.puno_timeouts
        for name, value in vars(self).items():
            if name == "tracer" or name.startswith("_"):
                continue
            if isinstance(value, Counter):
                out[name] = dict(value)
            elif isinstance(value, Histogram):
                out[name] = dict(value.counts)
            else:
                out[name] = value
        return out

    def snapshot_digest(self) -> str:
        """sha256 over the canonical JSON form of :meth:`snapshot`.

        Two runs are behaviourally identical iff their digests match —
        this single hex string is what the golden-run regression suite
        pins and what the determinism audit compares, so its encoding
        must stay stable: sorted keys, compact separators, and only
        JSON-native scalar types in the snapshot.
        """
        import hashlib
        import json
        blob = json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline metrics (used by reports and sweeps)."""
        return {
            "execution_cycles": self.execution_cycles,
            "tx_started": self.tx_started,
            "tx_committed": self.tx_committed,
            "tx_aborted": self.tx_aborted,
            "abort_rate": self.abort_rate(),
            "network_traffic": self.flit_router_traversals,
            "dir_blocked_txgetx": self.dir_blocked_cycles_txgetx,
            "good_cycles": self.good_cycles,
            "discarded_cycles": self.discarded_cycles,
            "gd_ratio": self.gd_ratio(),
            "false_aborting_fraction": self.false_aborting_fraction(),
            "tx_getx_total": self.tx_getx_total,
            "tx_getx_nacked": self.tx_getx_nacked,
            "prediction_accuracy": self.prediction_accuracy(),
        }
