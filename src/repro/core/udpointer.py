"""Unicast-Destination (UD) pointer maintenance, Section III-B.

Each directory entry carries the id of the sharer with the highest
known transaction priority.  The pointer is recomputed after the
directory services a request to the block — off the critical path, so
no latency is charged.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.core.bitset import iter_bits, mask_of
from repro.core.pbuffer import PBuffer


def recompute_ud(sharers: Union[int, Iterable[int]], pbuffer: PBuffer,
                 tx_readers: Optional[Dict[int, int]] = None,
                 now: Optional[int] = None) -> Optional[int]:
    """The sharer with the oldest usable priority, or None.

    ``sharers`` is either an integer bitmask (the directory entry's
    sharer vector) or an iterable of node ids (explicit target lists);
    both name the same candidates, so the result is identical.

    Only P-Buffer entries whose validity exceeds the threshold
    participate; ties in timestamp break on node id (the same total
    order used everywhere for conflict resolution).  The result is the
    smallest ``(ts, node)`` key, a strict total order over distinct
    nodes, so it does not depend on the order candidates are walked in.

    When ``tx_readers`` is given (the reader-epoch filter), a sharer is
    a candidate only if the transaction that added it to the sharer
    list is still the node's current transaction — i.e. the timestamp
    recorded at add time equals the node's current P-Buffer priority.
    Such a sharer *provably* holds the line in its live read set, so a
    priority-favourable unicast to it will be nacked.  Only nodes
    recorded in ``tx_readers`` can pass, so the walk then covers the
    readers that are sharers (in the dict's order) rather than every
    sharer bit: a 256-node sharer vector with a few readers costs a
    few shifts instead of a full bit walk.

    Runs after every directory service, so the staleness test is
    inlined over the P-Buffer's column arrays (one set of list loads
    hoisted out of the per-sharer loop) instead of calling
    ``pbuffer.usable``/``key`` per node — the result is the same
    predicate, localized.
    """
    best: Optional[int] = None
    best_key = None
    priority = pbuffer._priority
    expiry = pbuffer._expiry
    cfg = pbuffer.config
    # validity > threshold  <=>  expiry > threshold + decays (see pbuffer)
    live_after = cfg.validity_threshold + pbuffer.count
    lifetime_factor = cfg.lifetime_factor
    age_gate = now is not None and lifetime_factor > 0
    if age_gate:
        touched = pbuffer._touched
        length = pbuffer._length
        recency_window = cfg.recency_window
    if tx_readers is None:
        nodes = iter_bits(sharers) if type(sharers) is int else sharers
    else:
        # only recorded readers can pass the filter: walk those that
        # share instead of every sharer bit
        mask = sharers if type(sharers) is int else mask_of(sharers)
        nodes = [node for node in tx_readers if mask >> node & 1]
    for node in nodes:
        ts = priority[node]
        if ts is None or expiry[node] <= live_after:
            continue
        if age_gate and now - touched[node] > recency_window:
            # Only age-gate entries that have gone silent: a live but
            # stalled transaction keeps polling (see PBuffer.usable).
            hint = length[node]
            if hint > 0 and (now - ts) > lifetime_factor * hint:
                continue
        if tx_readers is not None and tx_readers[node] != ts:
            continue
        key = (ts, node)
        if best_key is None or key < best_key:
            best_key = key
            best = node
    return best
