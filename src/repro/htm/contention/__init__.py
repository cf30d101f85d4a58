"""Contention management policies compared in the paper's evaluation.

* ``FixedBackoff`` — the baseline HTM: a nacked requester polls again
  after a fixed 20-cycle backoff; aborted transactions restart after the
  recovery cost only.
* ``RandomBackoff`` — Scherer & Scott [17]: aborted transactions enter
  randomized linear backoff that grows with the consecutive-abort count.
* ``RMWPredictor`` — Bobba et al. [5]: loads that historically start a
  read-modify-write sequence request exclusive permission up front.
* ``PUNOBackoff`` — PUNO's notification-guided backoff: a nacked
  requester sleeps for the nacker's advertised remaining run time minus
  twice the average cache-to-cache latency.
"""

from repro.htm.contention.base import ContentionManager
from repro.htm.contention.fixed import FixedBackoff
from repro.htm.contention.random_backoff import RandomBackoff
from repro.htm.contention.rmw_predictor import RMWPredictor
from repro.htm.contention.puno_cm import PUNOBackoff
from repro.htm.contention.ats import ATSScheduler

__all__ = [
    "ContentionManager",
    "FixedBackoff",
    "RandomBackoff",
    "RMWPredictor",
    "PUNOBackoff",
    "ATSScheduler",
]
