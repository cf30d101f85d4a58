"""End-to-end robustness over mesh shapes and node counts.

Everything in the paper runs on a 4x4 mesh; the simulator itself must
be correct for any rectangular mesh (audits included)."""

import pytest

from repro.sim.config import NetworkConfig, SystemConfig
from repro.system import run_workload
from repro.workloads.synthetic import make_synthetic_workload


def _cfg(width, height, seed=1):
    return SystemConfig(num_nodes=width * height,
                        network=NetworkConfig(mesh_width=width,
                                              mesh_height=height),
                        seed=seed)


@pytest.mark.parametrize("width,height", [(1, 1), (2, 1), (1, 4),
                                          (8, 2), (3, 3), (5, 5)])
def test_workload_completes_on_any_mesh(width, height):
    n = width * height
    wl = make_synthetic_workload(num_nodes=n, instances=4,
                                 shared_lines=max(4, n), tx_reads=3,
                                 tx_writes=1, seed=2)
    r = run_workload(_cfg(width, height), wl, cm="baseline",
                     max_cycles=20_000_000)
    assert r.stats.tx_committed == wl.total_instances()


def test_single_node_system():
    """One node: no sharing possible, zero aborts."""
    wl = make_synthetic_workload(num_nodes=1, instances=6,
                                 shared_lines=8, tx_reads=4, tx_writes=2,
                                 seed=3)
    r = run_workload(_cfg(1, 1), wl, cm="baseline", max_cycles=5_000_000)
    assert r.stats.tx_aborted == 0
    assert r.stats.tx_committed == 6


def test_puno_on_rectangular_mesh():
    wl = make_synthetic_workload(num_nodes=8, instances=6,
                                 shared_lines=6, tx_reads=4, tx_writes=2,
                                 seed=4)
    cfg = _cfg(4, 2)
    r = run_workload(cfg, wl, cm="puno", max_cycles=20_000_000)
    assert r.stats.tx_committed == wl.total_instances()


def test_larger_mesh_than_paper():
    """36 nodes (6x6): the P-Buffer must be sized up accordingly."""
    import dataclasses
    cfg = _cfg(6, 6)
    cfg = dataclasses.replace(
        cfg, puno=dataclasses.replace(cfg.puno, pbuffer_entries=36))
    wl = make_synthetic_workload(num_nodes=36, instances=3,
                                 shared_lines=36, tx_reads=3, tx_writes=1,
                                 seed=5)
    r = run_workload(cfg, wl, cm="puno", max_cycles=50_000_000)
    assert r.stats.tx_committed == wl.total_instances()


def test_pbuffer_too_small_rejected():
    cfg = _cfg(6, 6)  # default 16 entries < 36 nodes
    wl = make_synthetic_workload(num_nodes=36, instances=1,
                                 shared_lines=36, tx_reads=2, tx_writes=0)
    with pytest.raises(ValueError):
        run_workload(cfg, wl, cm="puno")
