"""System configuration (Table II of the paper).

All structural and timing parameters of the simulated CMP live here as
frozen dataclasses.  The defaults reproduce Table II:

    16 UltraSPARC-III+ class cores @ 1 GHz, 32 KB 4-way L1 (1 cycle),
    8 MB shared L2 (20 cycles), MESI directory with static home-node
    interleaving, 200-cycle memory, 4x4 2D mesh with DOR routing and
    4-stage routers, 16-entry P-Buffer, 32-entry TxLB.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple


@dataclass(frozen=True)
class CacheConfig:  # lint: disable=dataclass-slots -- pickled across sweep workers; frozen+slots breaks 3.10 pickle; built once per run
    """Private L1 cache geometry and latency."""

    size_bytes: int = 32 * 1024
    ways: int = 4
    line_bytes: int = 64
    hit_latency: int = 1

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways

    def set_index(self, line_addr: int) -> int:
        """Map a line address (already line-granular) to its set."""
        return line_addr % self.num_sets


@dataclass(frozen=True)
class NetworkConfig:  # lint: disable=dataclass-slots -- pickled across sweep workers; frozen+slots breaks 3.10 pickle; built once per run
    """2D mesh on-chip network timing and flit geometry.

    The traffic metric of Fig. 11 is router traversals by flits, so the
    model carries explicit control/data flit counts and counts one
    traversal per flit per router visited (hops + 1).  The per-pair
    hop, latency and traversal math lives in
    :class:`repro.network.topology.Mesh`.
    """

    mesh_width: int = 4
    mesh_height: int = 4
    router_latency: int = 4  # 4-stage router pipeline
    link_latency: int = 1
    control_flits: int = 1
    data_flits: int = 5  # 64B line / 16B flit + head
    # First-order stand-in for VC/queueing contention inside Garnet:
    # every hop costs an extra ``load_factor`` cycles.
    load_factor: int = 0

    @property
    def num_nodes(self) -> int:
        return self.mesh_width * self.mesh_height


@dataclass(frozen=True)
class HTMConfig:  # lint: disable=dataclass-slots -- pickled across sweep workers; frozen+slots breaks 3.10 pickle; built once per run
    """Eager log-based HTM parameters (LogTM/FASTM-like baseline)."""

    # Fixed requester backoff after a NACK in the baseline scheme.
    nack_backoff: int = 20
    # Restart delay after an abort (before contention-manager policy).
    abort_base_cost: int = 40
    # Undo-log restore cost per write-set entry (fast HW recovery).
    abort_per_entry_cost: int = 4
    # Cycles to publish a commit (clear sets, release isolation).
    commit_cost: int = 5
    # Cycles to set up a transaction at TX_BEGIN (checkpoint regs).
    begin_cost: int = 5
    # Random-backoff comparator: slot width and retry cap.
    random_backoff_slot: int = 64
    random_backoff_cap: int = 10
    # RMW predictor comparator: entries per node.
    rmw_entries: int = 256
    # Adaptive-requeue comparator (repro.schemes.adaptive_requeue):
    # base randomized-delay window, exponential-growth cap, and a hard
    # clamp on the final window.
    requeue_slot: int = 32
    requeue_cap: int = 8
    requeue_max: int = 4096
    # Give up and abort a transaction after this many consecutive nacked
    # retries of one request (livelock escape hatch; generous).
    max_retries: int = 10_000


@dataclass(frozen=True)
class PUNOConfig:  # lint: disable=dataclass-slots -- pickled across sweep workers; frozen+slots breaks 3.10 pickle; built once per run
    """PUNO hardware parameters (Section III).  Whether the units exist
    is the scheme's ``needs_puno``; these fields size and tune them."""

    pbuffer_entries: int = 16  # one per node
    txlb_entries: int = 32
    # P-Buffer lookup + unicast decision latency at the directory.
    predict_latency: int = 2  # 1 cycle access + 1 cycle compare
    # Validity counter width: values 0..3; entries are usable for
    # prediction only when validity > validity_threshold.
    validity_max: int = 3
    validity_threshold: int = 1
    # Expected-lifetime staleness: a P-Buffer entry whose age exceeds
    # lifetime_factor x its advertised transaction length is treated as
    # stale (its transaction almost surely committed) — unless the
    # entry was refreshed within recency_window cycles, which proves
    # the transaction is still alive (it is polling).  <= 0 disables.
    lifetime_factor: float = 2.0
    recency_window: int = 512
    # Cost/benefit gate: never unicast to a candidate whose advertised
    # transaction length is below this (cycles).  A probe round trip
    # costs on the order of 2 x the cache-to-cache latency, so nacking
    # on behalf of transactions shorter than that cannot pay off —
    # this is what keeps PUNO neutral on short-transaction workloads
    # (kmeans/ssca2/genome).
    min_nacker_length: int = 200
    # Rollover-counter timeout adaptivity: period = clamp(avg_tx_len,
    # min_timeout, max_timeout).  Disable adaptivity to ablate (A2).
    adaptive_timeout: bool = True
    min_timeout: int = 64
    max_timeout: int = 1 << 20
    fixed_timeout: int = 4096  # used when adaptive_timeout is False
    # Rollover period = timeout_scale x average transaction length.
    # The paper fixes the *signal* (average transaction length) but not
    # the scale; larger values keep priorities usable longer (more
    # unicast coverage) at the cost of more stale-entry mispredictions.
    timeout_scale: float = 2.0
    # Component toggles for the ablation study (A1).
    unicast_enabled: bool = True
    notification_enabled: bool = True
    # Upper bound on one notified backoff (cycles).  T_est assumes the
    # nacker runs to commit; under high contention nackers are often
    # aborted early, so the requester re-validates at least this often
    # instead of sleeping the nacker's whole advertised remaining time.
    # Swept in ablation A6.
    notification_cap: int = 256
    # Replay-footprint nacking: a restarted attempt answers a unicast
    # probe for a line its *previous* attempt touched as a true
    # conflict (replay determinism guarantees it will touch it again).
    prev_footprint_nack: bool = True
    # Reader-epoch filter (ablation A5): restrict unicast candidates to
    # sharers whose *current* transaction performed the read that put
    # them on the sharer list (the adding request's timestamp still
    # matches the node's P-Buffer priority).  Our synthetic workloads
    # retain lines in L1 across transactions far more than real STAMP
    # footprints would, so without this filter the UD pointer often
    # names a sharer whose current transaction never read the line.
    reader_epoch_filter: bool = True

    def __post_init__(self) -> None:
        # a rollover period below one cycle re-arms the counter in its
        # own cycle, so the clock (and the max_cycles watchdog) stops
        for name in ("min_timeout", "fixed_timeout"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"puno.{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class SystemConfig:  # lint: disable=dataclass-slots -- pickled across sweep workers; frozen+slots breaks 3.10 pickle; built once per run
    """Top-level configuration bundle (Table II defaults)."""

    num_nodes: int = 16
    cache: CacheConfig = field(default_factory=CacheConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    htm: HTMConfig = field(default_factory=HTMConfig)
    puno: PUNOConfig = field(default_factory=PUNOConfig)
    l2_latency: int = 20
    memory_latency: int = 200
    directory_latency: int = 2  # directory SRAM lookup
    seed: int = 1

    def __post_init__(self) -> None:
        if self.network.num_nodes != self.num_nodes:
            raise ValueError(
                f"mesh {self.network.mesh_width}x{self.network.mesh_height} "
                f"!= num_nodes {self.num_nodes}"
            )

    def home_node(self, line_addr: int) -> int:
        """Static address-interleaved home node (static NUCA banking)."""
        return line_addr % self.num_nodes

    def describe(self) -> str:
        """Render the Table II configuration block."""
        rows = [
            ("Core", f"{self.num_nodes} in-order cores, 1 IPC model"),
            (
                "L1 Cache",
                f"{self.cache.size_bytes // 1024} KB, {self.cache.ways}-way, "
                f"write-back, {self.cache.hit_latency}-cycle",
            ),
            ("L2 Cache", f"shared NUCA, {self.l2_latency}-cycle latency"),
            ("Coherence", "MESI directory, static cache-bank interleaving"),
            ("Memory", f"{self.memory_latency}-cycle latency"),
            (
                "Network",
                f"{self.network.mesh_width}x{self.network.mesh_height} 2D mesh, "
                f"DOR, {self.network.router_latency}-stage routers",
            ),
            (
                "PUNO",
                f"{self.puno.pbuffer_entries}-entry P-Buffer, "
                f"{self.puno.txlb_entries}-entry TxLB",
            ),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def mesh_shape(num_nodes: int) -> Tuple[int, int]:
    """The most-square ``(width, height)`` factorization of a node
    count (width >= height), used to lay arbitrary scenario sizes out
    on a 2D mesh: 16 -> 4x4, 32 -> 8x4, 64 -> 8x8.  Prime counts
    degenerate to a 1-high chain."""
    import math

    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    for h in range(int(math.isqrt(num_nodes)), 0, -1):
        if num_nodes % h == 0:
            return num_nodes // h, h
    return num_nodes, 1  # pragma: no cover - isqrt loop always hits 1


def small_config(num_nodes: int = 4, seed: int = 1, **kwargs) -> SystemConfig:
    """A reduced configuration for tests: tiny mesh, same protocol."""
    w, h = mesh_shape(num_nodes)
    return SystemConfig(
        num_nodes=num_nodes,
        network=NetworkConfig(mesh_width=w, mesh_height=h),
        seed=seed,
        **kwargs,
    )


def scaled_config(num_nodes: int, seed: int = 1, **kwargs) -> SystemConfig:
    """A Table II configuration stretched to an arbitrary mesh size.

    This is the scenario subsystem's config factory: the mesh takes the
    most-square shape for ``num_nodes`` and the P-Buffer grows with the
    node count (the paper sizes it at one entry per node), so 32- and
    64-node scenarios don't trip the structural one-entry-per-node
    check.  All other Table II parameters keep their defaults unless
    overridden.
    """
    cfg = small_config(num_nodes, seed=seed, **kwargs)
    if cfg.puno.pbuffer_entries < num_nodes:
        cfg = replace(cfg, puno=replace(cfg.puno,
                                        pbuffer_entries=num_nodes))
    return cfg


#: Override sections accepted by :func:`override_config`, mapped to the
#: SystemConfig field holding the nested dataclass.
OVERRIDE_SECTIONS = ("htm", "puno", "network", "cache", "system")


def override_config(config: SystemConfig,
                    overrides: Dict[str, Dict[str, object]]
                    ) -> SystemConfig:
    """Apply declarative ``{section: {field: value}}`` overrides.

    Sections are ``htm``/``puno``/``network``/``cache`` (replacing
    fields of the nested dataclass) and ``system`` (top-level
    SystemConfig fields).  Unknown sections or field names raise
    ``ValueError`` — a scenario with a typo'd override must fail
    validation, not silently run the default configuration.
    """
    import dataclasses

    cfg = config
    for section, fields_ in overrides.items():
        if section not in OVERRIDE_SECTIONS:
            raise ValueError(
                f"unknown override section {section!r}; "
                f"choices: {OVERRIDE_SECTIONS}")
        if not fields_:
            continue
        target = cfg if section == "system" else getattr(cfg, section)
        valid = {f.name for f in dataclasses.fields(target)}
        unknown = set(fields_) - valid
        if unknown:
            raise ValueError(
                f"unknown {section} config field(s) {sorted(unknown)}; "
                f"choices: {sorted(valid)}")
        if section == "system":
            cfg = replace(cfg, **fields_)
        else:
            cfg = replace(cfg, **{section: replace(target, **fields_)})
    return cfg
