"""System assembly and run harness.

``System`` wires the full CMP together — event engine, mesh network,
one directory controller and one node controller per node, a contention
manager, and the PUNO units when the scheme needs them — runs a
workload to completion, and returns a :class:`RunResult` with the
statistics every experiment consumes.

The module also provides the coherence/atomicity *audits* that
``System.run`` applies on completion: the single-writer/multi-reader
invariant over all L1s and directories, and the value audit (the final
memory image must equal exactly the committed increments, and every
transaction instance of every node's program must commit exactly once,
each attempt ending in one commit or one abort).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.coherence.directory import DirectoryController
from repro.coherence.dirstore import DirEntryPool
from repro.coherence.states import DirState, L1State
from repro.core.bitset import bit_list, mask_of
from repro.core.puno import DirectoryPUNO
from repro.core.txlb import TxLB
from repro.htm.node import NodeController
from repro.network.message import MessageType
from repro.network.network import Network
from repro.network.topology import Mesh
from repro.sanitize import sanitize_enabled
from repro.schemes import get_scheme
from repro.sim.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.sim.stats import Stats
from repro.sim.watchdog import StallError, Watchdog, WatchdogConfig
from repro.workloads.base import TxInstance, Workload

# Every message type in code order: the endpoint dispatch table layout.
_MESSAGE_TYPES = tuple(MessageType)


class CoherenceViolation(AssertionError):
    """Raised by audits when an invariant is broken."""


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    stats: Stats
    config: SystemConfig
    workload_name: str
    cm_name: str
    wall_seconds: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, float]:
        s = self.stats.summary()
        s["wall_seconds"] = self.wall_seconds
        return s


class System:
    """A fully-wired simulated CMP executing one workload."""

    def __init__(self, config: SystemConfig, workload: Workload,
                 cm: str = "baseline",
                 trace=None, sampler=None, node_cls=None,
                 sanitize: Optional[bool] = None,
                 faults=None,
                 watchdog: Union[None, bool, WatchdogConfig] = None):
        if workload.num_nodes != config.num_nodes:
            raise ValueError(
                f"workload has {workload.num_nodes} programs for "
                f"{config.num_nodes} nodes")
        self.config = config
        self.workload = workload
        self.sim = Simulator()
        self.stats = Stats(config.num_nodes)
        self.stats.tracer = trace  # Optional[repro.sim.trace.Tracer]
        self.sampler = sampler  # Optional[TimeSeriesSampler]
        if sampler is not None:
            sampler.attach(self.sim, self.stats)
        self.mesh = Mesh(config.network)
        self.network = Network(self.sim, self.mesh, self.stats)
        self.rng = RngFactory(config.seed)

        # Resolve the scheme plug-in (repro.schemes): the name selects
        # a registered Scheme, which supplies every policy axis —
        # contention manager, directory forward policy, PUNO hardware,
        # and (unless the caller passes an explicit node_cls) version
        # management.  Its RNG stream is named cm:<scheme>, so the
        # registered built-ins keep their historical digests.
        self.scheme = get_scheme(cm)
        self.dir_arbiter = self.scheme.make_arbiter(config)
        self.cm = self.scheme.make_cm(config, self.stats,
                                      avg_c2c=self.mesh.avg_latency)
        self.cm.sim = self.sim
        # One DirEntry free list for the whole system: entries retired
        # at any home bank are reused by every other (zero-alloc steady
        # state; see repro.coherence.dirstore).
        self.dir_pool = DirEntryPool()
        self.punos: List[Optional[DirectoryPUNO]] = []
        self.directories: List[DirectoryController] = []
        self.nodes: List[NodeController] = []
        self._done_count = 0
        self._finished_at: Optional[int] = None

        puno_on = self.scheme.needs_puno
        node_cls = node_cls or self.scheme.resolve_node_cls() or NodeController
        node_extra = {}
        if node_cls is not NodeController:
            # lazy nodes share one commit token (see repro.htm.lazy)
            from repro.htm.lazy import CommitToken, LazyNodeController
            if issubclass(node_cls, LazyNodeController):
                node_extra["commit_token"] = CommitToken()
        for n in range(config.num_nodes):
            puno = None
            if puno_on:
                puno = DirectoryPUNO(self.sim, config.num_nodes,
                                     config.puno, self.stats)
            self.punos.append(puno)
            directory = DirectoryController(self.sim, n, config,
                                            self.network, self.stats, puno,
                                            pool=self.dir_pool,
                                            arbiter=self.dir_arbiter)
            self.directories.append(directory)
            node = node_cls(
                self.sim, n, config, self.network, self.stats, self.cm,
                workload.programs[n], on_done=self._node_done,
                txlb=TxLB(config.puno.txlb_entries), puno=puno_on,
                **node_extra,
            )
            self.nodes.append(node)
            self.network.register_table(
                n, self._make_endpoint(directory, node))

        # Dynamic protocol sanitizer: explicit argument wins, otherwise
        # the REPRO_SANITIZE environment flag (which parallel sweep
        # workers inherit) decides.
        self.sanitizer = None
        if sanitize if sanitize is not None else sanitize_enabled():
            from repro.sanitize.sanitizer import ProtocolSanitizer
            self.sanitizer = ProtocolSanitizer(self)
            self.sanitizer.attach()

        # Fault injection wraps whichever send implementation the
        # sanitizer selected, so it must attach after the sanitizer.
        self.fault_injector = None
        if faults is not None:
            from repro.faults import FaultInjector
            self.fault_injector = FaultInjector(faults, config.num_nodes)
            self.fault_injector.attach(self)

        # Engine watchdog: True selects the default thresholds, a
        # WatchdogConfig tunes them.  Its tick event mutates no protocol
        # state, so attaching it never changes run statistics.
        self.watchdog: Optional[Watchdog] = None
        if watchdog:
            wcfg = watchdog if isinstance(watchdog, WatchdogConfig) else None
            self.watchdog = Watchdog(wcfg)
            self.watchdog.attach(self)

    # ------------------------------------------------------------------
    @staticmethod
    def _make_endpoint(directory: DirectoryController,
                       node: NodeController):
        # The directory's and node's class-level dispatch tables (type
        # -> method name) must be disjoint and together cover every
        # MessageType; resolved against the two instances into a dense
        # list in code order, the network delivers straight to the
        # owning controller's bound handler — no membership test, no
        # closure hop, no per-delivery dict lookup.  Building the list
        # is the completeness check; the name lists are built only to
        # report a failure, so a 1024-node build does not walk the enum
        # per node.  Explicit raises, not asserts, so the checks
        # survive -O.
        dir_names, node_names = directory.HANDLERS, node.HANDLERS
        merged = {t: getattr(directory, name)
                  for t, name in dir_names.items()}
        merged.update({t: getattr(node, name)
                       for t, name in node_names.items()})
        try:
            table = [merged[t] for t in _MESSAGE_TYPES]
        except KeyError:
            missing = [t.name for t in _MESSAGE_TYPES if t not in merged]
            raise ValueError(
                f"endpoint dispatch incomplete: no handler for "
                f"{', '.join(missing)}") from None
        if dir_names.keys() & node_names.keys():
            shadowed = [t.name for t in _MESSAGE_TYPES
                        if t in dir_names and t in node_names]
            raise ValueError(
                f"endpoint dispatch ambiguous: directory and node both "
                f"handle {', '.join(shadowed)}")
        return table

    # ------------------------------------------------------------------
    def _node_done(self, node: int) -> None:
        self._done_count += 1
        if self._done_count == self.config.num_nodes:
            self._finished_at = self.sim.now
            for puno in self.punos:
                if puno is not None:
                    puno.stop()
            if self.sampler is not None:
                self.sampler.stop()
            if self.watchdog is not None:
                self.watchdog.stop()
            if self.fault_injector is not None:
                self.fault_injector.stop()

    def run(self, max_cycles: Optional[int] = None,
            audit: bool = True) -> RunResult:
        """Run the workload to completion and return statistics.

        ``max_cycles`` is a watchdog: exceeding it raises, which keeps
        broken configurations from spinning forever in tests.
        """
        t0 = time.perf_counter()
        for node in self.nodes:
            node.start()
        # Run in bounded chunks so the watchdog can fire even while
        # PUNO timeout timers keep the event heap non-empty.
        chunk = 2_000_000
        while True:
            self.sim.run(max_events=chunk)
            if self._finished_at is not None and self.sim.idle():
                break
            if self.sim.pending == 0:
                break
            if max_cycles is not None and self.sim.now > max_cycles:
                if self.watchdog is not None:
                    raise StallError(self.watchdog.make_report(
                        "max-cycles",
                        f"exceeded the max_cycles budget of {max_cycles}"))
                raise RuntimeError(
                    f"watchdog: {self.sim.now} cycles without completion "
                    f"({self._done_count}/{self.config.num_nodes} nodes done)")
        if self._finished_at is None:
            if self.watchdog is not None:
                raise StallError(self.watchdog.make_report(
                    "deadlock", "event heap drained before nodes finished"))
            raise RuntimeError("event heap drained before nodes finished")
        self.stats.execution_cycles = self._finished_at
        wall = time.perf_counter() - t0
        if audit:
            self.audit_coherence()
            self.audit_values()
        extras: Dict[str, float] = {}
        if self.sanitizer is not None:
            extras["sanitizer_checks"] = float(self.stats.sanitizer_checks)
        return RunResult(self.stats, self.config, self.workload.name,
                         self.cm.name, wall, extras=extras)

    # ==================================================================
    # audits
    # ==================================================================
    def audit_coherence(self) -> None:
        """Single-writer / multi-reader over every line in the system."""
        holders: Dict[int, List] = {}
        for node in self.nodes:
            for line in node.l1.lines():
                holders.setdefault(line.addr, []).append((node.node, line))
        for directory in self.directories:
            for addr, entry in directory.entries.items():
                owners = [(n, l) for n, l in holders.get(addr, [])
                          if l.state in (L1State.E, L1State.M)]
                sharers = [(n, l) for n, l in holders.get(addr, [])
                           if l.state is L1State.S]
                if len(owners) > 1:
                    raise CoherenceViolation(
                        f"addr {addr}: multiple owners {owners}")
                if owners and sharers:
                    raise CoherenceViolation(
                        f"addr {addr}: owner {owners} with sharers {sharers}")
                if entry.state is DirState.M:
                    holder_ids = {n for n, _ in owners}
                    in_limbo = (entry.owner is not None and
                                addr in self.nodes[entry.owner].wb_buffer)
                    if entry.owner not in holder_ids and not in_limbo:
                        raise CoherenceViolation(
                            f"addr {addr}: dir owner {entry.owner} holds no "
                            f"E/M copy")
                if entry.state is DirState.S:
                    if owners:
                        raise CoherenceViolation(
                            f"addr {addr}: dir says S but owners {owners}")
                    holder_mask = mask_of(n for n, _ in sharers)
                    if holder_mask & ~entry.sharers:
                        raise CoherenceViolation(
                            f"addr {addr}: S holders "
                            f"{bit_list(holder_mask)} not in directory "
                            f"sharer list {bit_list(entry.sharers)}")
                if entry.state is DirState.I and holders.get(addr):
                    live = [h for h in holders[addr]
                            if h[1].state is not L1State.I]
                    if live:
                        raise CoherenceViolation(
                            f"addr {addr}: dir I but cached {live}")

    def global_value(self, addr: int) -> int:
        """The coherent value of a line (owner copy, else home copy)."""
        home = self.directories[self.config.home_node(addr)]
        entry = home.entries.get(addr)
        if entry is None:
            return 0
        if entry.state is DirState.M and entry.owner is not None:
            owner_node = self.nodes[entry.owner]
            line = owner_node.l1.lookup(addr, touch=False)
            if line is not None:
                return line.value
            if addr in owner_node.wb_buffer:
                return owner_node.wb_buffer[addr]
            raise CoherenceViolation(f"addr {addr}: owner copy missing")
        return entry.value

    def audit_values(self) -> None:
        """Atomicity audit: memory == sum of committed increments, and
        per node no outcome lost or doubled (attempts = commits +
        aborts, and each program TxInstance commits exactly once)."""
        addrs = set()
        for directory in self.directories:
            addrs.update(directory.entries.keys())
        total = sum(self.global_value(a) for a in sorted(addrs))
        committed = sum(n.committed_increments for n in self.nodes)
        if total != committed:
            raise CoherenceViolation(
                f"value audit failed: memory sum {total} != committed "
                f"increments {committed}")
        for n, node in enumerate(self.stats.nodes):
            if node.tx_attempts != node.tx_committed + node.tx_aborted:
                raise CoherenceViolation(
                    f"node {n}: lost outcome — {node.tx_attempts} "
                    f"attempts != {node.tx_committed} commits + "
                    f"{node.tx_aborted} aborts")
            expected = sum(1 for item in self.workload.programs[n]
                           if isinstance(item, TxInstance))
            if node.tx_committed != expected:
                raise CoherenceViolation(
                    f"node {n}: {node.tx_committed} commits for "
                    f"{expected} program instance(s)")


def run_workload(config: SystemConfig, workload: Workload,
                 cm: str = "baseline",
                 max_cycles: Optional[int] = None,
                 audit: bool = True) -> RunResult:
    """One-call convenience wrapper used by examples and benchmarks."""
    return System(config, workload, cm).run(max_cycles=max_cycles,
                                            audit=audit)
