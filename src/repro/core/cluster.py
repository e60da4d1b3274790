"""FAB cluster assembly.

:class:`FabCluster` wires together everything a runnable system needs:
a simulation environment, a fair-loss network, ``n`` brick nodes each
hosting a replica *and* a coordinator (bricks serve as both storage
devices and I/O controllers — the paper's decentralized architecture),
plus timestamp sources and metrics.

Typical use::

    cluster = FabCluster(ClusterConfig(m=3, n=5, block_size=1024))
    register = cluster.register(0)               # stripe 0, any coordinator
    register.write_stripe([b"a" * 1024] * 3)
    assert register.read_stripe() == [b"a" * 1024] * 3

    cluster.node(2).crash()                       # kill a brick
    assert register.read_stripe() == [b"a" * 1024] * 3   # still readable
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..erasure.registry import make_code
from ..errors import ConfigurationError
from ..quorum.system import MajorityMQuorumSystem
from ..sim.monitor import Metrics
from ..sim.network import NetworkConfig
from ..sim.node import Node
from ..timestamps import TimestampSource
from ..transport import make_transport
from ..transport.base import Transport
from ..types import ProcessId
from .coordinator import Coordinator, CoordinatorConfig
from .gc import GarbageCollector
from .register import StorageRegister
from .replica import Replica
from .routing import RouteLike, pinned_coordinator

__all__ = ["ClusterConfig", "FabCluster"]


@dataclass
class ClusterConfig:
    """Static configuration for a FAB cluster.

    Attributes:
        m / n: erasure-code parameters (m data + n-m parity per stripe).
        block_size: stripe-unit size in bytes.
        f: tolerated faults; defaults to the maximum ``floor((n-m)/2)``.
        code_kind: erasure-code implementation (see
            :func:`repro.erasure.registry.make_code`).
        network: network behaviour (latency, drops, ...).
        coordinator: protocol knobs (retransmission, grace, GC, ...).
        clock_skews: per-process clock skew in time units (index by
            process id); missing ids default to zero.  Used by the
            abort-rate ablation.
        disk_read_latency / disk_write_latency: simulated time per log
            block read/write at replicas (0 = the paper's free-disk
            cost model).
        store_mode: stable-store copy discipline — ``"cow"``
            (copy-on-write, default) or ``"deepcopy"`` (the seed
            baseline the simcore benchmark measures against).
        persistence: replica log persistence — ``"journal"`` (O(1)
            delta records per mutation, default) or ``"full"``
            (re-store the whole log per mutation, the seed baseline).
        verify_checksums: verify stable-store CRC envelopes on every
            read (default True).  ``False`` is the escape hatch that
            lets injected corruption thaw into garbage — only for
            demonstrating that the detector is load-bearing.
        metrics_history_limit: cap on retained per-operation metric
            records (None = unlimited); long benchmark runs set a limit
            so metric history stays O(1) in run length.
        transport: message/timer substrate — ``"sim"`` (deterministic
            discrete-event kernel, default), ``"asyncio"`` (wall-clock
            in-process loopback), or ``"asyncio-tcp"`` (wall-clock over
            real sockets).  The ``network`` simulation knobs apply only
            to ``"sim"``.
        seed: master seed; node-level randomness derives from it.
        allow_unsafe_f: permit ``f`` beyond the Theorem 2 bound
            ``floor((n - m) / 2)`` — builds a quorum system whose
            quorums intersect in fewer than ``m`` processes.  Only for
            negative testing (the fault campaign's broken-config mode).
    """

    m: int = 3
    n: int = 5
    block_size: int = 1024
    f: Optional[int] = None
    code_kind: str = "auto"
    network: NetworkConfig = field(default_factory=NetworkConfig)
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    clock_skews: Dict[int, float] = field(default_factory=dict)
    disk_read_latency: float = 0.0
    disk_write_latency: float = 0.0
    store_mode: str = "cow"
    persistence: str = "journal"
    transport: str = "sim"
    verify_checksums: bool = True
    metrics_history_limit: Optional[int] = None
    seed: int = 0
    allow_unsafe_f: bool = False


class FabCluster:
    """A federated array of ``n`` bricks running the storage register."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        if cfg.n < cfg.m:
            raise ConfigurationError(f"need n >= m, got n={cfg.n}, m={cfg.m}")
        self.metrics = Metrics(history_limit=cfg.metrics_history_limit)
        if transport is None:
            if cfg.transport == "sim":
                transport = make_transport(
                    "sim", network_config=cfg.network, metrics=self.metrics
                )
            else:
                transport = make_transport(cfg.transport, metrics=self.metrics)
        if transport.metrics is None:
            # An externally built transport adopts the cluster's sink so
            # message counts land in the same place as op metrics.
            transport.metrics = self.metrics
        self.transport = transport
        self.env = transport.env
        self.network = getattr(transport, "network", None)
        self.code = make_code(cfg.m, cfg.n, cfg.code_kind)
        self.quorum_system = MajorityMQuorumSystem(
            cfg.n, cfg.m, cfg.f, enforce_bound=not cfg.allow_unsafe_f
        )
        self.nodes: Dict[ProcessId, Node] = {}
        self.replicas: Dict[ProcessId, Replica] = {}
        self.coordinators: Dict[ProcessId, Coordinator] = {}
        master = random.Random(cfg.seed)
        for pid in range(1, cfg.n + 1):
            node = Node(
                transport=self.transport,
                process_id=pid,
                metrics=self.metrics,
                store_mode=cfg.store_mode,
                verify_checksums=cfg.verify_checksums,
            )
            replica = Replica(
                node, self.code, pid,
                disk_read_latency=cfg.disk_read_latency,
                disk_write_latency=cfg.disk_write_latency,
                persistence=cfg.persistence,
            )
            ts_source = TimestampSource(
                pid,
                clock=self.transport.now,
                skew=cfg.clock_skews.get(pid, 0.0),
            )
            coordinator = Coordinator(
                node,
                self.code,
                self.quorum_system,
                ts_source,
                cfg.block_size,
                cfg.coordinator,
                rng=random.Random(master.randrange(2**31)),
            )
            self.nodes[pid] = node
            self.replicas[pid] = replica
            self.coordinators[pid] = coordinator
        self.gc = GarbageCollector(self.replicas)

    # -- accessors -----------------------------------------------------------

    def node(self, pid: ProcessId) -> Node:
        """Brick ``pid`` (1-based)."""
        return self.nodes[pid]

    def coordinator(self, pid: ProcessId) -> Coordinator:
        """The coordinator running on brick ``pid``."""
        return self.coordinators[pid]

    def register(
        self, register_id: int, route: RouteLike = None
    ) -> StorageRegister:
        """A register handle for stripe ``register_id``.

        Any brick can coordinate; pass ``route=RouteOptions(
        coordinator=...)`` (or a bare pid) to exercise multi-controller
        access to the same stripe.  Defaults to brick 1.
        """
        coordinator = self.coordinators[pinned_coordinator(route)]
        return StorageRegister(coordinator, register_id)

    def register_ids(self) -> list:
        """Ids of every register with state anywhere in the cluster.

        The union of every replica's :meth:`~repro.core.replica.Replica.
        register_ids` (sorted) — volatile mirrors plus stable storage,
        so the answer is current even right after crashes or recoveries.
        Tools that scan "everything" (the scrub daemon, rebuilders)
        should resolve the register set through this accessor each pass
        instead of snapshotting it once at construction.
        """
        seen: set = set()
        for replica in self.replicas.values():
            seen.update(replica.register_ids())
        return sorted(seen)

    # -- convenience ----------------------------------------------------------

    def live_processes(self) -> list:
        """Ids of currently-up bricks."""
        return [pid for pid, node in self.nodes.items() if node.is_up]

    def reachable_processes(self) -> list:
        """Ids of up bricks the transport does not report ``"down"``.

        Degraded-mode routing input: with at most ``f`` bricks
        unreachable a quorum of ``n - f`` remains, so sessions that
        route around transport-down peers keep completing operations
        while the reconnect prober works the dead links.  May be empty
        even when :meth:`live_processes` is not (e.g. a full partition);
        callers must fall back rather than stall forever.
        """
        return [
            pid for pid, node in self.nodes.items()
            if node.is_up and self.transport.peer_state(pid) != "down"
        ]

    def crash(self, pid: ProcessId) -> None:
        """Crash brick ``pid``."""
        self.nodes[pid].crash()

    def recover(self, pid: ProcessId) -> None:
        """Recover brick ``pid``."""
        self.nodes[pid].recover()

    def run(self, until: Optional[float] = None) -> None:
        """Advance the substrate (synchronous transports only)."""
        self.transport.run(until)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"FabCluster(m={cfg.m}, n={cfg.n}, f={self.quorum_system.f}, "
            f"code={type(self.code).__name__}, block={cfg.block_size}B)"
        )
