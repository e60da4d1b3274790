"""ABD single-writer register (Attiya, Bar-Noy, Dolev; JACM'95).

The classic replicated atomic register [4 in the paper].  In the
single-writer setting the writer owns the timestamp sequence, so writes
need only one phase (no timestamp query): ``2δ`` latency, ``2n``
messages — the historical efficiency point the multi-writer algorithms
(LS97, and the paper's own) give up in exchange for concurrent
coordinators.

Reads are the standard two-phase query + write-back.  Reuses the LS97
replica and message formats; only the coordinator differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.routing import RouteLike, pinned_coordinator
from ..errors import ConfigurationError
from ..sim.monitor import Metrics
from ..sim.network import NetworkConfig
from ..sim.node import Node
from ..timestamps import TimestampSource
from ..transport.sim import SimTransport
from ..types import Block, ProcessId
from .ls97 import OK, QueryReq, StoreReq, _Ls97Coordinator, _Ls97Replica

__all__ = ["AbdCluster", "AbdConfig"]


class _AbdCoordinator(_Ls97Coordinator):
    """ABD coordinator: single-phase writes (writer owns timestamps)."""

    def write(self, register_id: int, value: Block):
        """One-phase write: the sole writer's clock is always fresh."""
        op = self.node.metrics.begin_op("abd-write", self.env.now)
        ts = self.ts_source.new_ts()
        yield from self._phase(
            lambda dst, rid: StoreReq(register_id, rid, ts, value)
        )
        self.node.metrics.end_op(op, self.env.now)
        return OK

    def read(self, register_id: int):
        """Two-phase read, identical to LS97 but labelled for metrics."""
        op = self.node.metrics.begin_op("abd-read", self.env.now)
        replies = yield from self._phase(
            lambda dst, rid: QueryReq(register_id, rid, want_value=True)
        )
        best = max(replies.values(), key=lambda reply: reply.ts)
        yield from self._phase(
            lambda dst, rid: StoreReq(register_id, rid, best.ts, best.value)
        )
        self.node.metrics.end_op(op, self.env.now)
        return best.value


@dataclass
class AbdConfig:
    """Configuration for an ABD cluster (single designated writer)."""

    n: int = 5
    writer_pid: int = 1
    block_size: int = 1024
    network: NetworkConfig = field(default_factory=NetworkConfig)
    seed: int = 0


class AbdCluster:
    """n-way replicated single-writer multi-reader register cluster."""

    def __init__(self, config: Optional[AbdConfig] = None) -> None:
        self.config = config or AbdConfig()
        cfg = self.config
        self.metrics = Metrics()
        self.transport = SimTransport(config=cfg.network, metrics=self.metrics)
        self.env = self.transport.env
        self.network = self.transport.network
        self.nodes: Dict[ProcessId, Node] = {}
        self.coordinators: Dict[ProcessId, _AbdCoordinator] = {}
        for pid in range(1, cfg.n + 1):
            node = Node(
                transport=self.transport, process_id=pid, metrics=self.metrics
            )
            self.nodes[pid] = node
            _Ls97Replica(node)
            self.coordinators[pid] = _AbdCoordinator(
                node, cfg.n, TimestampSource(pid, clock=self.transport.now)
            )

    def write(self, register_id: int, value: Block):
        """Blocking write — only the designated writer may call this."""
        coordinator = self.coordinators[self.config.writer_pid]
        process = coordinator.node.spawn(coordinator.write(register_id, value))
        return self.transport.run_until_complete(process)

    def read(self, register_id: int, route: RouteLike = None):
        """Blocking read from any process (``route`` picks it)."""
        pid = pinned_coordinator(route)
        if pid not in self.coordinators:
            raise ConfigurationError(f"no process {pid}")
        coordinator = self.coordinators[pid]
        process = coordinator.node.spawn(coordinator.read(register_id))
        return self.transport.run_until_complete(process)

    def crash(self, pid: ProcessId) -> None:
        self.nodes[pid].crash()

    def recover(self, pid: ProcessId) -> None:
        self.nodes[pid].recover()
