"""Logical volumes: a virtual disk over many storage registers.

FAB presents clients with logical volumes accessed like disks
(Section 1.1).  A :class:`LogicalVolume` maps a flat array of
fixed-size logical blocks onto stripes, runs one storage register per
stripe, and translates block reads/writes into the register's
stripe/block operations.

Layout follows the paper's anti-conflict advice (Section 3): "lay out
data so that consecutive blocks in a logical volume are mapped to
different stripes".  With ``stripe_shuffle=True`` (default) logical
block ``b`` maps to stripe ``b mod num_stripes``, unit ``b //
num_stripes`` — consecutive logical blocks land on consecutive stripes.
With it off, the mapping is the naive ``b // m`` grouping, which the
conflict ablation uses as its worst case.

Reads of never-written data return zeros, the standard disk semantics
(the register's ``nil`` materializes as a zero block here).

Coordinator selection takes a :class:`~repro.core.routing.RouteOptions`
(or a bare process id) via ``route=`` on every operation.  For
pipelined access, :meth:`LogicalVolume.session` opens a
:class:`~repro.core.session.VolumeSession` that keeps many operations
in flight with retry and failover built in.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import ConfigurationError, StorageError
from ..sim.kernel import Interrupt
from ..types import ABORT, Block
from .cluster import FabCluster
from .routing import RouteLike, RouteOptions, pinned_coordinator, resolve_route

__all__ = ["LogicalVolume"]


class LogicalVolume:
    """A virtual disk of ``num_stripes * m`` logical blocks.

    Args:
        cluster: the FAB cluster storing the volume.
        num_stripes: stripes (registers) in the volume.
        base_register_id: register-id offset, letting several volumes
            share one cluster without colliding.
        stripe_shuffle: map consecutive logical blocks to different
            stripes (reduces stripe-level conflicts).
        route: default route for operations that do not pass their own
            (a :class:`RouteOptions` or a bare pid); its coordinator
            defaults to brick 1.
    """

    def __init__(
        self,
        cluster: FabCluster,
        num_stripes: int,
        base_register_id: int = 0,
        stripe_shuffle: bool = True,
        route: RouteLike = None,
    ) -> None:
        if num_stripes < 1:
            raise ConfigurationError(f"num_stripes must be >= 1, got {num_stripes}")
        self.cluster = cluster
        self.num_stripes = num_stripes
        self.base_register_id = base_register_id
        resolved = resolve_route(route)
        self.route = RouteOptions(
            coordinator=pinned_coordinator(resolved),
            failover=resolved.failover,
        )
        self.stripe_shuffle = stripe_shuffle
        self.m = cluster.config.m
        self.block_size = cluster.config.block_size

    @property
    def num_blocks(self) -> int:
        """Total logical blocks in the volume."""
        return self.num_stripes * self.m

    @property
    def capacity_bytes(self) -> int:
        """Logical capacity in bytes."""
        return self.num_blocks * self.block_size

    # -- pipelined access ------------------------------------------------------

    def session(self, max_inflight: int = 8, **kwargs):
        """Open a pipelined :class:`~repro.core.session.VolumeSession`.

        Keyword arguments (``retry=``, ``route=``, ``seed=``) are
        forwarded to the session constructor.
        """
        from .session import VolumeSession

        return VolumeSession(self, max_inflight=max_inflight, **kwargs)

    # -- address translation ---------------------------------------------------

    def locate(self, logical_block: int) -> tuple:
        """Map a logical block to ``(register_id, unit_index)``.

        ``unit_index`` is the 1-based position within the stripe (the
        protocol's ``j``).
        """
        if not 0 <= logical_block < self.num_blocks:
            raise ConfigurationError(
                f"logical block {logical_block} out of range "
                f"0..{self.num_blocks - 1}"
            )
        if self.stripe_shuffle:
            stripe = logical_block % self.num_stripes
            unit = logical_block // self.num_stripes
        else:
            stripe = logical_block // self.m
            unit = logical_block % self.m
        return self.base_register_id + stripe, unit + 1

    def _execute(self, register_id: int, route: RouteOptions, run_op):
        """Run one register operation under ``route``'s failover rules.

        A client accessing a FAB volume is multipathed: if the brick
        coordinating its request dies mid-operation (surfacing here as
        an :class:`~repro.sim.kernel.Interrupt`), the client reissues
        the request through another brick.  Strict linearizability
        makes this retry safe: the dead coordinator's partial operation
        either took effect before the crash or never will.

        With ``route.failover`` disabled the crash is surfaced as a
        :class:`~repro.errors.StorageError` instead.

        Args:
            run_op: callable ``(StorageRegister) -> result`` performing
                the blocking operation.
        """
        preferred = pinned_coordinator(route, self.route.coordinator)
        if not route.failover:
            register = self.cluster.register(register_id, preferred)
            try:
                return run_op(register)
            except Interrupt as interrupt:
                raise StorageError(
                    f"coordinator p{preferred} crashed mid-operation and "
                    "failover is disabled"
                ) from interrupt
        attempts = 0
        while attempts < self._MAX_FAILOVERS:
            attempts += 1
            live = self.cluster.live_processes()
            if not live:
                # Everyone is down; let the simulation advance so the
                # failure injector (or test) can recover bricks.
                self.cluster.transport.run(
                    until=self.cluster.transport.now() + 10.0
                )
                continue
            pid = preferred if preferred in live else live[0]
            register = self.cluster.register(register_id, pid)
            try:
                return run_op(register)
            except Interrupt:
                continue  # coordinator died mid-op: fail over
        raise StorageError(
            f"operation failed over {attempts} times without completing"
        )

    _MAX_FAILOVERS = 16

    # -- block I/O ------------------------------------------------------------

    def read(self, logical_block: int, route: RouteLike = None):
        """Read one logical block; zeros if never written; ABORT on conflict.

        Fails over to another brick if the coordinator crashes mid-read
        (unless ``route.failover`` is off).
        """
        resolved = resolve_route(route, self.route)
        register_id, unit = self.locate(logical_block)
        value = self._execute(
            register_id, resolved,
            lambda register: register.read_block(unit),
        )
        if value is ABORT:
            return ABORT
        if value is None:
            return bytes(self.block_size)
        return value

    def write(self, logical_block: int, data: Block, route: RouteLike = None):
        """Write one logical block; returns "OK" or ABORT.

        Fails over to another brick if the coordinator crashes mid-write
        (unless ``route.failover`` is off).
        """
        if len(data) != self.block_size:
            raise ConfigurationError(
                f"data must be exactly {self.block_size} bytes, got {len(data)}"
            )
        resolved = resolve_route(route, self.route)
        register_id, unit = self.locate(logical_block)
        return self._execute(
            register_id, resolved,
            lambda register: register.write_block(unit, data),
        )

    # -- multi-block I/O ---------------------------------------------------------

    def read_range(self, start_block: int, count: int, route: RouteLike = None):
        """Read ``count`` consecutive logical blocks; ABORT aborts the batch."""
        resolved = resolve_route(route, self.route)
        blocks: List[Block] = []
        for offset in range(count):
            value = self.read(start_block + offset, resolved)
            if value is ABORT:
                return ABORT
            blocks.append(value)
        return blocks

    def write_range(
        self,
        start_block: int,
        data_blocks: Sequence[Block],
        route: RouteLike = None,
    ):
        """Write consecutive logical blocks; stops and returns ABORT on conflict."""
        resolved = resolve_route(route, self.route)
        for offset, data in enumerate(data_blocks):
            result = self.write(start_block + offset, data, resolved)
            if result is ABORT:
                return ABORT
        return "OK"

    def write_stripe_aligned(
        self,
        stripe_index: int,
        stripe: Sequence[Block],
        route: RouteLike = None,
    ):
        """Full-stripe write (the efficient path for large sequential I/O).

        Bypasses per-block read-modify-write: one ``write-stripe``
        updates ``m`` logical blocks at stripe cost (Table 1's stripe
        write: ``4δ``, ``4n`` messages) instead of ``m`` block writes.
        """
        if not 0 <= stripe_index < self.num_stripes:
            raise ConfigurationError(
                f"stripe {stripe_index} out of range 0..{self.num_stripes - 1}"
            )
        if len(stripe) != self.m:
            raise ConfigurationError(
                f"stripe must have m={self.m} blocks, got {len(stripe)}"
            )
        resolved = resolve_route(route, self.route)
        return self._execute(
            self.base_register_id + stripe_index,
            resolved,
            lambda register: register.write_stripe(list(stripe)),
        )

    def __repr__(self) -> str:
        return (
            f"LogicalVolume({self.num_blocks} blocks x {self.block_size}B = "
            f"{self.capacity_bytes} bytes over {self.num_stripes} stripes)"
        )
