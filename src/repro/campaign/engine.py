"""The fault-campaign engine.

One campaign run = one seeded, fully deterministic experiment:

1. generate a fault schedule from the seed (or take an explicit one,
   e.g. from the shrinker);
2. build a :class:`~repro.core.cluster.FabCluster` with seed-derived
   clock skews and install a :class:`CampaignMonitor`;
3. drive a mixed read/write/block workload from several client drivers
   on different coordinator bricks, recording every operation in the
   verify layer's history recorders;
4. apply the schedule's crashes, recoveries, partitions, heals, and
   drop windows via timers, sampling the timestamp monitor after each;
5. drain (all faults withdrawn by the schedule generator, in-flight
   operations finish or time out), then check strict linearizability
   of every register's history.

Everything random derives from ``config.seed``: the schedule, the
clients' operation choices, the network jitter, the coordinators'
retransmission jitter.  Two runs with equal config and schedule produce
identical results — the property the shrinker and the determinism tests
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import random

from ..core.cluster import ClusterConfig, FabCluster
from ..core.coordinator import CoordinatorConfig
from ..errors import StorageError
from ..sim.failures import CorruptionInjector
from ..sim.network import NetworkConfig
from ..types import OpKind
from ..verify.history import HistoryRecorder
from .invariants import CampaignMonitor, Violation
from .schedule import CampaignSchedule, generate_schedule

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "broken_config",
    "SCRUB_SAMPLE_THRESHOLD",
]

#: Register count at which ``scrub_mode="auto"`` switches the campaign
#: scrub daemon from the exhaustive sweep to the sampling scheduler.
#: Below it a sweep cycle is only a few hundred scans and exhaustive
#: coverage is cheap; above it the sweep is O(fleet) per cycle while
#: the sampler's confidence-derived budget stays flat.
SCRUB_SAMPLE_THRESHOLD = 64


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one campaign run (all randomness derives from ``seed``).

    Attributes:
        m / n / f: cluster shape; ``f=None`` takes the Theorem 2 maximum.
        code_kind: stripe code, forwarded to the cluster — the campaign
            and its invariants run unchanged over any registered code
            (the sharded LRC campaign relies on this).
        allow_unsafe_f: permit ``f`` beyond the bound — the deliberately
            broken mode used to validate that the invariant checks fire.
        registers / clients / ops_per_client: workload shape; clients
            issue operations back-to-back (with ``think_time`` gaps)
            against random registers through random live coordinators.
        write_fraction / block_fraction: operation mix.
        duration: schedule horizon; no fault fires after it.
        drain: extra simulated time after ``duration`` for in-flight
            operations to finish or time out.
        op_timeout: coordinator operation timeout, so operations cut off
            from a quorum abort instead of hanging forever.
        crash_weight / partition_weight / drop_weight / max_down /
        drop_max / max_clock_skew: fault-mix knobs, passed to
            :func:`~repro.campaign.schedule.generate_schedule`.
        corrupt_weight: weight of silent bit-flip faults in the mix
            (0 disables corruption injection entirely).
        torn_write_probability: chance each scheduled crash also leaves
            a torn journal tail (only when corruption is enabled).
        verify_checksums: verify stable-store CRC envelopes (default).
            ``False`` is the negative mode: injected corruption thaws
            into garbage and the read-verification invariant fires.
        scrub_enabled / scrub_interval: run the background
            scrub-and-repair daemon during the campaign, verifying
            checksums brick-by-brick every ``scrub_interval`` sim-time.
        scrub_mode: the daemon's scheduler — ``"sweep"``, ``"sample"``,
            or ``"auto"`` (default: sample at or above
            :data:`SCRUB_SAMPLE_THRESHOLD` registers, sweep below).
            The sampler is seeded from ``seed``, so campaign
            determinism and the corruption invariants hold unchanged
            in every mode.
        delivery_sweeps: batch same-(time, destination) message
            deliveries into per-tick sweeps (the network fast path,
            default) or schedule one kernel event per message.  The
            determinism regression test runs the same seed both ways
            and requires bit-identical counters.
    """

    m: int = 3
    n: int = 5
    f: Optional[int] = None
    allow_unsafe_f: bool = False
    block_size: int = 32
    code_kind: str = "auto"
    seed: int = 0
    registers: int = 4
    clients: int = 3
    ops_per_client: int = 30
    write_fraction: float = 0.5
    block_fraction: float = 0.4
    think_time: float = 2.0
    duration: float = 400.0
    drain: float = 150.0
    sample_interval: float = 25.0
    op_timeout: float = 120.0
    gc_enabled: bool = True
    crash_weight: float = 3.0
    partition_weight: float = 1.0
    drop_weight: float = 1.0
    max_down: Optional[int] = None
    drop_max: float = 0.2
    max_clock_skew: float = 0.0
    corrupt_weight: float = 0.0
    torn_write_probability: float = 0.5
    verify_checksums: bool = True
    scrub_enabled: bool = False
    scrub_interval: float = 20.0
    scrub_mode: str = "auto"
    delivery_sweeps: bool = True

    @property
    def effective_f(self) -> int:
        return (self.n - self.m) // 2 if self.f is None else self.f

    @property
    def effective_scrub_mode(self) -> str:
        if self.scrub_mode != "auto":
            return self.scrub_mode
        return (
            "sample" if self.registers >= SCRUB_SAMPLE_THRESHOLD else "sweep"
        )

    @property
    def effective_max_down(self) -> int:
        if self.max_down is not None:
            return self.max_down
        # Never schedule more concurrent crashes than a *sound* config
        # could tolerate, even in broken mode — the broken configs fail
        # on intersection, not availability.
        return max(1, min(self.effective_f, (self.n - self.m) // 2)) \
            if self.n > self.m else 0


@dataclass
class CampaignResult:
    """Outcome of one campaign run (deterministic given config+schedule)."""

    seed: int
    violations: List[Violation]
    ops: Dict[str, int]  # status -> count, over all registers
    schedule_events: int
    registers_checked: int
    blocks_checked: int
    recoveries_checked: int
    samples_taken: int
    sim_time: float
    reads_verified: int = 0
    #: Corruption-resilience counters: corruptions_injected,
    #: torn_injected, checksum_failures, degraded_reads, scrub_scans,
    #: scrub_detections, scrub_repairs.
    corruption: Dict[str, int] = field(default_factory=dict)
    schedule: CampaignSchedule = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "ops": dict(self.ops),
            "schedule_events": self.schedule_events,
            "registers_checked": self.registers_checked,
            "blocks_checked": self.blocks_checked,
            "recoveries_checked": self.recoveries_checked,
            "samples_taken": self.samples_taken,
            "sim_time": self.sim_time,
            "reads_verified": self.reads_verified,
            "corruption": dict(self.corruption),
        }


class _ScheduleApplier:
    """Fires a schedule's events against the cluster at their times."""

    def __init__(
        self,
        cluster: FabCluster,
        schedule: CampaignSchedule,
        monitor: CampaignMonitor,
    ) -> None:
        self.cluster = cluster
        self.monitor = monitor
        self._base_drop = cluster.network.config.drop_probability
        self.injector = CorruptionInjector(
            cluster.nodes, on_corrupt=self._on_corrupt
        )
        env = cluster.env
        for event in schedule.sorted_events():
            timer = env.timeout(max(0.0, event.time - env.now))
            timer._add_callback(lambda _t, e=event: self._apply(e))

    def _on_corrupt(self, pid: int, register_id: int) -> None:
        # Drop the replica's volatile mirror so the damage is not
        # masked by caching, and stand the monitor down for this pair.
        self.cluster.replicas[pid].drop_mirror(register_id)
        self.monitor.note_corruption(pid, register_id)

    def _apply(self, event) -> None:
        cluster = self.cluster
        if event.kind == "crash":
            for pid in event.targets:
                cluster.nodes[pid].crash()
        elif event.kind == "recover":
            for pid in event.targets:
                cluster.nodes[pid].recover()
        elif event.kind == "corrupt":
            if len(event.targets) == 2:
                pid, register_id = event.targets
                self.injector.corrupt(pid, register_id, seed=int(event.value))
        elif event.kind == "torn_write":
            if len(event.targets) == 2:
                pid, register_id = event.targets
                self.injector.tear(pid, register_id)
        elif event.kind == "partition":
            group = {p for p in event.targets if 1 <= p <= cluster.config.n}
            rest = set(range(1, cluster.config.n + 1)) - group
            if group and rest:
                cluster.network.partition(group, rest)
        elif event.kind == "heal":
            cluster.network.heal_partition()
        elif event.kind == "drop_start":
            cluster.network.set_drop_probability(event.value)
        elif event.kind == "drop_stop":
            cluster.network.set_drop_probability(self._base_drop)
        self.monitor.sample()


class _Client:
    """One closed-loop workload driver: issue, await, think, repeat.

    Implemented with completion callbacks rather than as a simulation
    process so that a coordinator crash interrupts only the *operation*
    (recorded as CRASHED) — the client itself survives and moves on to
    another live brick, like a real initiator failing over.
    """

    def __init__(self, engine: "_Engine", client_id: int, seed: int) -> None:
        self.engine = engine
        self.rng = random.Random(seed)
        self.client_id = client_id
        self.remaining = engine.config.ops_per_client
        self._start_next()

    def _start_next(self) -> None:
        engine = self.engine
        if self.remaining <= 0 or engine.env.now >= engine.config.duration:
            return
        live = sorted(
            pid for pid, node in engine.cluster.nodes.items() if node.is_up
        )
        if not live:
            self._after(engine.config.think_time)
            return
        pid = self.rng.choice(live)
        register_id = self.rng.randrange(engine.config.registers)
        node = engine.cluster.nodes[pid]
        coordinator = engine.cluster.coordinators[pid]
        kind, value, block_index, generator = self._pick_op(
            coordinator, register_id
        )
        try:
            process = node.spawn(generator)
        except StorageError:
            # The brick crashed between the liveness check and the
            # spawn (same-timestamp event); retry elsewhere.
            generator.close()
            self._after(engine.config.think_time)
            return
        self.remaining -= 1
        engine.recorders[register_id].track(
            process, kind, value=value, block_index=block_index,
            coordinator=pid,
        )
        process._add_callback(lambda _e: self._op_done())

    def _pick_op(self, coordinator, register_id: int) -> Tuple:
        cfg = self.engine.config
        writing = self.rng.random() < cfg.write_fraction
        block_op = self.rng.random() < cfg.block_fraction
        if writing and block_op:
            j = self.rng.randint(1, cfg.m)
            block = self.engine.fresh_block()
            return (
                OpKind.WRITE_BLOCK, block, j,
                coordinator.write_block(register_id, j, block),
            )
        if writing:
            stripe = [self.engine.fresh_block() for _ in range(cfg.m)]
            return (
                OpKind.WRITE_STRIPE, stripe, None,
                coordinator.write_stripe(register_id, stripe),
            )
        if block_op:
            j = self.rng.randint(1, cfg.m)
            return (
                OpKind.READ_BLOCK, None, j,
                coordinator.read_block(register_id, j),
            )
        return (
            OpKind.READ_STRIPE, None, None,
            coordinator.read_stripe(register_id),
        )

    def _op_done(self) -> None:
        self._after(self.engine.config.think_time)

    def _after(self, delay: float) -> None:
        timer = self.engine.env.timeout(delay)
        timer._add_callback(lambda _t: self._start_next())


class _Engine:
    """Owns the cluster, recorders, and unique-value generation."""

    def __init__(self, config: CampaignConfig,
                 schedule: CampaignSchedule) -> None:
        self.config = config
        self.cluster = FabCluster(
            ClusterConfig(
                m=config.m,
                n=config.n,
                f=config.f,
                allow_unsafe_f=config.allow_unsafe_f,
                block_size=config.block_size,
                code_kind=config.code_kind,
                verify_checksums=config.verify_checksums,
                seed=config.seed,
                clock_skews=dict(schedule.clock_skews),
                network=NetworkConfig(
                    min_latency=1.0,
                    max_latency=3.0,
                    jitter_seed=config.seed,
                    delivery_sweeps=config.delivery_sweeps,
                ),
                coordinator=CoordinatorConfig(
                    op_timeout=config.op_timeout,
                    gc_enabled=config.gc_enabled,
                ),
                metrics_history_limit=256,
            )
        )
        self.env = self.cluster.env
        self.recorders = {
            register_id: HistoryRecorder(self.env, register_id=register_id)
            for register_id in range(config.registers)
        }
        self._value_counter = 0
        #: Every payload ever issued to a write — the read-verification
        #: invariant's ground truth (any bit flip leaves this set).
        self.issued_blocks: set = set()

    def fresh_block(self) -> bytes:
        """A unique, non-zero block value (the checker's assumption)."""
        self._value_counter += 1
        tag = f"s{self.config.seed}v{self._value_counter}."
        data = (tag.encode() * self.config.block_size)
        block = data[: self.config.block_size]
        self.issued_blocks.add(block)
        return block


def run_campaign(
    config: CampaignConfig,
    schedule: Optional[CampaignSchedule] = None,
) -> CampaignResult:
    """Run one campaign; returns its (deterministic) result.

    Args:
        config: all knobs; the fault schedule is generated from
            ``config.seed`` unless an explicit ``schedule`` is given
            (as the shrinker does when re-running subsets).
    """
    if schedule is None:
        schedule = generate_schedule(
            seed=config.seed,
            n=config.n,
            duration=config.duration,
            max_down=config.effective_max_down,
            crash_weight=config.crash_weight,
            partition_weight=config.partition_weight,
            drop_weight=config.drop_weight,
            corrupt_weight=config.corrupt_weight,
            registers=config.registers,
            torn_write_probability=config.torn_write_probability,
            drop_max=config.drop_max,
            max_clock_skew=config.max_clock_skew,
        )
    engine = _Engine(config, schedule)
    monitor = CampaignMonitor(engine.cluster)
    applier = _ScheduleApplier(engine.cluster, schedule, monitor)

    daemon = None
    if config.scrub_enabled:
        # Imported here: repro.scrub builds on core.rebuild, and the
        # campaign package should stay importable without it.
        from ..scrub.daemon import ScrubConfig, ScrubDaemon

        daemon = ScrubDaemon(
            engine.cluster,
            registers=range(config.registers),
            config=ScrubConfig(
                mode=config.effective_scrub_mode,
                interval=config.scrub_interval,
                seed=config.seed,
            ),
            horizon=config.duration + config.drain,
        )
        daemon.start()

    # Periodic timestamp samples, independent of fault events.
    def periodic() -> None:
        if engine.env.now >= config.duration + config.drain:
            return
        monitor.sample()
        timer = engine.env.timeout(config.sample_interval)
        timer._add_callback(lambda _t: periodic())

    periodic()

    client_master = random.Random((config.seed << 16) ^ 0xC0FFEE)
    for client_id in range(config.clients):
        _Client(engine, client_id, seed=client_master.randrange(2**31))

    engine.cluster.run(until=config.duration + config.drain)
    if daemon is not None:
        daemon.stop()
    monitor.sample()

    blocks_checked = 0
    reads_verified = 0
    for register_id, recorder in engine.recorders.items():
        blocks_checked += monitor.check_history(
            register_id, recorder, config.m
        )
        reads_verified += monitor.check_read_integrity(
            register_id, recorder, engine.issued_blocks, config.block_size
        )

    ops: Dict[str, int] = {}
    for recorder in engine.recorders.values():
        for status, count in recorder.summary().items():
            ops[status] = ops.get(status, 0) + count

    metrics = engine.cluster.metrics
    corruption = {
        "corruptions_injected": applier.injector.corruptions_injected,
        "torn_injected": applier.injector.torn_injected,
        "checksum_failures": metrics.checksum_failures,
        "degraded_reads": metrics.degraded_reads,
        "scrub_scans": metrics.scrub_scans,
        "scrub_detections": metrics.scrub_detections,
        "scrub_repairs": metrics.scrub_repairs,
    }

    return CampaignResult(
        seed=config.seed,
        violations=list(monitor.violations),
        ops=dict(sorted(ops.items())),
        schedule_events=len(schedule.events),
        registers_checked=len(engine.recorders),
        blocks_checked=blocks_checked,
        recoveries_checked=monitor.recoveries_checked,
        samples_taken=monitor.samples_taken,
        sim_time=engine.env.now,
        reads_verified=reads_verified,
        corruption=corruption,
        schedule=schedule,
    )


def broken_config(base: CampaignConfig) -> CampaignConfig:
    """A deliberately unsound variant of ``base``: ``n < 2f + m``.

    Raises ``f`` one past the Theorem 2 bound (so quorums of size
    ``n - f`` intersect in fewer than ``m`` processes) and flips
    ``allow_unsafe_f``.  Used to validate that the campaign's invariant
    checks actually fire.
    """
    unsafe_f = (base.n - base.m) // 2 + 1
    return replace(base, f=unsafe_f, allow_unsafe_f=True)
