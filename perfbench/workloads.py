"""The benchmark's three workloads, driven through the public API.

Each workload builds a ``FabCluster`` over a transport, lays a
``LogicalVolume`` over it, prefills every stripe and then runs closed-loop
clients: each client is a coroutine that keeps one operation outstanding
in its own ``VolumeSession`` and submits the next only after the reply.
All clients share one process and one thread.  Every payload is unique
per block (the linearizability checker assumes it) and derives from the
seed.

* ``serve-loopback-1k`` stresses the asyncio pump, timers, ``send`` and
  session scheduling: 1000 clients over the in-process transport.
* ``serve-tcp-4k`` stresses the JSON wire codec and sockets: one client
  over real TCP on 127.0.0.1.  One client already keeps the loop busy;
  a second adds no throughput but queues each op behind the other,
  past the 8 ms retransmit interval, and the retransmit bursts that
  follow make latency tails swing 2x from run to run.  The client
  walks over 64 stripes rather than one: block writes leave every log
  growing, and only a write that a host stall pushes onto the slow path
  sends a GC notice, which empties its stripe's log.  On one stripe a
  single stall empties the whole store, so the space left at the end
  ranged over 28 to 2303 bytes per user byte between runs; on 64 it
  empties a 64th.
* ``sim-stripe-64k`` stresses the erasure code and the stable store:
  one sequential caller on the deterministic simulator with a mix of
  stripe and block operations, and a data brick crashed for the second
  half so reads of its unit decode and writes to it recover.  Its work
  is a fixed number of operations, so every count repeats exactly.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import itertools
import random
import resource
import socket
import statistics
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional

from repro.analysis.costs import our_costs
from repro.analysis.latency import percentile
from repro.analysis.serve import SERVE_OP_TIMEOUT
from repro.core.cluster import ClusterConfig, FabCluster
from repro.core.coordinator import CoordinatorConfig
from repro.core.volume import LogicalVolume
from repro.transport import make_transport
from repro.transport.aio import AsyncioTransport
from repro.types import OpKind
from repro.verify.linearizability import check_strict_linearizability

from hostspeed import HostSpeed
from tracing import Tracer, TracingTransport, instrument_cluster, instrument_wire

_clock = time.perf_counter


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


@dataclasses.dataclass(frozen=True)
class Spec:
    """One workload's fixed shape.

    A run is a fixed amount of work, ``sizing_ops_per_s * seconds``
    operations: about ``seconds`` of wall time on the machine the rate
    was measured on (a 2-vCPU Xeon).  Fixed work keeps the inputs of a
    seed identical from run to run and keeps the space and memory
    metrics from growing with speed.  Serve clients start one after
    another, evenly spread over ``ramp_s``.
    """

    transport: str
    m: int
    n: int
    block_size: int
    clients: int
    stripes: int
    sizing_ops_per_s: int
    ramp_s: float = 0.0

    def total_ops(self, seconds: float) -> int:
        """Operations in a run, an even number per serve client."""
        per_client = self.sizing_ops_per_s * seconds / self.clients
        if self.transport == "sim":
            return max(1, round(per_client))
        return self.clients * max(2, 2 * round(per_client / 2))


WORKLOADS: Dict[str, Spec] = {
    "serve-loopback-1k": Spec(
        "loopback", m=3, n=5, block_size=64, clients=1000, stripes=1000,
        sizing_ops_per_s=560, ramp_s=1.0,
    ),
    "serve-tcp-4k": Spec(
        "tcp", m=3, n=5, block_size=4096, clients=1, stripes=64,
        sizing_ops_per_s=220,
    ),
    "sim-stripe-64k": Spec(
        "sim", m=4, n=8, block_size=64 * 1024, clients=1, stripes=17,
        sizing_ops_per_s=440,
    ),
}

#: The simulator workload's repeating pattern of 20 operations: 25%
#: write-stripe, 25% write-block, 40% read-block, 10% read-stripe.  The
#: pattern is fixed and only the payloads follow the seed, because the
#: latency distribution has several modes and a seed-dependent mix
#: would move its percentiles between them.  Reads come in pairs after a
#: write-stripe and a write-block: a read right after a stripe write
#: pays for that write's GC notices and takes twice as long, and when
#: half the reads did, the read median sat on the edge between the two
#: modes and moved by 30% between runs.  The length is coprime with the
#: workload's 17 stripes, so every stripe sees every kind.
SIM_PATTERN = (
    "write-stripe", "write-block", "read-block", "read-block",
    "write-stripe", "write-block", "read-block", "read-stripe",
    "write-stripe", "write-block", "read-block", "read-block",
    "write-stripe", "write-block", "read-block", "read-stripe",
    "write-stripe", "write-block", "read-block", "read-block",
)
#: The data brick the simulator workload crashes halfway through.
CRASHED_BRICK = 1
#: Full-stripe prefill writes kept in flight at once, at most.  The
#: prefill keeps no more in flight than the workload has clients: 64
#: concurrent 12 KiB stripe writes over TCP overload it into aborts.
PREFILL_INFLIGHT = 64
#: Table 1 row for each session operation kind (fast paths).
_TABLE1_ROW = {
    "read-block": "block-read/F",
    "write-block": "block-write/F",
    "read-blocks": "stripe-read/F",
    "write-stripe": "stripe-write",
}
#: Speed probes on each side of a set-up.
SETUP_PROBES = 5
#: How long the clients of one run may take before it is abandoned; a
#: traced run measures twice and must still end within 180 s.
_STALL_S = 75.0


def payload(seed: int, tag: str, block_size: int) -> bytes:
    """A block that no other write in the run produces."""
    text = f"{seed}:{tag}|".encode()
    return (text * (block_size // len(text) + 1))[:block_size]


def free_port_block(count: int) -> int:
    """First port of ``count`` consecutive free ports on 127.0.0.1.

    Probed without ``SO_REUSEADDR``, so ports still in ``TIME_WAIT``
    from an earlier run are skipped.  The block is drawn at random
    below the Linux ephemeral range, so back-to-back runs do not
    collide.
    """
    rng = random.SystemRandom()
    for _ in range(50):
        base = rng.randrange(20000, 32000 - count)
        probes = []
        try:
            for port in range(base, base + count):
                probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                probes.append(probe)
                probe.bind(("127.0.0.1", port))
        except OSError:
            continue
        finally:
            for probe in probes:
                probe.close()
        return base
    raise BenchmarkError(f"no block of {count} free ports on 127.0.0.1")


class System:
    """One cluster, its transport and volume, ready for clients."""

    def __init__(self, spec: Spec, seed: int, tracer: Optional[Tracer]):
        self.spec = spec
        self.seed = seed
        self.tracer = tracer
        if spec.transport == "sim":
            self.inner = make_transport("sim")
            coordinator = CoordinatorConfig(gc_enabled=True)
        else:
            ports = (
                {"base_port": free_port_block(spec.n)}
                if spec.transport == "tcp" else {}
            )
            self.inner = AsyncioTransport(mode=spec.transport, **ports)
            coordinator = CoordinatorConfig(
                gc_enabled=True, op_timeout=SERVE_OP_TIMEOUT
            )
        self.transport = (
            TracingTransport(self.inner, tracer) if tracer else self.inner
        )
        self.cluster = FabCluster(
            ClusterConfig(
                m=spec.m, n=spec.n, block_size=spec.block_size,
                coordinator=coordinator, seed=seed,
            ),
            transport=self.transport,
        )
        self.volume = LogicalVolume(
            self.cluster, num_stripes=spec.stripes,
            stripe_shuffle=spec.transport != "sim",
        )
        self.erasure_bytes = (
            instrument_cluster(self.cluster, tracer) if tracer else None
        )
        #: Last successfully written value of every logical block, or
        #: None once a write to it failed (its content is then unknown).
        self.model: Dict[int, Optional[bytes]] = {}
        self.sessions: List = []

    async def start(self) -> None:
        if isinstance(self.inner, AsyncioTransport):
            try:
                await self.inner.start()
            except OSError as error:
                raise BenchmarkError(
                    f"cannot bind ports {self.inner.base_port}.."
                    f"{self.inner.base_port + self.spec.n - 1}: {error}"
                ) from error

    async def stop(self) -> None:
        if isinstance(self.inner, AsyncioTransport):
            await self.inner.stop()

    def stored_bytes(self) -> int:
        """Stable-store bytes across every brick."""
        return sum(node.stable.size_bytes() for node in self.cluster.nodes.values())

    async def prefill(self) -> None:
        """Write every stripe once, so every read has a known value."""
        blocks = self.volume.num_blocks
        values = [
            payload(self.seed, f"prefill.{block}", self.spec.block_size)
            for block in range(blocks)
        ]
        session = self.volume.session(
            max_inflight=min(PREFILL_INFLIGHT, self.spec.clients),
            seed=self.seed,
        )
        ops = session.submit_write_range(0, values)
        await session.drain_async()
        failed = [op for op in ops if not op.ok]
        if failed:
            raise BenchmarkError(f"prefill failed: {failed[0]!r}")
        self.model.update(enumerate(values))
        self.sessions.append(session)


async def build(spec: Spec, seed: int, tracer: Optional[Tracer]) -> System:
    """Set up one system: build the cluster, bind, prefill."""
    system = System(spec, seed, tracer)
    await system.start()
    try:
        await system.prefill()
    except BaseException:
        await system.stop()
        raise
    return system


class Sample(NamedTuple):
    """One completed operation as its client saw it."""

    is_read: bool
    submitted: float
    done: float
    #: Process CPU time when the reply arrived.
    cpu: float
    ok: bool
    #: A read that returned another value than the client's last write.
    wrong: bool
    #: The (register_id, unit) cells the operation covered.
    cells: tuple
    kind: str
    blocks: int
    attempts: int
    retries: int
    failovers: int

    @property
    def latency_s(self) -> float:
        return self.done - self.submitted


class Recorder:
    """What the clients saw, with every read checked against the model.

    Reads are compared as they return and only a compact sample of each
    operation is kept, so a run of 64 KiB reads does not hold every
    block it read.  ``negative_control`` corrupts the first expected
    value, which must then count as a wrong value.
    """

    def __init__(self, system: System, speed: HostSpeed,
                 negative_control: bool) -> None:
        self.system = system
        self.speed = speed
        self.samples: List[Sample] = []
        #: (first submit, last reply) of every client.
        self.spans: List[tuple] = []
        self.reads_checked = 0
        self.wrong_values = 0
        #: Stable-store bytes across bricks, summed at every reply (the
        #: run's average shows the logs that block writes leave).
        self.stored_bytes = 0
        self._corrupt_next = negative_control

    async def run(self, session, op, expected=None) -> None:
        """Await ``op``, the one operation ``session`` has submitted."""
        submitted = _clock()
        await session.drain_async()
        done, cpu = _clock(), time.process_time()
        wrong = False
        if op.ok and expected is not None:
            if self._corrupt_next:
                expected, self._corrupt_next = b"no read returns this", False
            self.reads_checked += 1
            wrong = op.value != expected
            self.wrong_values += wrong
        self.samples.append(Sample(
            not op.is_write, submitted, done, cpu, op.ok, wrong,
            tuple((op.register_id, unit) for unit in op.units),
            op.kind, len(op.blocks), op.attempts, op.retries, op.failovers,
        ))
        self.stored_bytes += self.system.stored_bytes()
        self.speed.maybe_probe()


async def serve_client(system: System, client: int, ops: int,
                       recorder: Recorder) -> None:
    """Write a unit, read it back, move to the next of the client's stripes.

    Client ``c`` owns stripes ``c, c + clients, ...``; each pass over
    them moves to the next unit.
    """
    spec = system.spec
    session = system.volume.session(
        max_inflight=1, seed=system.seed * 100003 + client
    )
    system.sessions.append(session)
    rng = random.Random(system.seed * 7919 + client)
    units = rng.sample(range(spec.m), spec.m)
    # Clients that all start at once move in lockstep waves through the
    # pump; real clients arrive spread out.  Evenly, not at random: the
    # waves a random draw leaves moved the latency percentiles by 15%
    # from seed to seed.
    await asyncio.sleep(spec.ramp_s * client / spec.clients)
    began = _clock()
    owned = spec.stripes // spec.clients
    for step in range(ops):
        visit = step // 2
        stripe = client + (visit % owned) * spec.clients
        block = stripe + units[(visit // owned) % spec.m] * spec.stripes
        if step % 2 == 0:
            value = payload(system.seed, f"{client}.{step}", spec.block_size)
            op = session.submit_write(block, value)
            await recorder.run(session, op)
            system.model[block] = value if op.ok else None
        else:
            op = session.submit_read(block)
            await recorder.run(session, op, system.model[block])
    recorder.spans.append((began, _clock()))


async def sim_caller(system: System, total_ops: int,
                     recorder: Recorder) -> None:
    """Round-robin over the stripes with the simulator's op mix.

    25% write-stripe, 25% write-block (the Modify path), 40% read-block
    and 10% read-stripe; a data brick is down for the second half.
    """
    spec = system.spec
    m = spec.m
    model = system.model
    began = _clock()
    for index in range(total_ops):
        if index % len(SIM_PATTERN) == 0:
            # A session keeps every operation it ran; a fresh one per
            # pattern keeps the run from holding every 64 KiB block.
            session = system.volume.session(
                max_inflight=1, seed=system.seed + index
            )
        if index == total_ops // 2:
            system.cluster.crash(CRASHED_BRICK)
        kind = SIM_PATTERN[index % len(SIM_PATTERN)]
        stripe = index % spec.stripes
        base = stripe * m
        unit = (index // spec.stripes + stripe) % m
        if kind == "write-stripe":
            values = [
                payload(system.seed, f"{index}.{u}", spec.block_size)
                for u in range(m)
            ]
            [op] = session.submit_write_range(base, values)
            await recorder.run(session, op)
            for u, value in enumerate(values):
                model[base + u] = value if op.ok else None
        elif kind == "write-block":
            value = payload(system.seed, f"{index}", spec.block_size)
            op = session.submit_write(base + unit, value)
            await recorder.run(session, op)
            model[base + unit] = value if op.ok else None
        elif kind == "read-block":
            op = session.submit_read(base + unit)
            await recorder.run(session, op, model[base + unit])
        else:
            [op] = session.submit_read_range(base, m)
            expected = [model[base + u] for u in range(m)]
            await recorder.run(
                session, op, None if None in expected else expected
            )
    recorder.spans.append((began, _clock()))


@dataclasses.dataclass
class Snapshot:
    """Counters read at one edge of a measured phase."""

    wall: float
    cpu: float
    steps: int
    heap_pushes: int
    disk_reads: int
    disk_writes: int
    retransmits: int
    bytes_copied: int
    self_s: Dict[str, float]
    calls: Dict[str, int]
    root_s: float
    phase_messages: int
    gc_messages: int
    round_trips: int
    erasure_bytes: int
    wire_bytes: int
    outbox_drops: int
    reconnects: int
    transport_retries: int


def snapshot(system: System, wire_tally: Optional[dict]) -> Snapshot:
    env = system.transport.env
    metrics = system.cluster.metrics
    tracer = system.tracer
    traced = isinstance(system.transport, TracingTransport)
    aio = isinstance(system.inner, AsyncioTransport)
    return Snapshot(
        wall=_clock(),
        cpu=time.process_time(),
        steps=env.events_processed,
        heap_pushes=env.events_scheduled,
        disk_reads=metrics.total_disk_reads,
        disk_writes=metrics.total_disk_writes,
        retransmits=metrics.total_retransmissions,
        bytes_copied=sum(
            node.stable.bytes_copied for node in system.cluster.nodes.values()
        ),
        self_s=dict(tracer.self_s) if tracer else {},
        calls=dict(tracer.calls) if tracer else {},
        root_s=tracer.root_s if tracer else 0.0,
        phase_messages=system.transport.phase_messages if traced else 0,
        gc_messages=system.transport.gc_messages if traced else 0,
        round_trips=system.transport.round_trips if traced else 0,
        erasure_bytes=system.erasure_bytes["bytes"] if tracer else 0,
        wire_bytes=wire_tally["bytes"] if wire_tally else 0,
        outbox_drops=sum(system.inner.outbox_drops.values()) if aio else 0,
        reconnects=system.inner.reconnects if aio else 0,
        transport_retries=metrics.session_summary()["transport_retries"],
    )


@dataclasses.dataclass
class Phase:
    """One measured run of a workload on one built system."""

    system: System
    recorder: Recorder
    speed: HostSpeed
    first: Snapshot
    last: Snapshot

    @property
    def wall_s(self) -> float:
        """Wall seconds of the phase, its speed probes left out."""
        return (
            self.last.wall - self.first.wall
            - self.speed.probe_s(self.first.wall, self.last.wall)
        )

    def steady(self):
        """The window in which every client is running, and what it holds.

        It opens when the last client starts and closes when the first
        one finishes, so the staggered start and the drain at the end,
        when fewer clients compete, do not dilute the figures.  Returns
        ``(opens, closes, replies, submitted)``: the window's edges, the
        samples whose reply fell inside it and those submitted inside.
        """
        spans = self.recorder.spans
        opens = max(began for began, _ in spans)
        closes = min(ended for _, ended in spans)
        if closes <= opens:  # a run too short for all to overlap
            opens = min(began for began, _ in spans)
            closes = max(ended for _, ended in spans)
        samples = self.recorder.samples
        replies = [s for s in samples if opens <= s.done <= closes]
        submitted = [s for s in samples if opens <= s.submitted <= closes]
        return opens, closes, replies, submitted

    def window_ref_s(self, opens: float, closes: float) -> float:
        """Reference seconds between two instants (see ``hostspeed.py``)."""
        return self.speed.ref(closes) - self.speed.ref(opens)

    def latency_ref_s(self, sample: Sample) -> float:
        """A sample's latency in reference seconds."""
        return self.speed.ref(sample.done) - self.speed.ref(sample.submitted)


async def measure(system: System, seconds: float, wire_tally: Optional[dict],
                  negative_control: bool) -> Phase:
    """Run the clients and snapshot the counters around them."""
    spec = system.spec
    speed = HostSpeed()
    recorder = Recorder(system, speed, negative_control)
    total = spec.total_ops(seconds)
    # The set-up's garbage is not the run's: left in place, the run's
    # first full collection pauses the loop for up to 0.2 s, every
    # coordinator timer expires meanwhile, and the retransmissions that
    # follow slow the next operations.
    gc.collect()
    speed.probe()
    first = snapshot(system, wire_tally)
    if spec.transport == "sim":
        clients = [sim_caller(system, total, recorder)]
    else:
        clients = [
            serve_client(system, client, total // spec.clients, recorder)
            for client in range(spec.clients)
        ]
    try:
        await asyncio.wait_for(asyncio.gather(*clients), timeout=_STALL_S)
    except asyncio.TimeoutError as error:
        raise BenchmarkError(
            f"{total} operations took longer than {_STALL_S:.0f} s"
        ) from error
    last = snapshot(system, wire_tally)
    speed.probe()
    return Phase(system, recorder, speed, first, last)


def _history_by_block(sessions) -> Dict[tuple, list]:
    """Every session's records on each (register, unit), values renamed.

    The checker relates values only by identity, but it formats a label
    for every pair of operations, so 4 KiB values make it quadratic in
    bytes.  Renaming each distinct value to a short token (all-zero
    blocks stay nil) keeps the verdict and cuts the cost; the full
    values are compared with the model separately.
    """
    tokens: Dict[bytes, bytes] = {}

    def token(value):
        if value is None or not any(value):
            return None
        return tokens.setdefault(bytes(value), b"v%d" % len(tokens))

    per_block: Dict[tuple, list] = defaultdict(list)
    ids = itertools.count(1)
    for session in sessions:
        for record in session.history():
            if record.kind is OpKind.WRITE_STRIPE:
                units = range(1, len(record.value) + 1)
                kind = OpKind.WRITE_BLOCK
            else:
                units = (record.block_index,)
                kind = record.kind
            for unit in units:
                per_block[(record.register_id, unit)].append(
                    dataclasses.replace(
                        record, op_id=next(ids), kind=kind,
                        block_index=unit,
                        value=token(record.block_value(unit)),
                    )
                )
    return per_block


def _corrupt_first_read(histories: List[list]) -> None:
    """Make one read in the history return a value no write wrote."""
    for records in histories:
        for index, record in enumerate(records):
            if record.is_read and record.value is not None:
                records[index] = dataclasses.replace(
                    record, value=b"no write wrote this"
                )
                return


@dataclasses.dataclass
class Verdict:
    """What the checks found.

    ``attempted`` counts the timed operations and ``failed`` those among
    them that did not succeed, read a wrong value or touched a block
    whose history is not linearizable, each operation once.
    """

    attempted: int
    failed: int
    wrong_values: int
    non_linearizable_blocks: int
    ops_checked: int
    check_s: float

    def __add__(self, other: "Verdict") -> "Verdict":
        return Verdict(*(a + b for a, b in zip(
            dataclasses.astuple(self), dataclasses.astuple(other)
        )))

    @property
    def correct(self) -> bool:
        """No fault is injected, so every operation must succeed."""
        return (
            self.failed == 0
            and self.wrong_values == 0
            and self.non_linearizable_blocks == 0
            and self.ops_checked > 0
        )


def verify(phase: Phase, negative_control: bool) -> Verdict:
    """Check the history as a whole, after the run.

    Every read was already compared with the model as it returned.  The
    serve workloads check strict linearizability per ``(register_id,
    block_index)`` over every session's records, the prefill's
    included; the simulator workload's single sequential caller ends
    with a read of every stripe through ``cluster.register``.
    ``negative_control`` gives one recorded read a value no write
    wrote, which must make the linearizability check fail.
    """
    start = _clock()
    system = phase.system
    recorder = phase.recorder
    wrong = recorder.wrong_values
    checked = recorder.reads_checked
    bad_cells = set()
    if system.spec.transport == "sim":
        m = system.spec.m
        coordinator = system.cluster.live_processes()[0]
        for stripe in range(system.spec.stripes):
            expected = [system.model[stripe * m + u] for u in range(m)]
            if None not in expected:
                checked += 1
                register = system.cluster.register(stripe, coordinator)
                wrong += register.read_stripe() != expected
    else:
        histories = _history_by_block(system.sessions)
        if negative_control:
            _corrupt_first_read(list(histories.values()))
        for cell, records in histories.items():
            checked += len(records)
            if not check_strict_linearizability(records).ok:
                bad_cells.add(cell)
    failed = sum(
        1 for sample in recorder.samples
        if not sample.ok or sample.wrong or not bad_cells.isdisjoint(sample.cells)
    )
    return Verdict(
        attempted=len(recorder.samples),
        failed=failed,
        wrong_values=wrong,
        non_linearizable_blocks=len(bad_cells),
        ops_checked=checked,
        check_s=_clock() - start,
    )


def end_to_end(phase: Phase, verdict: Verdict, setups: List[float],
               stored_bytes: int):
    """The user-visible metrics of one untraced phase, and sample counts.

    Rates and latencies come from the steady window (:meth:`Phase.steady`),
    and every time is in reference seconds: wall time at the host speed
    probed around it (see ``hostspeed.py``).  The second dict holds the
    sample counts, the window's mean host speed and the timing figures
    in wall time, for people.

    ``stored_bytes`` is the stable store as the run left it, with
    whatever log entries the protocol's own GC has not yet trimmed.
    """
    system = phase.system
    speed = phase.speed
    opens, closes, replies, submitted = phase.steady()
    if len(replies) < 2:
        raise BenchmarkError("the steady window holds too few operations")
    first, last = replies[0].done, replies[-1].done
    cpu_s = replies[-1].cpu - replies[0].cpu - speed.probe_cpu_s(first, last)
    cpu_speed = speed.speed_over(first, last)
    ok = sum(1 for sample in replies if sample.ok)
    figures = {}
    for unit, latency in (("ref", phase.latency_ref_s),
                          ("wall", Sample.latency_s.fget)):
        reads = [latency(sample) for sample in submitted if sample.is_read]
        writes = [latency(sample) for sample in submitted if not sample.is_read]
        if not reads or not writes:
            raise BenchmarkError("the steady window holds too few operations")
        figures[unit] = {
            "read_p50_ms": 1e3 * percentile(reads, 50),
            "read_p99_ms": 1e3 * percentile(reads, 99),
            "write_p50_ms": 1e3 * percentile(writes, 50),
            "write_p99_ms": 1e3 * percentile(writes, 99),
        }
    wall = figures["wall"]
    wall["ops_per_s"] = ok / (closes - opens - speed.probe_s(opens, closes))
    wall["cpu_ms_per_op"] = 1e3 * cpu_s / (len(replies) - 1)
    return {
        "ops_per_s": ok / phase.window_ref_s(opens, closes),
        **figures["ref"],
        "ok_op_ratio": 1.0 - verdict.failed / verdict.attempted,
        "cpu_ms_per_op": wall["cpu_ms_per_op"] * cpu_speed,
        "stored_bytes_per_user_byte": (
            stored_bytes / system.volume.capacity_bytes
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": statistics.median(setups),
    }, {
        "counts": {"reads": len(reads), "writes": len(writes)},
        "host_speed": speed.speed_over(opens, closes),
        "wall": wall,
    }


def per_layer(phase: Phase, verdict: Verdict, untraced_ops_per_s: float) -> dict:
    """The per-layer metrics of one traced phase."""
    system = phase.system
    first, last = phase.first, phase.last
    samples = phase.recorder.samples
    ops = len(samples)
    window = phase.wall_s

    def self_s(name: str) -> float:
        return last.self_s.get(name, 0.0) - first.self_s.get(name, 0.0)

    def calls(name: str) -> int:
        return last.calls.get(name, 0) - first.calls.get(name, 0)

    erasure_s = sum(
        self_s(f"erasure.{name}") for name in ("encode", "decode", "modify")
    )
    frames = calls("wire.encode")
    wire_bytes = last.wire_bytes - first.wire_bytes
    user_bytes = sum(sample.blocks for sample in samples) * system.spec.block_size
    costs = our_costs(system.spec.n, system.spec.m, system.spec.block_size)
    paper_messages = sum(
        costs[_TABLE1_ROW[sample.kind]].messages for sample in samples
    )
    phase_messages = last.phase_messages - first.phase_messages
    opens, closes, replies, _ = phase.steady()
    traced_ops_per_s = (
        sum(1 for sample in replies if sample.ok)
        / phase.window_ref_s(opens, closes)
    )
    return {
        "kernel.step_s": self_s("kernel.step"),
        "kernel.steps_per_op": (last.steps - first.steps) / ops,
        "kernel.heap_pushes_per_op": (last.heap_pushes - first.heap_pushes) / ops,
        "aio.send_s": self_s("transport.send"),
        "aio.sends": calls("transport.send"),
        "aio.unattributed_s": window - (last.root_s - first.root_s),
        "aio.outbox_drops": last.outbox_drops - first.outbox_drops,
        "aio.reconnects": last.reconnects - first.reconnects,
        "process.cpu_util": (
            last.cpu - first.cpu
            - phase.speed.probe_cpu_s(first.wall, last.wall)
        ) / window,
        "wire.encode_s": self_s("wire.encode"),
        "wire.decode_s": self_s("wire.decode"),
        "wire.frames": frames,
        "wire.bytes_per_frame": wire_bytes / frames if frames else 0.0,
        "wire.bytes_per_user_byte": wire_bytes / user_bytes,
        "erasure.encode_calls": calls("erasure.encode"),
        "erasure.decode_calls": calls("erasure.decode"),
        "erasure.modify_calls": calls("erasure.modify"),
        "erasure.encode_s": self_s("erasure.encode"),
        "erasure.decode_s": self_s("erasure.decode"),
        "erasure.modify_s": self_s("erasure.modify"),
        "erasure.mib_per_s": (
            (last.erasure_bytes - first.erasure_bytes) / 2**20 / erasure_s
            if erasure_s else 0.0
        ),
        "replica.requests": calls("replica.request"),
        "replica.request_s": self_s("replica.request"),
        "replica.disk_writes_per_op": (last.disk_writes - first.disk_writes) / ops,
        "replica.disk_reads_per_op": (last.disk_reads - first.disk_reads) / ops,
        "store.calls": calls("store"),
        "store.s": self_s("store"),
        "store.bytes_copied": last.bytes_copied - first.bytes_copied,
        "store.bytes_per_user_byte": (
            phase.recorder.stored_bytes / ops / system.volume.capacity_bytes
        ),
        "coordinator.reply_s": self_s("coordinator.reply"),
        "coordinator.timer_s": self_s("coordinator.timer"),
        "coordinator.timers_fired": calls("coordinator.timer"),
        "coordinator.round_trips_per_op": (last.round_trips - first.round_trips) / ops,
        "coordinator.retransmits_per_op": (last.retransmits - first.retransmits) / ops,
        "coordinator.messages_per_op": phase_messages / ops,
        "coordinator.gc_messages_per_op": (last.gc_messages - first.gc_messages) / ops,
        "coordinator.message_excess": phase_messages / paper_messages,
        "session.attempts_per_op": sum(sample.attempts for sample in samples) / ops,
        "session.retries": sum(sample.retries for sample in samples),
        "session.failovers": sum(sample.failovers for sample in samples),
        "session.transport_retries": (
            last.transport_retries - first.transport_retries
        ),
        "verify.check_s": verdict.check_s,
        "verify.ops_checked": verdict.ops_checked,
        "trace.wall_s": window,
        "trace.attributed_share": (last.root_s - first.root_s) / window,
        "trace.ops_per_s": traced_ops_per_s,
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.slowdown": untraced_ops_per_s / traced_ops_per_s,
    }


async def run_workload(name: str, seed: int, seconds: float, trace: bool,
                       setups: int, negative_control: bool) -> dict:
    """Set up, measure and verify one workload; return its report.

    Untraced, the report holds the end-to-end metrics.  Traced, the
    untraced run is followed by a traced run on a fresh system, and the
    report holds the per-layer metrics of the traced run.
    """
    spec = WORKLOADS[name]
    setup_times: List[float] = []
    system = None
    for _ in range(setups):
        if system is not None:
            await system.stop()
            system = None
        gc.collect()  # the previous set-up's garbage is not this one's cost
        # Set-up runs the program's code end to end, with no place to
        # probe; probes on both sides give its host speed.
        speed = HostSpeed()
        for _ in range(SETUP_PROBES):
            speed.probe()
        started = _clock()
        system = await build(spec, seed, tracer=None)
        took = _clock() - started
        for _ in range(SETUP_PROBES):
            speed.probe()
        setup_times.append(took * speed.median_speed())
    try:
        phase = await measure(system, seconds, None, negative_control)
    finally:
        await system.stop()
    # As the run left the store: before the checks, whose final stripe
    # reads on the simulator can take the recovery path and rewrite logs.
    stored = system.stored_bytes()
    verdict = verify(phase, negative_control)
    metrics, extra = end_to_end(phase, verdict, setup_times, stored)
    report = {"verdict": verdict, "setup_s": setup_times, **extra}
    if not trace:
        report["metrics"] = metrics
        return report
    del system, phase
    gc.collect()
    tracer = Tracer()
    with instrument_wire(tracer) as wire_tally:
        system = await build(spec, seed, tracer)
        try:
            phase = await measure(
                system, seconds, wire_tally, negative_control
            )
        finally:
            await system.stop()
    traced_verdict = verify(phase, negative_control)
    report["verdict"] = verdict + traced_verdict
    report["metrics"] = per_layer(phase, traced_verdict, metrics["ops_per_s"])
    return report
