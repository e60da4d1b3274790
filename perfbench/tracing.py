"""Outside-in layer tracing for the benchmark.

Every span is recorded by wrapping a public entry point of one layer
from here, never by editing the program:

* :class:`TracingTransport` decorates any transport (the same shape as
  ``repro.transport.chaos.ChaosTransport``) and times ``send``, the
  per-process deliver callbacks given to ``register`` (split into
  replica requests and coordinator replies by payload type) and the
  ``set_timer`` callbacks;
* :func:`instrument_cluster` wraps ``Environment.step`` on the
  transport's env, ``encode/decode/modify`` on ``cluster.code`` and
  ``store/load/append/load_journal`` on every brick's ``StableStore``;
* :func:`instrument_wire` wraps ``repro.transport.wire.encode_frame``
  and ``decode_frame`` for the lifetime of a ``with`` block.

A span's self time is its duration minus the time covered by spans
opened inside it.  Wall time not covered by any top-level span is
reported as unattributed by the caller, never dropped.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Optional

from repro.core import messages
from repro.sim.node import StableStore
from repro.transport import wire
from repro.transport.base import Transport

_clock = time.perf_counter

#: Payload types a brick's replica handles; everything else delivered
#: to a brick is a reply for its coordinator.
_REQUESTS = frozenset(messages.Request)
#: Requests that open a quorum phase (GC notices are fire-and-forget).
_PHASE_REQUESTS = _REQUESTS - {messages.GcReq}


class Tracer:
    """Span stack with per-name self time and call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Total duration of spans opened with no enclosing span.
        self.root_s = 0.0
        self._stack: list = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as one span called ``name``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration

        return traced


class TracingTransport(Transport):
    """Wrap a transport and time the calls that cross it.

    Also counts, at the send boundary, the protocol messages and the
    quorum phases (round trips) the coordinators open: a coordinator's
    request ids increase, so a request whose id exceeds every earlier id
    from the same source starts a new phase, and resends of an older id
    are retransmissions.
    """

    def __init__(self, inner: Transport, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.env = inner.env
        self.phase_messages = 0
        self.gc_messages = 0
        self.round_trips = 0
        self._last_request: Dict[int, int] = {}
        self._send = tracer.wrap("transport.send", inner.send)

    @property
    def metrics(self) -> Any:
        return self.inner.metrics

    @metrics.setter
    def metrics(self, sink: Any) -> None:
        self.inner.metrics = sink

    @property
    def network(self):
        return getattr(self.inner, "network", None)

    def register(self, process_id, deliver: Callable[[Any], None]) -> None:
        requests = self.tracer.wrap("replica.request", deliver)
        replies = self.tracer.wrap("coordinator.reply", deliver)

        def traced_deliver(message) -> None:
            if type(message.payload) in _REQUESTS:
                requests(message)
            else:
                replies(message)

        self.inner.register(process_id, traced_deliver)

    def send(self, src, dst, payload, size: int = 0) -> None:
        kind = type(payload)
        if kind in _PHASE_REQUESTS:
            self.phase_messages += 1
            if payload.request_id > self._last_request.get(src, 0):
                self._last_request[src] = payload.request_id
                self.round_trips += 1
        elif kind is messages.GcReq:
            self.gc_messages += 1
        else:
            self.phase_messages += 1
        self._send(src, dst, payload, size)

    def set_timer(self, delay: float, callback: Callable[[], None]):
        return self.inner.set_timer(
            delay, self.tracer.wrap("coordinator.timer", callback)
        )

    # -- plain delegation --------------------------------------------------

    def unregister(self, process_id) -> None:
        self.inner.unregister(process_id)

    def set_down(self, process_id, down: bool) -> None:
        self.inner.set_down(process_id, down)

    def peer_state(self, process_id) -> str:
        return self.inner.peer_state(process_id)

    def now(self) -> float:
        return self.inner.now()

    def timer(self, delay: float, value: Any = None):
        return self.inner.timer(delay, value)

    def event(self):
        return self.inner.event()

    def any_of(self, events):
        return self.inner.any_of(events)

    def all_of(self, events):
        return self.inner.all_of(events)

    def spawn(self, generator):
        return self.inner.spawn(generator)

    def run(self, until: Optional[float] = None) -> None:
        self.inner.run(until)

    def run_until_complete(self, process, limit: float = 1e12) -> Any:
        return self.inner.run_until_complete(process, limit)

    def _kick(self) -> None:
        self.inner._kick()

    async def start(self) -> None:
        start = getattr(self.inner, "start", None)
        if start is not None:
            await start()

    async def stop(self) -> None:
        stop = getattr(self.inner, "stop", None)
        if stop is not None:
            await stop()

    async def wait_for(self, event) -> Any:
        return await self.inner.wait_for(event)


def instrument_cluster(cluster, tracer: Tracer) -> Dict[str, int]:
    """Wrap the kernel step, the erasure code and every stable store.

    Returns a tally of the block bytes the erasure code produced.
    """
    env = cluster.transport.env
    env.step = tracer.wrap("kernel.step", env.step)
    code = cluster.code
    tally = {"bytes": 0}
    encode = tracer.wrap("erasure.encode", code.encode)
    decode = tracer.wrap("erasure.decode", code.decode)
    modify = tracer.wrap("erasure.modify", code.modify)

    def counted_encode(data_blocks):
        blocks = encode(data_blocks)
        tally["bytes"] += sum(len(block) for block in blocks)
        return blocks

    def counted_decode(blocks):
        data = decode(blocks)
        tally["bytes"] += sum(len(block) for block in data)
        return data

    def counted_modify(i, j, old_data, new_data, old_parity):
        parity = modify(i, j, old_data, new_data, old_parity)
        tally["bytes"] += len(parity)
        return parity

    code.encode = counted_encode
    code.decode = counted_decode
    code.modify = counted_modify
    # StableStore has __slots__, so its instances cannot carry wrapped
    # methods; move each store onto a traced subclass instead.
    traced_store = type("TracedStableStore", (StableStore,), {
        "__slots__": (),
        **{
            name: tracer.wrap("store", getattr(StableStore, name))
            for name in ("store", "load", "append", "load_journal")
        },
    })
    for node in cluster.nodes.values():
        node.stable.__class__ = traced_store
    return tally


@contextlib.contextmanager
def instrument_wire(tracer: Tracer):
    """Trace the wire codec while the block runs, then restore it.

    Yields a tally of the bytes of every encoded frame.
    """
    encode, decode = wire.encode_frame, wire.decode_frame
    tally = {"bytes": 0}
    traced_encode = tracer.wrap("wire.encode", encode)

    def counted_encode(src, dst, payload, size=0):
        frame = traced_encode(src, dst, payload, size)
        tally["bytes"] += len(frame)
        return frame

    wire.encode_frame = counted_encode
    wire.decode_frame = tracer.wrap("wire.decode", decode)
    try:
        yield tally
    finally:
        wire.encode_frame, wire.decode_frame = encode, decode
