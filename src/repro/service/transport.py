"""Transports for the quorum-replicated key-value service.

Two implementations of one abstraction:

* :class:`InProcessTransport` — replicas live in the same process; message
  latencies are *virtual* milliseconds drawn from a seeded RNG and crash
  injection reuses the paper's iid model via
  :func:`repro.sim.failures.sample_iid_crash_set`.  Nothing ever sleeps
  real time (a reply is delivered on the next loop turn), so a fixed
  seed produces a bit-identical run — timeouts included, because a
  request "times out" exactly when its sampled latency exceeds the
  deadline.
* :class:`TcpTransport` — real sockets speaking JSON lines (one request
  dict per line, one response dict per line) against replica servers
  started with :func:`start_tcp_replicas`; latencies are wall-clock.
  Requests are *pipelined*: frames carry a correlation ``id`` the server
  echoes back, a per-connection reader task resolves replies to futures
  in arrival order, and writes are flushed in batches — N concurrent
  calls to one replica take one round trip each instead of N serialised
  round trips.  :class:`SerializedTcpTransport` preserves the old
  lock-per-replica client as the benchmark baseline.

Both report per-message latency in the reply so the coordinator can
aggregate operation latency the same way regardless of transport.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..core.errors import (
    ReplicaUnavailable,
    RequestTimeout,
    ServiceError,
    TransportError,
)
from ..runtime.faults import sample_iid_crash_set
from . import wire
from .replica import Replica

# The transport error taxonomy lives in :mod:`repro.core.errors`
# (shared with the rest of the library); re-exported here because this
# module is where callers have always imported it from.
__all__ = [
    "DEFAULT_TIMEOUT_MS",
    "TransportError",
    "ReplicaUnavailable",
    "RequestTimeout",
    "Reply",
    "Transport",
    "InProcessTransport",
    "TcpTransport",
    "BinaryTcpTransport",
    "SerializedTcpTransport",
    "start_tcp_replicas",
]

#: Default per-request deadline (milliseconds, virtual or wall-clock).
DEFAULT_TIMEOUT_MS = 50.0


class Reply(NamedTuple):
    """A replica response plus the observed message latency (ms)."""

    payload: Dict[str, Any]
    latency: float


def _deliver(
    future: "asyncio.Future[Reply]",
    replica: Replica,
    request: Dict[str, Any],
    latency: float,
    wire_check: bool = False,
) -> None:
    """Apply ``request`` at ``replica`` and resolve ``future`` with the reply.

    The delivery step of the in-process and virtual-time transports.  A
    future cancelled before delivery never reaches the replica, and an
    exception raised by the replica (or by the ``wire_check`` codec
    round trip) lands on the future instead of the event loop.
    """
    if future.done():
        return
    try:
        payload = replica.handle(request)
        if wire_check:
            # One op model across substrates: anything the sim carries
            # must survive the binary codec byte-exactly, else raise.
            wire.assert_op_roundtrip(request, payload)
    except Exception as exc:
        future.set_exception(exc)
    else:
        future.set_result(Reply(payload, latency))


class Transport(ABC):
    """Request/response channel from a coordinator to replicas.

    :meth:`submit` is the one fan-out primitive: it starts a request and
    returns a future of its :class:`Reply` at once, so a coordinator can
    contact a whole quorum in a plain loop and collect the replies by
    callback.  :meth:`call` is its await.  The in-process, virtual-time
    and binary TCP transports implement ``submit`` natively, without a
    task; every other transport (fault injection, the JSON clients, test
    fakes) only writes ``call`` and inherits a ``submit`` that runs it in
    a task.
    """

    def submit(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float = DEFAULT_TIMEOUT_MS,
    ) -> "asyncio.Future[Reply]":
        """Start one request; return a future of its :class:`Reply`.

        The future fails with :class:`ReplicaUnavailable` /
        :class:`RequestTimeout` when the request does; cancelling it
        abandons the request.  Must be called inside the running loop.
        """
        return asyncio.ensure_future(self.call(replica_id, request, timeout))

    @abstractmethod
    async def call(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float = DEFAULT_TIMEOUT_MS,
    ) -> Reply:
        """Send one request; raise :class:`ReplicaUnavailable` /
        :class:`RequestTimeout` on failure."""

    async def pause(self, delay_ms: float) -> None:
        """Backoff hook: sleep ``delay_ms`` of transport time.

        Real transports sleep wall-clock; the in-process transport only
        *accounts* the delay (the coordinator adds it to operation
        latency), keeping benchmark runs instantaneous and deterministic.
        """
        await asyncio.sleep(delay_ms / 1000.0)

    async def close(self) -> None:
        """Release sockets/resources; idempotent."""


class InProcessTransport(Transport):
    """Deterministic in-process transport with latency and crash injection.

    Parameters
    ----------
    replicas:
        The replicas, one per universe element (list or {id: replica}).
    seed:
        Seed for the transport RNG (latencies and crash epochs).
    base_latency, mean_latency:
        Message latency (virtual ms) is ``base + Exp(mean)`` per call.
    crash_rate:
        The paper's iid crash probability ``p`` used by
        :meth:`resample_crashes`; each epoch resample draws every
        replica down independently with probability ``p``.
    """

    def __init__(
        self,
        replicas: Iterable[Replica],
        *,
        seed: int = 0,
        base_latency: float = 1.0,
        mean_latency: float = 4.0,
        crash_rate: float = 0.0,
    ) -> None:
        if isinstance(replicas, Mapping):
            self.replicas: Dict[int, Replica] = dict(replicas)
        else:
            self.replicas = {r.replica_id: r for r in replicas}
        if not self.replicas:
            raise ServiceError("transport needs at least one replica")
        if not 0.0 <= crash_rate <= 1.0:
            raise ServiceError(f"crash rate must be in [0,1], got {crash_rate}")
        if base_latency < 0 or mean_latency < 0:
            raise ServiceError("latencies must be non-negative")
        self.rng = np.random.default_rng(seed)
        self.base_latency = base_latency
        self.mean_latency = mean_latency
        self.crash_rate = crash_rate
        self.down: frozenset = frozenset()
        self.epochs = 0
        self.calls = 0

    # ------------------------------------------------------------------
    # Crash injection
    # ------------------------------------------------------------------
    def crash(self, *replica_ids: int) -> None:
        """Mark replicas as crashed (targeted injection, e.g. in tests)."""
        self.down = self.down | frozenset(replica_ids)

    def recover(self, *replica_ids: int) -> None:
        """Bring replicas back; with no arguments, recover everyone."""
        if not replica_ids:
            self.down = frozenset()
        else:
            self.down = self.down - frozenset(replica_ids)

    def resample_crashes(self) -> frozenset:
        """Start a new crash epoch: replica ``i`` down iid w.p. ``crash_rate``.

        The same model (and helper) as the runtime fault schedule's
        :func:`~repro.runtime.faults.iid_crash_schedule`, so measured
        service availability converges to the analytic ``F_p``.
        """
        self.down = sample_iid_crash_set(
            self.rng, sorted(self.replicas), self.crash_rate
        )
        self.epochs += 1
        return self.down

    # ------------------------------------------------------------------
    def submit(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float = DEFAULT_TIMEOUT_MS,
    ) -> "asyncio.Future[Reply]":
        replica = self.replicas.get(replica_id)
        if replica is None:
            raise ServiceError(f"unknown replica id {replica_id}")
        self.calls += 1
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        # Draw the round-trip latency unconditionally so the RNG stream
        # does not depend on the current crash set.
        latency = self.base_latency + float(self.rng.exponential(self.mean_latency))
        if replica_id in self.down:
            # A crashed replica never answers: the caller burns the full
            # deadline discovering it.
            future.set_exception(ReplicaUnavailable(replica_id, latency=timeout))
        elif latency > timeout:
            future.set_exception(RequestTimeout(replica_id, latency=timeout))
        else:
            # Deliver on the next loop turn, so a fan-out's requests
            # interleave with other clients' instead of running inline.
            loop.call_soon(_deliver, future, replica, request, latency)
        return future

    async def call(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float = DEFAULT_TIMEOUT_MS,
    ) -> Reply:
        return await self.submit(replica_id, request, timeout)

    async def pause(self, delay_ms: float) -> None:
        # Virtual time only: the coordinator accounts the delay itself.
        await asyncio.sleep(0)


# ----------------------------------------------------------------------
# TCP / JSON-lines
# ----------------------------------------------------------------------

#: Hard cap on one JSON line on the wire (values are small in this demo).
MAX_LINE_BYTES = 1 << 20

#: Correlation-id key a pipelined client tags requests with; the server
#: echoes it back verbatim so replies can arrive in any order.
RPC_ID_KEY = "id"

#: Socket read size for the batched reader loops.  One ``read()`` pulls
#: every frame the peer has sent so far, so a pipelined burst of N
#: requests costs one wakeup instead of N ``readline()`` wakeups.
RECV_CHUNK_BYTES = 1 << 16

#: Compact JSON encoding for the wire (no spaces after separators).
_WIRE_SEPARATORS = (",", ":")

#: First byte of every binary v2 frame (high byte of the magic, "Q") —
#: what the replica server sniffs to pick a protocol per connection.
_BINARY_FIRST_BYTE = wire.MAGIC >> 8

#: HELLO body: (min_version, max_version) supported by the peer.
_HELLO_BODY = struct.Struct("!BB")

# The hot path (replica servers + pipelined client) encodes with orjson
# when the environment has it; stdlib json is the drop-in fallback.  The
# wire format is identical either way.  SerializedTcpTransport keeps
# stdlib json on purpose: it is the preserved pre-overhaul baseline.
try:
    import orjson as _orjson
except ImportError:  # pragma: no cover - depends on environment
    _orjson = None

if _orjson is not None:
    _wire_encode = _orjson.dumps
    _wire_decode = _orjson.loads
else:  # pragma: no cover - depends on environment

    def _wire_encode(obj: Any) -> bytes:
        return json.dumps(obj, separators=_WIRE_SEPARATORS).encode()

    _wire_decode = json.loads


class _ReplicaProtocol(asyncio.Protocol):
    """One replica-server connection: sniff the protocol, serve it
    callback-style.

    Binary v2 frames always start with the magic byte ``0x51`` ("Q"); a
    JSON-lines request always starts with ``{``.  Sniffing the first
    byte of the connection lets both protocols share one port, so the
    pre-existing JSON transports keep working against upgraded servers
    with no flag day.

    The handler runs directly on transport callbacks — no per-connection
    ``StreamReader`` task — so a pipelined burst of N requests costs one
    ``data_received``, one batch apply, and one write, with no task
    switch in between.

    Binary semantics: each incoming frame is a coalesced batch of
    requests; the whole batch goes through
    :meth:`Replica.handle_batch` and comes back as one reply burst —
    one ``write`` per ``data_received``.  The first frame must be a
    HELLO; the reply HELLO's header carries the negotiated version
    (0 = no overlap, then hang up).  Any codec violation (bad magic,
    oversized frame, truncated message) tears the connection down —
    there is no resync inside a byte stream; the client reconnects.
    """

    __slots__ = ("replica", "transport", "mode", "buffer", "decoder", "version")

    _MODE_SNIFF = 0
    _MODE_BINARY = 1
    _MODE_JSON = 2

    def __init__(self, replica: Replica) -> None:
        self.replica = replica
        self.transport: Optional[asyncio.Transport] = None
        self.mode = self._MODE_SNIFF
        self.buffer = b""
        self.decoder: Optional[wire.FrameDecoder] = None
        self.version = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.transport = None

    # Flow control: when the peer stops reading our replies, stop
    # reading its requests instead of buffering replies unboundedly —
    # the callback analogue of the old ``await writer.drain()``.
    def pause_writing(self) -> None:
        if self.transport is not None:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        if self.transport is not None:
            self.transport.resume_reading()

    def _hang_up(self) -> None:
        transport, self.transport = self.transport, None
        if transport is not None:
            transport.close()

    def data_received(self, data: bytes) -> None:
        if self.transport is None:  # already hung up; late bytes in flight
            return
        mode = self.mode
        if mode == self._MODE_BINARY:
            self._binary_data(data)
        elif mode == self._MODE_JSON:
            self._json_data(data)
        elif data[0] == _BINARY_FIRST_BYTE:
            self.mode = self._MODE_BINARY
            self.decoder = wire.FrameDecoder()
            self._binary_data(data)
        else:
            self.mode = self._MODE_JSON
            self._json_data(data)

    def _binary_data(self, data: bytes) -> None:
        try:
            frames = self.decoder.feed(data)
        except wire.WireError:
            self._hang_up()
            return
        if not frames:
            return
        out: List[bytes] = []
        replica = self.replica
        for frame_version, flags, count, body in frames:
            if flags & wire.FLAG_HELLO:
                try:
                    client_min, client_max = _HELLO_BODY.unpack(bytes(body))
                except struct.error:
                    self._hang_up()
                    return
                self.version = wire.negotiate(client_min, client_max)
                out.append(wire.hello_frame(version=self.version))
                if self.version == 0:
                    self.transport.write(b"".join(out))
                    self._hang_up()
                    return
                continue
            if self.version == 0:
                self._hang_up()  # protocol violation: data before HELLO
                return
            try:
                offset = 0
                requests = []
                rpc_ids = []
                for _ in range(count):
                    rpc_id, request, offset = wire.decode_request(body, offset)
                    rpc_ids.append(rpc_id)
                    requests.append(request)
                responses = replica.handle_batch(requests)
                out.extend(
                    wire.pack_frames(
                        map(wire.encode_response, rpc_ids, responses),
                        version=self.version,
                    )
                )
            except wire.WireError:
                self._hang_up()
                return
        if out and self.transport is not None:
            self.transport.write(b"".join(out))

    def _json_data(self, data: bytes) -> None:
        buffer = self.buffer + data if self.buffer else data
        if b"\n" not in data:
            if len(buffer) > MAX_LINE_BYTES:
                self._hang_up()  # oversized frame with no delimiter: hang up
                return
            self.buffer = buffer
            return
        # Handle every complete line in the burst, answer with one
        # batched write: a pipelined client's fan-in costs one
        # syscall here instead of one per request.
        *lines, rest = buffer.split(b"\n")
        self.buffer = rest
        out: List[bytes] = []
        handle = self.replica.handle
        for line in lines:
            if not line:
                continue
            rpc_id = None
            try:
                request = _wire_decode(line)
            except ValueError as exc:
                response = {"ok": False, "error": f"bad json: {exc}"}
            else:
                if isinstance(request, dict):
                    rpc_id = request.pop(RPC_ID_KEY, None)
                response = handle(request)
            if rpc_id is not None:
                response = dict(response)
                response[RPC_ID_KEY] = rpc_id
            out.append(_wire_encode(response))
        if out and self.transport is not None:
            self.transport.write(b"\n".join(out) + b"\n")


async def start_tcp_replicas(
    replicas: Iterable[Replica],
    host: str = "127.0.0.1",
    base_port: int = 0,
    workers: int = 0,
):
    """Start one dual-protocol (binary v2 + JSON lines) server per replica.

    With ``base_port > 0`` replica ``i`` listens on ``base_port + i``;
    with ``base_port == 0`` the OS assigns ephemeral ports.  Returns the
    server objects (close them to "crash" a replica) and the
    ``{replica_id: (host, port)}`` address map any TCP transport
    consumes.

    With ``workers > 0`` the replicas are instead hosted by a
    :class:`~repro.service.cluster.ReplicaCluster` of that many OS
    processes (one event loop each, replicas assigned round-robin) and
    the first element of the return value is the started cluster —
    ``close()`` it instead of closing servers.  The worker processes
    build their *own* fresh ``Replica`` state for the given ids; the
    passed objects only contribute their ``replica_id``.  Prefer
    constructing the cluster before entering the event loop when you
    can; this path exists for loop-bound callers (e.g. ``quorumtool
    serve --workers``).
    """
    if workers > 0:
        from .cluster import ReplicaCluster

        cluster = ReplicaCluster(
            [replica.replica_id for replica in replicas],
            workers=workers,
            host=host,
            base_port=base_port,
        )
        loop = asyncio.get_running_loop()
        addresses = await loop.run_in_executor(None, cluster.start)
        return cluster, addresses
    loop = asyncio.get_running_loop()
    servers: List[asyncio.base_events.Server] = []
    addresses: Dict[int, Tuple[str, int]] = {}
    for replica in replicas:
        port = 0 if base_port == 0 else base_port + replica.replica_id
        server = await loop.create_server(
            lambda rep=replica: _ReplicaProtocol(rep),
            host=host,
            port=port,
        )
        bound_port = server.sockets[0].getsockname()[1]
        servers.append(server)
        addresses[replica.replica_id] = (host, bound_port)
    return servers, addresses


class _ChannelClosed(Exception):
    """Internal: the multiplexed connection died under pending requests."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class _Channel:
    """One multiplexed connection: reply futures keyed by correlation id,
    an outbox of frames awaiting the next batched flush, and the reader
    task that dispatches incoming replies."""

    __slots__ = (
        "reader",
        "writer",
        "pending",
        "next_id",
        "outbox",
        "flush_task",
        "reader_task",
        "closed",
    )

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.outbox: List[bytes] = []
        self.flush_task: Optional[asyncio.Task] = None
        self.reader_task: Optional[asyncio.Task] = None
        self.closed = False


class TcpTransport(Transport):
    """Pipelined JSON-lines client: one persistent connection per replica,
    multiplexed by correlation id.

    Every request frame carries an ``id``; the replica server echoes it
    back, so N concurrent calls to one replica are all in flight at once
    and each costs one round trip instead of N serialised round trips
    (:class:`SerializedTcpTransport` keeps the old lock-per-replica
    behaviour for comparison).  A per-channel reader task dispatches
    replies to per-request futures in whatever order they arrive; writes
    are buffered in an outbox and flushed in batches (one ``write`` +
    ``drain`` per event-loop burst rather than per request).

    Failure semantics mirror the serialized transport: a request that
    fails because the *cached* channel died (peer restarted or closed the
    socket between calls) is retried once on a fresh connection — the
    ``reconnects`` counter tracks exactly those — while a fresh
    connection that fails surfaces :class:`ReplicaUnavailable`
    immediately.  A channel death fails only the calls pending on that
    channel; calls to other replicas are untouched.  A per-request
    timeout no longer tears the connection down: the late reply, if it
    ever arrives, is dropped by correlation id, and the channel keeps
    serving the other in-flight requests.
    """

    def __init__(self, addresses: Mapping[int, Tuple[str, int]]) -> None:
        if not addresses:
            raise ServiceError("TCP transport needs at least one address")
        self.addresses = dict(addresses)
        self._channels: Dict[int, _Channel] = {}
        self._dial_locks: Dict[int, asyncio.Lock] = {}
        self._ever_dialed: set = set()
        self.reconnects = 0
        self.calls = 0
        self.flushes = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # Channel lifecycle
    # ------------------------------------------------------------------
    async def _channel_for(self, replica_id: int) -> Tuple[_Channel, bool]:
        """Return ``(channel, reused)``; dial a fresh connection if needed."""
        channel = self._channels.get(replica_id)
        if channel is not None and not channel.closed:
            return channel, True
        lock = self._dial_locks.setdefault(replica_id, asyncio.Lock())
        async with lock:
            channel = self._channels.get(replica_id)
            if channel is not None and not channel.closed:
                return channel, True  # a concurrent caller dialed first
            # One-shot reconnect accounting: dialing a replica whose
            # previous channel died is a reconnect.  The replica leaves
            # the set until the dial succeeds, so a truly unreachable
            # replica is only counted once, like the serialized client.
            if replica_id in self._ever_dialed:
                self._ever_dialed.discard(replica_id)
                self.reconnects += 1
            host, port = self.addresses[replica_id]
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES
            )
            self._ever_dialed.add(replica_id)
            channel = _Channel(reader, writer)
            channel.reader_task = asyncio.ensure_future(
                self._read_loop(replica_id, channel)
            )
            self._channels[replica_id] = channel
            return channel, False

    async def _read_loop(self, replica_id: int, channel: _Channel) -> None:
        """Dispatch incoming reply frames to their futures until EOF/error.

        Reads in chunks and splits lines itself: a burst of pipelined
        replies is dispatched in one wakeup instead of one ``readline``
        await per frame.
        """
        reason = "closed"
        buffer = b""
        try:
            while True:
                chunk = await channel.reader.read(RECV_CHUNK_BYTES)
                if not chunk:
                    break
                self.bytes_received += len(chunk)
                buffer += chunk
                if b"\n" not in chunk:
                    if len(buffer) > MAX_LINE_BYTES:
                        reason = "oversized response"
                        break
                    continue
                *lines, buffer = buffer.split(b"\n")
                bad = None
                for line in lines:
                    if not line:
                        continue
                    try:
                        payload = _wire_decode(line)
                    except ValueError as exc:
                        bad = f"bad json from replica: {exc}"
                        break
                    rpc_id = None
                    if isinstance(payload, dict):
                        rpc_id = payload.pop(RPC_ID_KEY, None)
                    future = channel.pending.pop(rpc_id, None)
                    if future is not None and not future.done():
                        future.set_result(payload)
                    # Unmatched ids are replies that already timed out: drop.
                if bad is not None:
                    reason = bad
                    break
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError) as exc:
            reason = str(exc) or type(exc).__name__
        except asyncio.CancelledError:
            reason = "transport closed"
        finally:
            self._teardown(replica_id, channel, reason)

    def _teardown(self, replica_id: int, channel: _Channel, reason: str) -> None:
        """Fail every call pending on the channel and drop it."""
        channel.closed = True
        if self._channels.get(replica_id) is channel:
            del self._channels[replica_id]
        failure = _ChannelClosed(reason)
        pending = list(channel.pending.values())
        channel.pending.clear()
        channel.outbox.clear()
        for future in pending:
            if not future.done():
                future.set_exception(failure)
        try:
            channel.writer.close()
        except RuntimeError:  # pragma: no cover - loop already gone
            pass

    # ------------------------------------------------------------------
    # Write batching
    # ------------------------------------------------------------------
    def _enqueue(self, channel: _Channel, frame: bytes) -> None:
        channel.outbox.append(frame)
        if channel.flush_task is None or channel.flush_task.done():
            channel.flush_task = asyncio.ensure_future(self._flush(channel))

    def _expire(self, channel: _Channel, rpc_id: int) -> None:
        """Deadline timer: fail the request's future, keep the channel.

        The reply, if it ever lands, is dropped by correlation id in the
        reader loop — one slow request does not cost a reconnect.
        """
        future = channel.pending.pop(rpc_id, None)
        if future is not None and not future.done():
            future.set_exception(asyncio.TimeoutError())

    async def _flush(self, channel: _Channel) -> None:
        """Drain the outbox: every frame queued while a previous batch was
        draining goes out in one ``write`` call."""
        try:
            while channel.outbox and not channel.closed:
                batch = b"".join(channel.outbox)
                channel.outbox.clear()
                channel.writer.write(batch)
                self.flushes += 1
                await channel.writer.drain()
        except (ConnectionError, OSError):
            pass  # the reader task observes the dead peer and tears down

    # ------------------------------------------------------------------
    async def call(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float = DEFAULT_TIMEOUT_MS,
    ) -> Reply:
        if replica_id not in self.addresses:
            raise ServiceError(f"unknown replica id {replica_id}")
        start = time.monotonic()
        self.calls += 1
        for retry in (False, True):
            try:
                channel, reused = await self._channel_for(replica_id)
            except (ConnectionError, OSError) as exc:
                elapsed = (time.monotonic() - start) * 1000.0
                raise ReplicaUnavailable(replica_id, latency=elapsed, reason=str(exc))
            rpc_id = channel.next_id
            channel.next_id += 1
            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()
            channel.pending[rpc_id] = future
            frame = _wire_encode({**request, RPC_ID_KEY: rpc_id}) + b"\n"
            self.bytes_sent += len(frame)
            self._enqueue(channel, frame)
            # A plain timer beats asyncio.wait_for here: no wrapper task or
            # timeout context per request on the hot path.
            timer = loop.call_later(timeout / 1000.0, self._expire, channel, rpc_id)
            try:
                payload = await future
            except asyncio.TimeoutError:
                raise RequestTimeout(replica_id, latency=timeout)
            except _ChannelClosed as exc:
                # The retry dials a fresh channel; the reconnect itself is
                # counted there (``_ever_dialed``), not here.
                if reused and not retry:
                    continue
                elapsed = (time.monotonic() - start) * 1000.0
                raise ReplicaUnavailable(
                    replica_id, latency=elapsed, reason=exc.reason
                )
            finally:
                timer.cancel()
                channel.pending.pop(rpc_id, None)
            elapsed = (time.monotonic() - start) * 1000.0
            return Reply(payload, elapsed)
        raise ReplicaUnavailable(  # pragma: no cover - loop always returns/raises
            replica_id, latency=(time.monotonic() - start) * 1000.0, reason="closed"
        )

    async def close(self) -> None:
        channels = list(self._channels.items())
        self._channels.clear()
        tasks: List[asyncio.Task] = []
        for _, channel in channels:
            for task in (channel.flush_task, channel.reader_task):
                if task is not None and not task.done():
                    task.cancel()
                    tasks.append(task)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for replica_id, channel in channels:
            self._teardown(replica_id, channel, "transport closed")


class _BinCall:
    """One logical RPC in flight on the binary transport."""

    __slots__ = (
        "replica_id",
        "request",
        "timeout",
        "future",
        "start",
        "deadline",
        "reused",
        "retried",
        "rpc_id",
        "timer",
    )

    def __init__(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float,
        future: asyncio.Future,
        start: float,
    ) -> None:
        self.replica_id = replica_id
        self.request = request
        self.timeout = timeout
        self.future = future
        self.start = start
        self.deadline = start + timeout / 1000.0
        self.reused = False
        self.retried = False
        self.rpc_id = -1
        # Armed only while the call waits in a dial backlog; calls
        # pending on a live channel share the channel's deadline sweep.
        self.timer: Optional[asyncio.TimerHandle] = None


class _BinChannel(asyncio.Protocol):
    """One negotiated binary connection, run directly on transport
    callbacks: pending calls by rpc id, an outbox of encoded messages
    awaiting the next coalesced flush, and a single deadline-sweep timer
    instead of one timer per call.  Replies resolve futures inside
    ``data_received`` — no reader task, no per-reply task switch."""

    __slots__ = (
        "owner",
        "replica_id",
        "state",
        "conn",
        "pending",
        "next_id",
        "outbox",
        "flush_scheduled",
        "closed",
        "version",
        "decoder",
        "sweep_timer",
        "sweep_at",
        "paused",
    )

    def __init__(
        self, owner: "BinaryTcpTransport", replica_id: int, state: "_BinState"
    ) -> None:
        self.owner = owner
        self.replica_id = replica_id
        self.state = state
        self.conn: Optional[asyncio.Transport] = None
        self.pending: Dict[int, _BinCall] = {}
        self.next_id = 0
        self.outbox: List[bytes] = []
        self.flush_scheduled = False
        self.closed = False
        self.version = 0  # 0 until the server's HELLO lands
        self.decoder = wire.FrameDecoder()
        self.sweep_timer: Optional[asyncio.TimerHandle] = None
        self.sweep_at = 0.0
        self.paused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.conn = transport

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if not self.closed:
            reason = str(exc) if exc else "closed"
            self.owner._teardown(self.state, self, reason)

    def data_received(self, data: bytes) -> None:
        self.owner._on_data(self, data)

    # Flow control: hold the outbox while the socket is backed up; the
    # queued messages go out on resume.
    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self.outbox and not self.flush_scheduled:
            self.flush_scheduled = True
            self.owner._loop.call_soon(self.owner._flush, self)


class _BinState:
    """Per-replica dial state: the live channel (if any), calls waiting
    for a dial to finish, and the dial task itself."""

    __slots__ = ("channel", "backlog", "dial_task")

    def __init__(self) -> None:
        self.channel: Optional[_BinChannel] = None
        self.backlog: List[_BinCall] = []
        self.dial_task: Optional[asyncio.Task] = None


class BinaryTcpTransport(Transport):
    """Pipelined binary v2 client: struct-packed frames, op coalescing,
    and a task-free hot path end to end.

    Differences from the JSON :class:`TcpTransport` (which is preserved
    unchanged as the baseline):

    * **No per-message JSON.**  Requests and replies are packed with
      :mod:`struct` (:mod:`repro.service.wire`); only values travel as
      JSON blobs, keys and timestamps are length-delimited binary
      fields.
    * **Op coalescing.**  Every logical RPC queued during one flush
      window is packed into a *single* length-prefixed frame; the
      replica server decodes, applies and answers the batch with one
      write.  ``coalesced_ops`` / ``frames_sent`` / ``ops_per_frame`` /
      ``bytes_per_op`` counters expose the packing.  ``coalesce=False``
      degrades to one frame and one write per op, isolating what
      coalescing itself buys in the benchmark matrix.
    * **Task-free hot path.**  :meth:`submit` enqueues a call and
      returns a plain future without creating a task; flushes are
      ``call_soon`` callbacks scheduled at the end of the current
      event-loop iteration (so every op submitted in the iteration
      lands in one frame); replies resolve futures directly inside the
      connection's ``data_received``; and per-call deadline timers are
      replaced by one deadline-sweep timer per channel.  :meth:`call`
      is the ``Transport``-conforming wrapper.
    * **Version negotiation.**  The first frame each way is a HELLO;
      the client pipelines requests behind its HELLO optimistically and
      tears the channel down if the server's negotiated version is
      unsupported.

    Failure semantics match the other TCP clients: a call that dies
    with its *cached* channel is retried once on a fresh connection
    (``reconnects`` counts re-dials), a fresh connection that fails
    surfaces :class:`ReplicaUnavailable`, and a per-request timeout
    drops the late reply by rpc id without costing the channel.
    """

    def __init__(
        self,
        addresses: Mapping[int, Tuple[str, int]],
        *,
        coalesce: bool = True,
    ) -> None:
        if not addresses:
            raise ServiceError("TCP transport needs at least one address")
        self.addresses = dict(addresses)
        self.coalesce = coalesce
        self._states: Dict[int, _BinState] = {}
        self._ever_dialed: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.reconnects = 0
        self.calls = 0
        self.flushes = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.coalesced_ops = 0

    # ------------------------------------------------------------------
    # Derived coalescing metrics
    # ------------------------------------------------------------------
    @property
    def ops_per_frame(self) -> float:
        """Mean logical RPCs coalesced into one outbound frame."""
        return self.coalesced_ops / self.frames_sent if self.frames_sent else 0.0

    @property
    def bytes_per_op(self) -> float:
        """Mean wire bytes (both directions) per logical RPC."""
        return (self.bytes_sent + self.bytes_received) / self.calls if self.calls else 0.0

    # ------------------------------------------------------------------
    # Submission fast path
    # ------------------------------------------------------------------
    def submit(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float = DEFAULT_TIMEOUT_MS,
    ) -> "asyncio.Future[Reply]":
        """Queue one RPC; return a future resolving to :class:`Reply`.

        Synchronous: no coroutine, no task — the caller can fan a whole
        quorum out in a tight loop and collect the futures by callback.
        Must be called from within the running event loop.
        """
        if replica_id not in self.addresses:
            raise ServiceError(f"unknown replica id {replica_id}")
        loop = self._loop
        if loop is None:
            loop = self._loop = asyncio.get_running_loop()
        self.calls += 1
        entry = _BinCall(
            replica_id, request, timeout, loop.create_future(), loop.time()
        )
        state = self._states.get(replica_id)
        if state is None:
            state = self._states[replica_id] = _BinState()
        self._dispatch(state, entry, fresh=False)
        return entry.future

    async def call(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float = DEFAULT_TIMEOUT_MS,
    ) -> Reply:
        return await self.submit(replica_id, request, timeout)

    # ------------------------------------------------------------------
    # Dispatch / dial
    # ------------------------------------------------------------------
    def _dispatch(self, state: _BinState, entry: _BinCall, *, fresh: bool) -> None:
        channel = state.channel
        if channel is not None and not channel.closed:
            rpc_id = channel.next_id
            channel.next_id = rpc_id + 1
            # Encode before registering: an unencodable request raises
            # out of submit() without leaving a dangling pending entry.
            message = wire.encode_request(rpc_id, entry.request)
            entry.reused = not fresh
            entry.rpc_id = rpc_id
            if entry.timer is not None:  # leftover backlog timer
                entry.timer.cancel()
                entry.timer = None
            channel.pending[rpc_id] = entry
            loop = self._loop
            if channel.sweep_timer is None:
                channel.sweep_at = entry.deadline
                channel.sweep_timer = loop.call_later(
                    max(0.0, entry.deadline - loop.time()), self._sweep, channel
                )
            elif entry.deadline < channel.sweep_at:
                channel.sweep_timer.cancel()
                channel.sweep_at = entry.deadline
                channel.sweep_timer = loop.call_later(
                    max(0.0, entry.deadline - loop.time()), self._sweep, channel
                )
            if not self.coalesce:
                # One frame and one write per logical op — the
                # un-coalesced comparison point for the matrix.
                frame = wire.pack_frame((message,), version=wire.VERSION)
                channel.conn.write(frame)
                self.flushes += 1
                self.frames_sent += 1
                self.coalesced_ops += 1
                self.bytes_sent += len(frame)
                return
            channel.outbox.append(message)
            if not channel.flush_scheduled:
                channel.flush_scheduled = True
                # End-of-iteration callback: every op submitted during
                # this event-loop iteration joins the same frame.
                loop.call_soon(self._flush, channel)
            return
        if entry.timer is None:
            loop = self._loop
            entry.timer = loop.call_later(
                max(0.0, entry.deadline - loop.time()), self._expire, entry
            )
        state.backlog.append(entry)
        if state.dial_task is None or state.dial_task.done():
            state.dial_task = asyncio.ensure_future(
                self._dial(entry.replica_id, state)
            )

    async def _dial(self, replica_id: int, state: _BinState) -> None:
        # One-shot reconnect accounting, same convention as TcpTransport:
        # re-dialing a replica whose previous channel died counts once.
        if replica_id in self._ever_dialed:
            self._ever_dialed.discard(replica_id)
            self.reconnects += 1
        host, port = self.addresses[replica_id]
        channel = _BinChannel(self, replica_id, state)
        try:
            await self._loop.create_connection(lambda: channel, host, port)
        except (ConnectionError, OSError) as exc:
            backlog, state.backlog = state.backlog, []
            for entry in backlog:
                self._fail(entry, str(exc))
            return
        self._ever_dialed.add(replica_id)
        state.channel = channel
        # HELLO goes out first; requests pipeline behind it optimistically
        # and die with the channel if the server rejects the version.
        hello = wire.hello_frame()
        channel.conn.write(hello)
        self.bytes_sent += len(hello)
        backlog, state.backlog = state.backlog, []
        for entry in backlog:
            if not entry.future.done():
                self._dispatch(state, entry, fresh=True)

    def _fail(self, entry: _BinCall, reason: str) -> None:
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        if not entry.future.done():
            elapsed = (self._loop.time() - entry.start) * 1000.0
            entry.future.set_exception(
                ReplicaUnavailable(entry.replica_id, latency=elapsed, reason=reason)
            )

    def _expire(self, entry: _BinCall) -> None:
        """Backlog deadline timer: the dial did not finish in time."""
        entry.timer = None
        if not entry.future.done():
            entry.future.set_exception(
                RequestTimeout(entry.replica_id, latency=entry.timeout)
            )

    def _sweep(self, channel: _BinChannel) -> None:
        """Channel deadline sweep: one timer for every pending call.

        Fires at the earliest pending deadline, fails whatever expired,
        re-arms at the next one.  Completed calls leave ``pending``
        immediately, so in the common case the sweep wakes rarely and
        finds nothing — versus one ``call_later`` + ``cancel`` per RPC.
        The late reply (if any) is dropped by rpc id in ``_on_data``.
        """
        channel.sweep_timer = None
        if channel.closed:
            return
        loop = self._loop
        now = loop.time()
        expired: List[_BinCall] = []
        next_deadline = 0.0
        for entry in channel.pending.values():
            if entry.deadline <= now:
                expired.append(entry)
            elif not next_deadline or entry.deadline < next_deadline:
                next_deadline = entry.deadline
        for entry in expired:
            channel.pending.pop(entry.rpc_id, None)
            if not entry.future.done():
                entry.future.set_exception(
                    RequestTimeout(entry.replica_id, latency=entry.timeout)
                )
        if next_deadline:
            channel.sweep_at = next_deadline
            channel.sweep_timer = loop.call_later(
                next_deadline - now, self._sweep, channel
            )

    # ------------------------------------------------------------------
    # Flush / receive
    # ------------------------------------------------------------------
    def _flush(self, channel: _BinChannel) -> None:
        """Pack the outbox into coalesced frames, one write per burst.

        Runs as a plain ``call_soon`` callback at the end of the loop
        iteration that queued the first message — no flush task, and
        every concurrent submitter in that iteration shares the frame.
        """
        channel.flush_scheduled = False
        if channel.closed or channel.paused:
            return
        messages = channel.outbox
        if not messages:
            return
        channel.outbox = []
        frames = wire.pack_frames(messages, version=wire.VERSION)
        data = frames[0] if len(frames) == 1 else b"".join(frames)
        channel.conn.write(data)
        self.flushes += 1
        self.frames_sent += len(frames)
        self.coalesced_ops += len(messages)
        self.bytes_sent += len(data)

    def _on_data(self, channel: _BinChannel, data: bytes) -> None:
        """Connection callback: decode reply frames, resolve futures."""
        self.bytes_received += len(data)
        try:
            frames = channel.decoder.feed(data)
        except wire.WireError as exc:
            self._teardown(channel.state, channel, str(exc))
            return
        loop = self._loop
        pending = channel.pending
        for version, flags, count, body in frames:
            if flags & wire.FLAG_HELLO:
                if not wire.MIN_VERSION <= version <= wire.VERSION:
                    self._teardown(
                        channel.state,
                        channel,
                        f"server rejected protocol (version {version})",
                    )
                    return
                channel.version = version
                continue
            self.frames_received += 1
            offset = 0
            try:
                for _ in range(count):
                    rpc_id, payload, offset = wire.decode_response(body, offset)
                    entry = pending.pop(rpc_id, None)
                    # Unmatched ids are replies that already timed out: drop.
                    if entry is None:
                        continue
                    if not entry.future.done():
                        entry.future.set_result(
                            Reply(payload, (loop.time() - entry.start) * 1000.0)
                        )
            except wire.WireError as exc:
                self._teardown(channel.state, channel, str(exc))
                return

    def _teardown(
        self,
        state: _BinState,
        channel: _BinChannel,
        reason: str,
        *,
        allow_retry: bool = True,
    ) -> None:
        """Fail or re-queue every call pending on a dead channel.

        Calls that were riding a *cached* channel get their one retry: a
        fresh dial is kicked off and they go out again with new rpc ids.
        Everything else fails with :class:`ReplicaUnavailable`.
        """
        if channel.closed:
            return
        channel.closed = True
        if channel.sweep_timer is not None:
            channel.sweep_timer.cancel()
            channel.sweep_timer = None
        if state.channel is channel:
            state.channel = None
        pending = list(channel.pending.values())
        channel.pending.clear()
        channel.outbox.clear()
        retry: List[_BinCall] = []
        for entry in pending:
            if entry.future.done():
                continue
            if allow_retry and entry.reused and not entry.retried:
                entry.retried = True
                retry.append(entry)
            else:
                self._fail(entry, reason)
        if retry:
            state.backlog.extend(retry)
            if state.dial_task is None or state.dial_task.done():
                state.dial_task = asyncio.ensure_future(
                    self._dial(retry[0].replica_id, state)
                )
        conn = channel.conn
        if conn is not None:
            try:
                conn.close()
            except RuntimeError:  # pragma: no cover - loop already gone
                pass

    async def close(self) -> None:
        states = list(self._states.values())
        self._states.clear()
        tasks = [
            state.dial_task
            for state in states
            if state.dial_task is not None and not state.dial_task.done()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for state in states:
            backlog, state.backlog = state.backlog, []
            for entry in backlog:
                self._fail(entry, "transport closed")
            if state.channel is not None:
                self._teardown(
                    state, state.channel, "transport closed", allow_retry=False
                )


class SerializedTcpTransport(Transport):
    """The pre-pipelining JSON-lines client: one persistent connection per
    replica, serialised per replica with a lock (concurrency only across
    replicas).

    Kept as the baseline for the serving-throughput benchmark — N
    concurrent client operations against one replica cost N serialised
    round trips here versus one round trip each on the pipelined
    :class:`TcpTransport`.  Reconnect semantics are identical: a request
    that fails because the *cached* connection died is retried once on a
    fresh connection (``reconnects`` counts those); a fresh connection
    that fails surfaces :class:`ReplicaUnavailable` immediately.
    """

    def __init__(self, addresses: Mapping[int, Tuple[str, int]]) -> None:
        if not addresses:
            raise ServiceError("TCP transport needs at least one address")
        self.addresses = dict(addresses)
        self._connections: Dict[int, Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}
        self._locks: Dict[int, asyncio.Lock] = {}
        self.reconnects = 0
        self.calls = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def _lock_for(self, replica_id: int) -> asyncio.Lock:
        if replica_id not in self._locks:
            self._locks[replica_id] = asyncio.Lock()
        return self._locks[replica_id]

    async def _connection(
        self, replica_id: int
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        """Return ``(reader, writer, reused)`` for the replica's channel."""
        cached = self._connections.get(replica_id)
        if cached is not None and not cached[1].is_closing():
            return cached[0], cached[1], True
        host, port = self.addresses[replica_id]
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        self._connections[replica_id] = (reader, writer)
        return reader, writer, False

    async def call(
        self,
        replica_id: int,
        request: Dict[str, Any],
        timeout: float = DEFAULT_TIMEOUT_MS,
    ) -> Reply:
        if replica_id not in self.addresses:
            raise ServiceError(f"unknown replica id {replica_id}")
        start = time.monotonic()
        self.calls += 1
        payload = json.dumps(request).encode() + b"\n"
        async with self._lock_for(replica_id):
            for retry in (False, True):
                reused = False
                try:
                    reader, writer, reused = await self._connection(replica_id)
                    writer.write(payload)
                    self.bytes_sent += len(payload)
                    await writer.drain()
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=timeout / 1000.0
                    )
                except asyncio.TimeoutError:
                    self._drop(replica_id)
                    raise RequestTimeout(replica_id, latency=timeout)
                except (ConnectionError, OSError) as exc:
                    self._drop(replica_id)
                    if reused and not retry:
                        self.reconnects += 1
                        continue
                    elapsed = (time.monotonic() - start) * 1000.0
                    raise ReplicaUnavailable(replica_id, latency=elapsed, reason=str(exc))
                if not line:
                    # EOF: the peer closed the stream.  On a reused
                    # connection that just means our cached socket went
                    # stale — reconnect and retry once.
                    self._drop(replica_id)
                    if reused and not retry:
                        self.reconnects += 1
                        continue
                    elapsed = (time.monotonic() - start) * 1000.0
                    raise ReplicaUnavailable(replica_id, latency=elapsed, reason="closed")
                if len(line) > MAX_LINE_BYTES:
                    raise ServiceError(f"oversized response from replica {replica_id}")
                self.bytes_received += len(line)
                elapsed = (time.monotonic() - start) * 1000.0
                return Reply(json.loads(line), elapsed)
        raise ReplicaUnavailable(  # pragma: no cover - loop always returns/raises
            replica_id, latency=(time.monotonic() - start) * 1000.0, reason="closed"
        )

    def _drop(self, replica_id: int) -> None:
        cached = self._connections.pop(replica_id, None)
        if cached is not None:
            cached[1].close()

    async def close(self) -> None:
        for replica_id in list(self._connections):
            self._drop(replica_id)
