"""The JSON-lines baseline for the serving benchmark: client and server.

The product speaks binary wire v2 only.  This module keeps the
pipelined JSON-lines client (:class:`TcpTransport`) and the replica
server's JSON-lines handler exactly as they were when JSON lines was a
product protocol, so ``bench_service_throughput.py`` can keep gating
binary v2 against the protocol it replaced: the wire-matrix
``binary_2x_json`` ratio and the end-to-end "binary >= pipelined JSON"
check.  Nothing outside ``benchmarks/`` imports it.

Requests are one JSON dict per line, tagged with a correlation ``id``
the server echoes back, so a client multiplexes many calls over one
connection per replica.  :func:`start_json_replicas` starts one
JSON-lines server per replica, in the caller's event loop.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import ReplicaUnavailable, RequestTimeout, ServiceError
from repro.service import Replica
from repro.service.transport import DEFAULT_TIMEOUT_MS, Reply, Transport

__all__ = ["TcpTransport", "start_json_replicas"]

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


# Server and client encode with orjson when the environment has it;
# stdlib json is the drop-in fallback.  The wire format is identical
# either way.
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


class _JsonReplicaProtocol(asyncio.Protocol):
    """One JSON-lines replica-server connection, served callback-style.

    A burst of pipelined request lines costs one ``data_received``, one
    pass over the lines and one batched write.
    """

    __slots__ = ("replica", "transport", "buffer")

    def __init__(self, replica: Replica) -> None:
        self.replica = replica
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = b""

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.transport = None

    # Flow control: when the peer stops reading our replies, stop
    # reading its requests instead of buffering replies unboundedly.
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


async def start_json_replicas(
    replicas: Iterable[Replica], host: str = "127.0.0.1"
) -> Tuple[List[asyncio.base_events.Server], Dict[int, Tuple[str, int]]]:
    """Start one JSON-lines server per replica on an ephemeral port.

    Returns the servers (close them when done) and the
    ``{replica_id: (host, port)}`` address map :class:`TcpTransport`
    consumes.
    """
    loop = asyncio.get_running_loop()
    servers: List[asyncio.base_events.Server] = []
    addresses: Dict[int, Tuple[str, int]] = {}
    for replica in replicas:
        server = await loop.create_server(
            lambda rep=replica: _JsonReplicaProtocol(rep), host=host, port=0
        )
        servers.append(server)
        addresses[replica.replica_id] = (host, server.sockets[0].getsockname()[1])
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
    and each costs one round trip instead of N serialised round trips.
    A per-channel reader task dispatches
    replies to per-request futures in whatever order they arrive; writes
    are buffered in an outbox and flushed in batches (one ``write`` +
    ``drain`` per event-loop burst rather than per request).

    Failure semantics match the binary client: a request that
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
            # replica is only counted once.
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
