"""TCP transport for the pose service: frames, server, client.

The wire protocol is deliberately minimal: each direction is a stream
of length-prefixed frames (``<u32 length> <envelope bytes>``), where
the envelope is a CRC32-framed :mod:`repro.comms.envelope` message.
Responses complete out of order — the ``request_id`` the client chose
is the correlation key — which is what lets one connection pipeline
requests into the service, each dispatched on its own.

Server-side robustness mirrors the service's contract: a frame that is
not a well-formed request is *counted and skipped* (the framing layer
stays in sync, so one corrupt envelope cannot poison the connection),
admission rejections become typed ``"shed"`` responses on the wire, and
a client that disconnects mid-request simply stops receiving — the
service still resolves the request internally.

Same-host clients can skip the wire for the heavy half of a scan-pair
request: :meth:`ServiceClient.request_shm` writes the two encoded tier
messages into a client-owned shared-memory segment and sends only a
:class:`~repro.comms.envelope.ShmPairRef` descriptor; the server
resolves the descriptor (attach → copy → close, never unlink) into an
ordinary scan-pair request *before* admission, so everything past the
transport — validation, dispatch, the worker data plane — is identical
for both forms and so are the responses.  A descriptor that does not
resolve (unknown name, short segment, corrupt payload) gets a typed
``"shed"`` response, keeping the answered-or-refused contract.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import struct

from repro.comms.codec import CodecError
from repro.comms.envelope import (
    ServiceRequest,
    ServiceResponse,
    ShmPairRef,
    decode_request,
    decode_response,
)
from repro.comms.tiers import TieredMessage, decode_message, encode_message
from repro.runtime.shm import read_segment, write_segment
from repro.service.config import ServiceError
from repro.service.core import PoseService

__all__ = ["MAX_FRAME_BYTES", "ServiceClient", "ServiceServer",
           "resolve_shm_request"]

_LEN = struct.Struct("<I")
#: Upper bound on one frame — far above any real envelope (a full-scan
#: pair is ~1 MB), low enough that a corrupt length prefix cannot make
#: the reader balloon.
MAX_FRAME_BYTES = 64 * 1024 * 1024


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    head = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds the "
                         f"{MAX_FRAME_BYTES}-byte bound")
    return await reader.readexactly(length)


def _write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    writer.write(_LEN.pack(len(payload)) + payload)


def resolve_shm_request(request: ServiceRequest) -> ServiceRequest:
    """Materialize a shm-pair request into an ordinary scan pair.

    Attaches the client-owned segment named by the descriptor, copies
    out the two encoded tier messages, decodes them, and rebuilds the
    request — the segment itself is closed immediately (and never
    unlinked: it is the client's to reclaim).

    Raises:
        CodecError: the segment does not resolve (unknown name, shorter
            than the descriptor promises, or holding malformed
            messages).
    """
    ref = request.shm
    assert ref is not None
    try:
        payload = read_segment(ref.name, ref.ego_len + ref.other_len)
    except (FileNotFoundError, ValueError, OSError) as error:
        raise CodecError(
            f"shm descriptor {ref.name!r} does not resolve: "
            f"{error}") from error
    ego = decode_message(payload[:ref.ego_len])
    other = decode_message(payload[ref.ego_len:])
    return ServiceRequest(request_id=request.request_id, ego=ego,
                          other=other, deadline_ms=request.deadline_ms)


class ServiceServer:
    """Serve one :class:`PoseService` over TCP."""

    def __init__(self, service: PoseService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None
        self._connections: set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the bound
        port afterwards (useful with ``port=0``)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting and close open connections.  Idempotent.

        Does *not* stop the service — lifecycle layering is the
        caller's job (``repro serve`` drains the service after the
        listener closes).
        """
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        for task in list(self._connections):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        registry = self.service.registry
        registry.counter("service/connections").inc()
        write_lock = asyncio.Lock()
        responders: set[asyncio.Task] = set()
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)

        async def respond(future: asyncio.Future) -> None:
            response: ServiceResponse = await future
            async with write_lock:
                _write_frame(writer, response.encode())
                with contextlib.suppress(ConnectionError):
                    await writer.drain()

        try:
            while True:
                try:
                    frame = await _read_frame(reader)
                except asyncio.CancelledError:
                    # stop() closing the connection; asyncio streams
                    # run the handler as its own task, so swallowing
                    # the cancellation here ends it cleanly.
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except CodecError:
                    registry.counter("service/bad_frames").inc()
                    break  # length prefix itself untrusted: resync is
                    # impossible, drop the connection
                try:
                    request = decode_request(frame)
                except CodecError:
                    # The framing layer is still in sync — skip the
                    # corrupt envelope, keep the connection.
                    registry.counter("service/bad_frames").inc()
                    continue
                if request.shm is not None:
                    try:
                        request = resolve_shm_request(request)
                        registry.counter("service/shm/requests").inc()
                    except CodecError:
                        # The descriptor is well-framed but the segment
                        # is not there (or lies): answer typed, like an
                        # admission rejection — the client is waiting.
                        registry.counter("service/shm/resolve_failures"
                                         ).inc()
                        async with write_lock:
                            _write_frame(writer, ServiceResponse(
                                request_id=request.request_id,
                                status="shed", success=False,
                                failure_reason="ShmResolveError",
                                degradation=None, inliers_bv=0,
                                inliers_box=0, tx=0.0, ty=0.0,
                                theta=0.0).encode())
                            with contextlib.suppress(ConnectionError):
                                await writer.drain()
                        continue
                try:
                    future = self.service.submit_nowait(request)
                except ServiceError as error:
                    # Typed rejection → typed wire response.
                    async with write_lock:
                        _write_frame(writer, ServiceResponse(
                            request_id=request.request_id, status="shed",
                            success=False,
                            failure_reason=type(error).__name__,
                            degradation=None, inliers_bv=0, inliers_box=0,
                            tx=0.0, ty=0.0, theta=0.0).encode())
                        with contextlib.suppress(ConnectionError):
                            await writer.drain()
                    continue
                task = asyncio.create_task(respond(future))
                responders.add(task)
                task.add_done_callback(responders.discard)
        finally:
            if me is not None:
                self._connections.discard(me)
            for task in list(responders):
                task.cancel()
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()


class ServiceClient:
    """One pipelined TCP connection to a :class:`ServiceServer`.

    Allocates request ids internally; concurrent :meth:`request` calls
    interleave freely (responses correlate by id).
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._waiting: dict[int, asyncio.Future] = {}
        self._next_id = 1
        self._pump = asyncio.create_task(self._pump_responses())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _pump_responses(self) -> None:
        try:
            while True:
                frame = await _read_frame(self._reader)
                response = decode_response(frame)
                future = self._waiting.pop(response.request_id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.CancelledError, CodecError) as error:
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError(f"connection lost: {error!r}"))
            self._waiting.clear()

    async def request(self, request: ServiceRequest) -> ServiceResponse:
        """Send one request and await its response.

        The request's ``request_id`` is replaced with a
        connection-unique one (the first request on a connection gets
        id 1).

        Raises:
            ConnectionError: the connection is gone — raised up front
                (a dead pump would never resolve a new future) or when
                it drops while this request is in flight.
        """
        if self._pump.done():
            raise ConnectionError("connection closed")
        request = dataclasses.replace(request, request_id=self._next_id)
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF or 1
        # Encoding a full-scan pair compresses megabytes (~0.1 s, with
        # the GIL released): off the loop, concurrent requests encode
        # side by side and responses keep arriving meanwhile.
        loop = asyncio.get_running_loop()
        frame = await loop.run_in_executor(None, request.encode)
        if self._pump.done():
            raise ConnectionError("connection closed")
        future = loop.create_future()
        self._waiting[request.request_id] = future
        _write_frame(self._writer, frame)
        await self._writer.drain()
        return await future

    async def request_shm(self, ego: TieredMessage, other: TieredMessage,
                          *, deadline_ms: int = 0) -> ServiceResponse:
        """Send one scan pair through a shared-memory segment.

        Same-host fast path: the encoded messages land in a
        client-owned segment and only a ~30-byte descriptor crosses the
        socket.  The segment lives until the response (the server
        copies it out before admission, so unlinking afterwards is
        always safe) and is reclaimed on every exit path.

        Raises:
            ShmUnavailableError: no shared memory here — callers fall
                back to :meth:`request` with the same messages.
            ConnectionError: as :meth:`request`.
        """
        ego_bytes = encode_message(ego)
        other_bytes = encode_message(other)
        segment = write_segment(ego_bytes + other_bytes)
        try:
            ref = ShmPairRef(name=segment.name, ego_len=len(ego_bytes),
                             other_len=len(other_bytes))
            return await self.request(ServiceRequest(
                request_id=1, shm=ref, deadline_ms=deadline_ms))
        finally:
            segment.close()
            with contextlib.suppress(FileNotFoundError):
                segment.unlink()

    async def close(self) -> None:
        self._pump.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._pump
        self._writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await self._writer.wait_closed()
