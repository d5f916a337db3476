"""TCP transport for the pose service: frames, server, client.

The wire protocol is deliberately minimal: each direction is a stream
of length-prefixed frames (``<u32 length> <envelope bytes>``), where
the envelope is a CRC32-framed :mod:`repro.comms.envelope` message.
Responses complete out of order — the ``request_id`` the client chose
is the correlation key — which is what lets one connection pipeline
requests into the service, each dispatched on its own.

Server-side robustness mirrors the service's contract: a frame that is
not a well-formed request is *counted and skipped* (the framing layer
stays in sync, so one corrupt envelope cannot poison the connection).
When its header and checksum verified, its ``request_id`` is the
sender's, so it is also answered: a typed ``"shed"`` response with
``failure_reason="CodecError"``, the same shape admission rejections
take on the wire.  A client that disconnects mid-request simply stops
receiving — the service still resolves the request internally.
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
    decode_request,
    decode_response,
)
from repro.service.config import ServiceError
from repro.service.core import PoseService
from repro.service.worker import identity_response

__all__ = ["MAX_FRAME_BYTES", "ServiceClient", "ServiceServer"]

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
        loop = asyncio.get_running_loop()
        responders: set[asyncio.Task] = set()
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)

        async def send(response: ServiceResponse) -> None:
            async with write_lock:
                _write_frame(writer, response.encode())
                with contextlib.suppress(ConnectionError):
                    await writer.drain()

        async def respond(future: asyncio.Future) -> None:
            await send(await future)

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
                    # Decoding a full-scan pair takes milliseconds: off
                    # the loop, admission, deadline timers and the
                    # supervisor keep running for every other
                    # connection meanwhile.  This connection reads its
                    # next frame only after, so its requests keep
                    # their order.
                    request = await loop.run_in_executor(
                        None, decode_request, frame)
                except asyncio.CancelledError:
                    break
                except CodecError as error:
                    # The framing layer is still in sync — skip the
                    # corrupt envelope, keep the connection.  A verified
                    # id is answered, so its sender does not wait
                    # forever; an unverified one is not trusted.
                    registry.counter("service/bad_frames").inc()
                    if error.request_id is not None:
                        await send(identity_response(
                            error.request_id, "shed", "CodecError"))
                    continue
                try:
                    future = self.service.submit_nowait(request)
                except ServiceError as error:
                    # Typed rejection → typed wire response.
                    await send(identity_response(
                        request.request_id, "shed", type(error).__name__))
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
        # Encoding a full-scan pair copies and checksums megabytes
        # (~4 ms, mostly with the GIL released): off the loop,
        # concurrent requests encode side by side and responses keep
        # arriving meanwhile.
        loop = asyncio.get_running_loop()
        frame = await loop.run_in_executor(None, request.encode)
        if self._pump.done():
            raise ConnectionError("connection closed")
        future = loop.create_future()
        self._waiting[request.request_id] = future
        _write_frame(self._writer, frame)
        await self._writer.drain()
        return await future

    async def close(self) -> None:
        self._pump.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._pump
        self._writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await self._writer.wait_closed()
