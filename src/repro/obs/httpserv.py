"""A minimal asyncio HTTP sidecar for live telemetry.

:class:`TelemetryServer` is a deliberately tiny HTTP/1.1 responder —
GET-only, ``Connection: close``, no keep-alive, no dependencies — that
shares its caller's event loop.  The gateway mounts three routes on it
(``/metrics``, ``/healthz``, ``/sources``); the server itself knows
nothing about gateways: each route is a zero-argument callable returning
``(status, content_type, body)``, evaluated synchronously on the loop.
Route handlers must therefore be pure snapshot renderers (string
building over in-memory state) — anything blocking would stall every
connection the loop owns.

Scrape-path hygiene is the gateway transport's: the request read is
bounded (line length, header count, timeout), and both servers accept,
track and stop through one :class:`Listener`, so an idle scraper is
hung up by ``stop()`` instead of holding it open.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

Route = Callable[[], Tuple[int, str, str]]

_REASONS = {
    200: "OK",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_READ_TIMEOUT = 5.0
_MAX_HEADER_LINES = 64


class Listener:
    """Accept, track and stop: the listening-socket lifecycle of both servers.

    :meth:`stop` closes the listener and every tracked connection before
    awaiting ``Server.wait_closed()`` (which from Python 3.12.1 waits for
    every connection) and the serving tasks: an idle client holds nothing.
    """

    def __init__(self) -> None:
        self.server: Optional[asyncio.base_events.Server] = None
        self.bound: Optional[int] = None  # the bound port
        self.writers: Dict[asyncio.StreamWriter, "asyncio.Task[None]"] = {}
        self.stopping = False

    async def listen(self, handle: Callable[..., Awaitable[Any]], host: str, port: int) -> None:
        async def serve(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            try:
                if not self.stopping:  # else accepted as stop() began: hang up unserved
                    self.writers[writer] = asyncio.current_task()  # type: ignore[assignment]
                    await handle(reader, writer)
            finally:  # a handler that raised hangs up too
                self.writers.pop(writer, None)
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass  # peer reset or transport aborted mid-teardown

        self.stopping = False
        self.server = await asyncio.start_server(serve, host, port)
        self.bound = self.server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        self.stopping = True  # handles are swapped out before the first await
        server, self.server = self.server, None
        writers, self.writers = self.writers, {}
        for writer in writers:
            writer.close()
        if server is not None:
            server.close()
            await server.wait_closed()
        if writers:  # wait() leaves a serving task's exception unretrieved: it still surfaces
            await asyncio.wait(writers.values())

    def abort(self) -> None:
        """Synchronous teardown for crash paths: every connection is torn."""
        self.stopping = True
        server, self.server = self.server, None
        if server is not None:
            server.close()
        for writer in self.writers:
            writer.transport.abort()
        self.writers.clear()


class TelemetryServer(Listener):
    """Serve a few read-only routes on the current event loop."""

    def __init__(self, host: str, port: int, routes: Dict[str, Route]):
        super().__init__()
        self.host = host
        self.routes = dict(routes)
        self._port = port

    @property
    def port(self) -> int:
        if self.bound is None:
            raise RuntimeError("telemetry server is not listening; call start()")
        return self.bound

    async def start(self) -> None:
        await self.listen(self._handle, self.host, self._port)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    reader.readline(), timeout=_READ_TIMEOUT
                )
                for _ in range(_MAX_HEADER_LINES):
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=_READ_TIMEOUT
                    )
                    if not line.strip():
                        break
            except asyncio.TimeoutError:
                return
            parts = request.decode("latin-1", "replace").split()
            if len(parts) < 2:
                return
            method, path = parts[0], parts[1].split("?", 1)[0]
            if method != "GET":
                status, ctype, body = 405, "text/plain", "method not allowed\n"
            else:
                route = self.routes.get(path)
                if route is None:
                    known = " ".join(sorted(self.routes))
                    status, ctype, body = 404, "text/plain", f"try: {known}\n"
                else:
                    try:
                        status, ctype, body = route()
                    except Exception as exc:  # a broken panel must not kill the loop
                        status, ctype, body = 500, "text/plain", f"{exc}\n"
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}; charset=utf-8\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # scraper went away mid-response


def http_get(host: str, port: int, path: str, timeout: float = 5.0) -> Tuple[int, str]:
    """Blocking one-shot GET for tests, benchmarks, and CLI probes.

    Lives here so the scrape side of the contract (request shape, header
    parsing) has exactly one implementation on each end.  Never call it
    from coroutine context — it blocks.
    """
    import socket

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    parts = status_line.split()
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    return status, body.decode("utf-8", "replace")
