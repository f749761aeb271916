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

Scrape-path hygiene follows the gateway transport's conventions: the
request read is bounded (line length, header count, timeout), shared
handles are swapped out before awaits on the stop path, and every
``writer.close()`` is paired with ``wait_closed``.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Tuple

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


class TelemetryServer:
    """Serve a few read-only routes on the current event loop."""

    def __init__(self, host: str, port: int, routes: Dict[str, Route]):
        self.host = host
        self.routes = dict(routes)
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._bound_port: Optional[int] = None

    @property
    def port(self) -> int:
        if self._bound_port is None:
            raise RuntimeError("telemetry server is not listening; call start()")
        return self._bound_port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self._port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    def abort(self) -> None:
        """Synchronous teardown for crash paths (no await available)."""
        server, self._server = self._server, None
        if server is not None:
            server.close()

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
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


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
