"""Threaded stdlib HTTP front end over the shared serving application.

This is the original serving transport, kept as the **parity oracle** for
the asyncio server (``repro query --serve --server-impl threaded``): both
front ends delegate every request to the same
:class:`~repro.serve.app.PatternApp`, so for any request they return
byte-identical JSON — the concurrency parity suite asserts exactly that.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from .app import PatternApp

__all__ = ["make_server", "serve_forever"]


class _PatternQueryHandler(BaseHTTPRequestHandler):
    """Request handler bound to one application (see :func:`make_server`)."""

    app: PatternApp  # injected by make_server
    quiet: bool = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Delegate one GET request to the shared application."""
        response = self.app.handle_request("GET", self.path, dict(self.headers.items()))
        self.send_response(response.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        if response.body:
            self.wfile.write(response.body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - http.server API
        """Suppress per-request stderr noise unless verbose serving was asked for."""
        if not self.quiet:
            super().log_message(format, *args)


def make_server(
    app: PatternApp,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """Build a ready-to-run threading HTTP server over an app.

    ``port=0`` binds an ephemeral port (useful in tests); the bound address
    is available as ``server.server_address``.  The caller owns the server's
    lifecycle (``serve_forever`` / ``shutdown`` / ``server_close``).
    """
    handler = type(
        "PatternQueryHandler",
        (_PatternQueryHandler,),
        {"app": app, "quiet": quiet},
    )
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(
    app: PatternApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = False,
) -> Tuple[str, int]:
    """Blocking convenience wrapper: serve until interrupted.

    Returns the bound ``(host, port)`` after shutdown — chiefly so the CLI
    can report where it had been listening.
    """
    server = make_server(app, host=host, port=port, quiet=quiet)
    bound = server.server_address
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
    return (bound[0], bound[1])
