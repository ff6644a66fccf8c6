"""Single-threaded HTTP/1.1 load generator over a few keep-alive connections.

One thread drives every connection through a selector, so the client never
waits for its own interpreter lock and the latency it records is the
server's and the transport's.  Each connection carries at most one request
at a time.  A result is ``(due, sent, done, status, body, kind)`` in
``time.perf_counter`` seconds; status 0 means a connection error.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
from typing import Dict, List, Optional, Tuple

Request = Tuple[str, str, Dict[str, str]]  # (kind, target, headers)


class Lane:
    """One keep-alive connection with at most one request in flight."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buffer = bytearray()
        self.inflight: Optional[Tuple[int, float, float]] = None  # index, due, sent
        self.connect()

    def connect(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer.clear()

    def send(self, request: Request, index: int, due: float) -> None:
        _, target, headers = request
        extra = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        message = f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n{extra}\r\n".encode("latin-1")
        sent = time.perf_counter()
        self.sock.setblocking(True)
        self.sock.sendall(message)
        self.sock.setblocking(False)
        self.inflight = (index, due, sent)

    def receive(self) -> Optional[Tuple[int, bytes]]:
        """Read what is available; the ``(status, body)`` once a response is whole."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self.buffer[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if len(self.buffer) < end + 4 + length:
            return None
        body = bytes(self.buffer[end + 4 : end + 4 + length])
        del self.buffer[: end + 4 + length]
        return int(head[0].split()[1]), body

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()


def _run(port: int, lanes_count: int, requests: List[Request], next_request, results: List) -> None:
    """Drive the lanes until ``next_request`` has nothing left and all are idle.

    ``next_request(lane, now)`` returns ``(index, due)`` to send on that lane
    now, ``(None, due)`` while the lane's next request is not yet due, or
    ``None`` when the lane is done.
    """
    selector = selectors.DefaultSelector()
    lanes = [Lane(port) for _ in range(lanes_count)]
    done_lanes = set()
    try:
        for number, lane in enumerate(lanes):
            selector.register(lane.sock, selectors.EVENT_READ, number)
        while len(done_lanes) < len(lanes):
            now = time.perf_counter()
            for number, lane in enumerate(lanes):
                if lane.inflight is not None or number in done_lanes:
                    continue
                step = next_request(number, now)
                if step is None:
                    done_lanes.add(number)
                elif step[0] is not None:
                    index, due = step
                    lane.send(requests[index], index, due)
            if len(done_lanes) == len(lanes):
                break
            # Poll and yield instead of sleeping: the CPU shared with the
            # server then never halts between requests.  Waking a halted
            # virtual CPU on a busy host can take milliseconds, which the
            # open loop would count as latency.
            events = selector.select(0)
            if not events:
                os.sched_yield()
            for key, _ in events:
                lane = lanes[key.data]
                try:
                    response = lane.receive()
                except (OSError, ConnectionError, ValueError, IndexError):
                    response = (0, b"")
                    selector.unregister(lane.sock)
                    lane.close()
                    lane.connect()
                    selector.register(lane.sock, selectors.EVENT_READ, key.data)
                if response is None:
                    continue
                index, due, sent = lane.inflight
                lane.inflight = None
                status, body = response
                results.append((index, due, sent, time.perf_counter(), status, body))
    finally:
        selector.close()
        for lane in lanes:
            lane.close()


def open_loop(port: int, requests: List[Request], rate: float, lanes: int):
    """Request ``i`` is due ``i / rate`` s after the start, on lane ``i % lanes``.

    A lane still busy with an earlier request sends late; latency is timed
    from when the request was due, so that wait counts.
    """
    start = time.perf_counter() + 0.05
    cursor = list(range(lanes))

    def next_request(lane: int, now: float):
        index = cursor[lane]
        if index >= len(requests):
            return None
        due = start + index / rate
        if due > now:
            return (None, due)
        cursor[lane] += lanes
        return (index, due)

    raw: List = []
    _run(port, lanes, requests, next_request, raw)
    out: List = [None] * len(requests)
    for index, due, sent, done, status, body in raw:
        out[index] = (due, sent, done, status, body, requests[index][0])
    return out


def closed_loop(port: int, requests: List[Request], duration: float, lanes: int):
    """Each lane sends its next request as soon as the last one completes."""
    deadline = time.perf_counter() + duration
    cursor = list(range(lanes))

    def next_request(lane: int, now: float):
        if now >= deadline:
            return None
        index = cursor[lane] % len(requests)
        cursor[lane] += lanes
        return (index, now)

    raw: List = []
    _run(port, lanes, requests, next_request, raw)
    return [(due, sent, done, status, body, requests[index][0])
            for index, due, sent, done, status, body in raw]
