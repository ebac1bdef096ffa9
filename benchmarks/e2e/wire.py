"""Open-loop NDJSON load over real sockets against ``repro serve``.

One asyncio thread drives at most :data:`~.workloads.CONNECTIONS` TCP
connections.  Requests go round-robin and are written when due, without
waiting for replies (pipelined), so a stalled server makes later requests
wait and that wait counts: each latency runs from the request's due time
to its response line.  The protocol has no request ids, so replies are
matched to requests in order per connection, which the daemon keeps.
"""

from __future__ import annotations

import asyncio
import collections
import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from .sut import STARTUP_TIMEOUT_S, BenchError, Child
from .workloads import CONNECTIONS

HOST = "127.0.0.1"
REPLY_TIMEOUT_S = 30.0
#: Lead time between scheduling the first request and its due time.
START_DELAY_S = 0.05
#: Largest reply line the client accepts (a metrics scrape is the biggest).
READ_LIMIT = 1 << 24

_SERVING = re.compile(rb" on (\S+):(\d+) \(")


@dataclass
class Daemon:
    """A running ``repro serve`` child and the port it listens on."""

    child: Child
    port: int

    @classmethod
    async def start(cls, model: str) -> "Daemon":
        child = await Child.spawn(
            sys.executable, "-m", "repro", "serve",
            "--model", model, "--port", "0", "--no-ledger",
        )
        try:
            line = await child.readline(STARTUP_TIMEOUT_S, "the daemon's serving line")
            match = _SERVING.search(line)
            if match is None:
                raise BenchError(f"unexpected daemon banner: {line!r}")
        except BaseException:
            await child.stop()
            raise
        return cls(child=child, port=int(match.group(2)))

    async def stop(self) -> None:
        await self.child.stop()


def request_line(sample: np.ndarray, scores: bool = False) -> bytes:
    payload = {"levels": np.asarray(sample).tolist()}
    if scores:
        payload["scores"] = True
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


async def round_trip(port: int, payload: bytes) -> dict:
    """One line on a fresh connection, one reply."""
    reader, writer = await asyncio.open_connection(HOST, port, limit=READ_LIMIT)
    try:
        writer.write(payload)
        line = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise BenchError("no reply within the reply timeout") from None
    finally:
        writer.transport.abort()
    if not line:
        raise BenchError("connection closed without a reply")
    return json.loads(line)


async def scrape(port: int) -> dict:
    """The daemon's ``{"op": "metrics"}`` snapshot."""
    reply = await round_trip(port, b'{"op":"metrics"}\n')
    if reply.get("status") != "ok":
        raise BenchError(f"metrics scrape failed: {reply}")
    return reply


@dataclass
class Trace:
    """Per-request client spans of one open-loop drive (times in s,
    on the client's monotonic clock; ``nan`` where nothing happened)."""

    due: np.ndarray
    sent: np.ndarray
    recv: np.ndarray
    conn: np.ndarray
    replies: list
    line_bytes: np.ndarray
    end: float

    def field(self, name: str, default=np.nan) -> np.ndarray:
        return np.array(
            [default if r is None else r.get(name, default) for r in self.replies],
            dtype=np.float64,
        )

    @property
    def statuses(self) -> list:
        return [None if r is None else r.get("status") for r in self.replies]


async def drive(
    port: int, lines: list[bytes], offsets: np.ndarray, end_offset: float
) -> Trace:
    """Send ``lines[i]`` at ``offsets[i]`` s and collect replies until all
    are in or ``end_offset`` s have passed (both from the first due time)."""
    loop = asyncio.get_running_loop()
    n = len(lines)
    conns = [
        await asyncio.open_connection(HOST, port, limit=READ_LIMIT)
        for _ in range(min(CONNECTIONS, n))
    ]
    width = len(conns)
    sent = np.full(n, np.nan)
    recv = np.full(n, np.nan)
    replies: list = [None] * n
    waiting = [collections.deque() for _ in conns]  # request ids in send order
    left = n
    all_in = asyncio.Event()

    async def read(k: int) -> None:
        nonlocal left
        reader = conns[k][0]
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            if not waiting[k]:
                raise BenchError(f"unsolicited reply on connection {k}: {line[:200]!r}")
            i = waiting[k].popleft()
            recv[i] = now
            replies[i] = json.loads(line)
            left -= 1
            if left == 0:
                all_in.set()

    readers = [loop.create_task(read(k)) for k in range(width)]
    start = loop.time() + START_DELAY_S
    due = start + np.asarray(offsets, dtype=np.float64)
    try:
        for i in range(n):
            delay = due[i] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            k = i % width
            waiting[k].append(i)
            conns[k][1].write(lines[i])
            sent[i] = loop.time()
        remaining = start + end_offset - loop.time()
        if remaining > 0:
            try:
                await asyncio.wait_for(all_in.wait(), remaining)
            except asyncio.TimeoutError:
                pass
        end = loop.time()
    finally:
        for task in readers:
            task.cancel()
        outcomes = await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            writer.transport.abort()
    for outcome in outcomes:
        if isinstance(outcome, Exception) and not isinstance(
            outcome, asyncio.CancelledError
        ):
            raise outcome
    return Trace(
        due=due,
        sent=sent,
        recv=recv,
        conn=np.arange(n) % width,
        replies=replies,
        line_bytes=np.array([len(line) for line in lines], dtype=np.int64),
        end=end,
    )
