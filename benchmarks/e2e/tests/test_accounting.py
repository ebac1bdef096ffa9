"""Latency accounting: the grace cap, early end of grace, reply matching
and run-to-run summaries, against a stand-in NDJSON server."""

import asyncio
import json
import statistics

import numpy as np
import pytest

from benchmarks.e2e.stats import censored_latencies, quartiles, relative_spread
from benchmarks.e2e.wire import drive


def test_censored_latencies_cap_everything_not_ok():
    due = np.array([0.0, 1.0, 2.0, 3.0])
    done = np.array([0.5, 1.2, np.nan, 3.1])
    ok = np.array([True, False, False, True])
    latency = censored_latencies(due, done, ok, grace_end=10.0)
    # A non-ok answer and a missing one both count up to the end of grace.
    np.testing.assert_allclose(latency, [0.5, 9.0, 8.0, 0.1])


async def _stand_in(answer_first: int, delay_s: float):
    """A server answering the first ``answer_first`` lines of each
    connection in order (echoing the line's ``n``), then going silent."""

    async def handle(reader, writer):
        answered = 0
        while True:
            line = await reader.readline()
            if not line:
                break
            if answered < answer_first:
                await asyncio.sleep(delay_s)
                n = json.loads(line)["n"]
                reply = {"status": "ok", "label": n, "latency_ms": 1.0, "batch_size": 1}
                writer.write((json.dumps(reply) + "\n").encode())
                answered += 1
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _drive(answer_first: int, n: int, end_offset: float):
    async def body():
        server = await _stand_in(answer_first, delay_s=0.01)
        port = server.sockets[0].getsockname()[1]
        lines = [(json.dumps({"n": i}) + "\n").encode() for i in range(n)]
        try:
            return await drive(port, lines, np.linspace(0.0, 0.2, n), end_offset)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(body())


def test_unanswered_requests_count_at_the_grace_cap():
    trace = _drive(answer_first=3, n=10, end_offset=0.6)
    answered = ~np.isnan(trace.recv)
    # Round-robin over two connections: the first three lines of each.
    assert answered.sum() == 6
    np.testing.assert_array_equal(np.flatnonzero(answered), [0, 1, 2, 3, 4, 5])
    # Replies are matched in order per connection.
    assert [trace.replies[i]["label"] for i in range(6)] == list(range(6))
    start = trace.due[0]
    assert trace.end - start >= 0.6 - 1e-3
    ok = np.array([s == "ok" for s in trace.statuses])
    latency = censored_latencies(trace.due, trace.recv, ok, trace.end)
    np.testing.assert_allclose(latency[~answered], trace.end - trace.due[~answered])
    assert np.all(latency[~answered] > latency[answered].max())


def test_grace_ends_once_every_request_is_answered():
    trace = _drive(answer_first=100, n=10, end_offset=30.0)
    assert not np.isnan(trace.recv).any()
    assert trace.end - trace.due[0] < 5.0
    assert np.all(trace.sent >= trace.due)


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, med, q3 = quartiles(values)
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])
    assert med == statistics.median(values)
    assert relative_spread(values) == pytest.approx((q3 - q1) / med)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
