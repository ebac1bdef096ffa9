"""MicroBatchServer: coalescing, work-conserving flush, shedding, fan-out, drain, TCP.

No pytest-asyncio in the toolchain, so every scenario is an ``async def``
driven by ``asyncio.run`` inside a plain sync test.
"""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.obs import MetricsRegistry, using_registry
from repro.runtime import (
    ChaosSpec,
    CircuitOpenError,
    IntegrityScrubber,
    MicroBatchServer,
    NetPolicy,
    ResilientBatchRunner,
    RetryPolicy,
    ServePolicy,
    serve_tcp,
)
from repro.runtime.resilience import QUARANTINED_LABEL, BatchReport, BatchResult

LEVELS = 10
SHAPE = (5, 8)
CONFIG = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=LEVELS
)
FAST = RetryPolicy(max_retries=2, backoff_base_s=0.0, backoff_max_s=0.0)


@pytest.fixture(scope="module")
def engine():
    return BitPackedUniVSA(extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, seed=0)))


def _samples(n, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + SHAPE)


class _FakeEngine:
    input_shape = SHAPE
    n_levels = LEVELS


class _ScriptedRunner:
    """Stand-in runner whose run() follows a scripted behaviour, so the
    failure/shedding paths are exercised without real timing or chaos."""

    def __init__(self, behavior="ok", block=None):
        self.engine = _FakeEngine()
        self.behavior = behavior
        self.block = block
        self.batch_sizes = []

    def run(self, levels):
        self.batch_sizes.append(len(levels))
        if self.block is not None:
            self.block.wait(timeout=10.0)
        n = len(levels)
        report = BatchReport(batch=n)
        if self.behavior == "circuit":
            raise CircuitOpenError("breaker open", report)
        if self.behavior == "boom":
            raise OSError("disk on fire")
        predictions = np.full(n, 2, dtype=np.int64)
        if self.behavior == "partial" and n:
            report.failed_samples.append(0)
            predictions[0] = QUARANTINED_LABEL
        return BatchResult(
            scores=np.tile(np.arange(3.0), (n, 1)),
            predictions=predictions,
            report=report,
        )


class TestServePolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            ServePolicy(max_batch=0)
        with pytest.raises(ValueError, match="deadline_ms"):
            ServePolicy(deadline_ms=0.0)
        with pytest.raises(ValueError, match="max_queue"):
            ServePolicy(max_queue=0)
        with pytest.raises(ValueError, match="max_inflight"):
            ServePolicy(max_inflight=0)

    def test_from_env_reads_all_knobs(self):
        policy = ServePolicy.from_env(
            {
                "REPRO_SERVE_BATCH": "8",
                "REPRO_SERVE_DEADLINE_MS": "20",
                "REPRO_SERVE_QUEUE": "32",
                "REPRO_SERVE_INFLIGHT": "3",
            }
        )
        assert policy == ServePolicy(
            max_batch=8, deadline_ms=20.0, max_queue=32, max_inflight=3
        )

    def test_from_env_garbage_keeps_defaults(self):
        policy = ServePolicy.from_env(
            {"REPRO_SERVE_BATCH": "lots", "REPRO_SERVE_DEADLINE_MS": ""}
        )
        assert policy == ServePolicy()


class TestCoalescing:
    def test_concurrent_submissions_batch_and_match_engine(self, engine):
        samples = _samples(16, seed=1)
        expected = engine.predict(samples)
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=8, deadline_ms=500.0)
            with ResilientBatchRunner(engine, policy=FAST, workers=1) as runner:
                async with MicroBatchServer(runner, policy) as server:
                    return await server.submit_many(samples)

        with using_registry(registry):
            responses = asyncio.run(scenario())
        assert [r.status for r in responses] == ["ok"] * 16
        assert [r.label for r in responses] == list(expected)
        # 16 concurrent arrivals coalesce into full batches of 8
        assert {r.batch_size for r in responses} == {8}
        assert registry.counter("serve.requests").value == 16
        assert registry.counter("serve.accepted").value == 16
        assert registry.counter("serve.answered").value == 16
        assert registry.counter("serve.flush.full").value == 2
        assert registry.counter("serve.rejected").value == 0
        assert registry.histogram("serve.latency").count == 16

    def test_partial_batch_flushes_while_a_slot_is_free(self, engine):
        samples = _samples(3, seed=2)
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=64, deadline_ms=30.0)
            with ResilientBatchRunner(engine, policy=FAST, workers=1) as runner:
                async with MicroBatchServer(runner, policy) as server:
                    return await server.submit_many(samples)

        with using_registry(registry):
            responses = asyncio.run(scenario())
        assert all(r.ok for r in responses)
        assert responses[0].batch_size == 3
        assert registry.counter("serve.flush.partial").value == 1
        assert registry.counter("serve.flush.full").value == 0

    def test_lone_request_is_not_held_for_the_deadline(self):
        """A lone request leaves as soon as a slot is free: the flusher
        never waits out ``deadline_ms`` for a batch that will not fill."""
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(deadline_ms=10_000.0)
            async with MicroBatchServer(_ScriptedRunner(), policy) as server:
                started = time.perf_counter()
                response = await server.submit(np.zeros(SHAPE))
                return response, time.perf_counter() - started

        with using_registry(registry):
            response, elapsed = asyncio.run(scenario())
        assert response.ok and response.batch_size == 1
        assert elapsed < 1.0
        assert registry.counter("serve.flush.partial").value == 1

    def test_submit_shapes(self):
        runner = _ScriptedRunner()

        async def scenario():
            policy = ServePolicy(max_batch=1, deadline_ms=50.0)
            async with MicroBatchServer(runner, policy) as server:
                ok = await server.submit(np.zeros((1,) + SHAPE))  # squeezed
                with pytest.raises(ValueError, match="one sample shaped"):
                    await server.submit(np.zeros((2,) + SHAPE))
                return ok

        assert asyncio.run(scenario()).ok

    def test_submit_outside_started_server_is_loud(self):
        server = MicroBatchServer(_ScriptedRunner(), ServePolicy())

        async def scenario():
            with pytest.raises(RuntimeError, match="not started"):
                await server.submit(np.zeros(SHAPE))

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_queue_overflow_sheds_with_explicit_rejection(self):
        block = threading.Event()
        runner = _ScriptedRunner(block=block)
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=1, deadline_ms=5000.0, max_queue=2)
            async with MicroBatchServer(runner, policy) as server:
                # a two-request burst takes both (blocked) pipeline slots,
                # emptying the queue
                first = [
                    asyncio.ensure_future(server.submit(np.zeros(SHAPE)))
                    for _ in range(2)
                ]
                for _ in range(50):
                    await asyncio.sleep(0.002)
                    if len(runner.batch_sizes) == 2:
                        break
                assert server.inflight_batches == 2 and server.queue_depth == 0
                backlog = [
                    asyncio.ensure_future(server.submit(np.zeros(SHAPE)))
                    for _ in range(2)
                ]
                await asyncio.sleep(0)  # both enqueue, filling max_queue
                assert server.queue_depth == 2
                shed = await server.submit(np.zeros(SHAPE))
                block.set()
                answered = await asyncio.gather(*first, *backlog)
                return answered, shed

        with using_registry(registry):
            answered, shed = asyncio.run(scenario())
        assert shed.status == "rejected"
        assert shed.reason == "queue-full"
        assert shed.label == QUARANTINED_LABEL and shed.scores is None
        assert shed.latency_s == 0.0
        assert [r.status for r in answered] == ["ok"] * 4
        assert registry.counter("serve.requests").value == 5
        assert registry.counter("serve.accepted").value == 4
        assert registry.counter("serve.rejected").value == 1
        assert registry.counter("serve.answered").value == 4

    def test_draining_server_sheds_new_arrivals(self):
        runner = _ScriptedRunner()

        async def scenario():
            async with MicroBatchServer(runner, ServePolicy()) as server:
                server._closing = True
                return await server.submit(np.zeros(SHAPE))

        response = asyncio.run(scenario())
        assert response.status == "rejected"
        assert response.reason == "draining"


class TestFanOut:
    def test_quarantined_sample_gets_sentinel_and_siblings_answer(self, engine):
        samples = _samples(4, seed=3).astype(float)
        samples[2, 0, 0] = np.nan
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=4, deadline_ms=500.0)
            with ResilientBatchRunner(engine, policy=FAST, workers=1) as runner:
                async with MicroBatchServer(runner, policy) as server:
                    return await server.submit_many(samples)

        with using_registry(registry):
            responses = asyncio.run(scenario())
        clean = np.delete(samples, 2, axis=0).astype(np.int64)
        assert [responses[i].label for i in (0, 1, 3)] == list(engine.predict(clean))
        assert all(responses[i].ok for i in (0, 1, 3))
        bad = responses[2]
        assert bad.status == "quarantined"
        assert bad.reason == "non-finite"
        assert bad.label == QUARANTINED_LABEL
        assert registry.counter("serve.quarantined").value == 1
        assert registry.counter("serve.answered").value == 3

    def test_shard_failure_rows_fan_out_as_failed(self):
        runner = _ScriptedRunner(behavior="partial")

        async def scenario():
            policy = ServePolicy(max_batch=2, deadline_ms=500.0)
            async with MicroBatchServer(runner, policy) as server:
                return await server.submit_many(np.zeros((2,) + SHAPE))

        responses = asyncio.run(scenario())
        assert responses[0].status == "failed"
        assert responses[0].reason == "shard-failed"
        assert responses[0].label == QUARANTINED_LABEL
        assert responses[1].ok and responses[1].label == 2


class TestFailurePaths:
    def test_circuit_open_fails_batch_and_daemon_survives(self):
        runner = _ScriptedRunner(behavior="circuit")
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=2, deadline_ms=100.0)
            async with MicroBatchServer(runner, policy) as server:
                failed = await asyncio.gather(
                    server.submit(np.zeros(SHAPE)), server.submit(np.zeros(SHAPE))
                )
                runner.behavior = "ok"  # breaker recovery: next batch serves
                recovered = await server.submit(np.zeros(SHAPE))
                return failed, recovered

        with using_registry(registry):
            failed, recovered = asyncio.run(scenario())
        assert all(r.status == "failed" and r.reason == "circuit-open" for r in failed)
        assert all(r.label == QUARANTINED_LABEL and r.scores is None for r in failed)
        assert recovered.ok and recovered.label == 2
        assert registry.counter("serve.breaker_trips").value == 1
        assert registry.counter("serve.failed").value == 2
        assert registry.counter("serve.answered").value == 1

    def test_unexpected_exception_answers_instead_of_killing_daemon(self):
        runner = _ScriptedRunner(behavior="boom")

        async def scenario():
            policy = ServePolicy(max_batch=1, deadline_ms=100.0)
            async with MicroBatchServer(runner, policy) as server:
                failed = await server.submit(np.zeros(SHAPE))
                runner.behavior = "ok"
                recovered = await server.submit(np.zeros(SHAPE))
                return failed, recovered

        failed, recovered = asyncio.run(scenario())
        assert failed.status == "failed" and failed.reason == "OSError"
        assert recovered.ok


class TestDrain:
    def test_drain_answers_pending_then_refuses(self):
        runner = _ScriptedRunner()
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=64, deadline_ms=10_000.0)
            server = await MicroBatchServer(runner, policy).start()
            pending = [
                asyncio.ensure_future(server.submit(np.zeros(SHAPE)))
                for _ in range(3)
            ]
            await asyncio.sleep(0)  # enqueue all three, deadline far away
            await server.drain()
            answered = [f.result() for f in pending]
            with pytest.raises(RuntimeError, match="not started"):
                await server.submit(np.zeros(SHAPE))
            await server.drain()  # idempotent
            return answered

        with using_registry(registry):
            answered = asyncio.run(scenario())
        assert [r.status for r in answered] == ["ok"] * 3
        assert answered[0].batch_size == 3
        assert registry.counter("serve.flush.partial").value == 1
        assert registry.gauge("serve.queue_depth").value == 0.0


class TestServeTCP:
    def test_json_round_trip_and_malformed_line(self, engine):
        samples = _samples(2, seed=4)
        expected = engine.predict(samples)

        async def scenario():
            policy = ServePolicy(max_batch=4, deadline_ms=30.0)
            with ResilientBatchRunner(engine, policy=FAST, workers=1) as runner:
                async with MicroBatchServer(runner, policy) as server:
                    tcp = await serve_tcp(server, host="127.0.0.1", port=0)
                    port = tcp.sockets[0].getsockname()[1]
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    out = []
                    for sample in samples:
                        request = {"levels": sample.tolist(), "scores": True}
                        writer.write((json.dumps(request) + "\n").encode())
                        await writer.drain()
                        out.append(json.loads(await reader.readline()))
                    writer.write(b"this is not json\n")
                    await writer.drain()
                    out.append(json.loads(await reader.readline()))
                    writer.close()
                    await writer.wait_closed()
                    tcp.close()
                    await tcp.wait_closed()
                    return out

        first, second, err = asyncio.run(scenario())
        assert [first["status"], second["status"]] == ["ok", "ok"]
        assert [first["label"], second["label"]] == list(expected)
        assert len(first["scores"]) == 3
        assert first["latency_ms"] >= 0.0 and first["batch_size"] >= 1
        assert err["status"] == "bad_request" and err["reason"]


class TestSLOAccounting:
    def test_ok_failed_and_quarantined_requests_hit_the_right_buckets(self):
        """Served rows are good, failed rows burn budget, quarantined
        rows are client errors that never touch availability."""
        runner = _ScriptedRunner(behavior="partial")
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=4, deadline_ms=200.0)
            async with MicroBatchServer(runner, policy) as server:
                responses = await server.submit_many(np.zeros((3,) + SHAPE))
                return responses, server.slo.state()

        with using_registry(registry):
            responses, state = asyncio.run(scenario())
        statuses = sorted(r.status for r in responses)
        assert statuses == ["failed", "ok", "ok"]
        assert state["events"] == 3  # quarantine would be excluded here
        assert state["failures"] == 1
        assert registry.gauge("slo.failures").value == 1

    def test_shed_request_burns_budget_and_gauges_publish(self):
        runner = _ScriptedRunner()
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=4, deadline_ms=200.0)
            async with MicroBatchServer(runner, policy) as server:
                await server.submit(np.zeros(SHAPE))
                server._closing = True  # draining: next arrival is shed
                shed = await server.submit(np.zeros(SHAPE))
                server._closing = False
                return server.slo.state(), shed

        with using_registry(registry):
            state, shed = asyncio.run(scenario())
        assert shed.status == "rejected"
        assert state["events"] == 2
        assert state["failures"] == 1
        assert state["bad_events"] >= 1
        # publish() ran at batch completion: slo.* gauges are live.
        assert registry.gauge("slo.events").value >= 1

    def test_server_accepts_explicit_slo_and_tracker(self):
        from repro.obs.slo import SLO, SLOTracker

        runner = _ScriptedRunner()
        slo = SLO(p99_ms=5.0, availability=0.95)
        server = MicroBatchServer(runner, slo=slo)
        assert server.slo.slo == slo
        tracker = SLOTracker(slo)
        assert MicroBatchServer(runner, slo=tracker).slo is tracker


class TestAdminPlane:
    def test_admin_snapshot_shape(self):
        runner = _ScriptedRunner()
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=2, deadline_ms=100.0)
            async with MicroBatchServer(runner, policy) as server:
                await server.submit_many(np.zeros((2,) + SHAPE))
                return server.admin_snapshot()

        with using_registry(registry):
            snap = asyncio.run(scenario())
        assert snap["queue_depth"] == 0
        assert snap["inflight"] == 0
        assert snap["draining"] is False
        assert snap["policy"]["max_batch"] == 2
        assert snap["counters"]["serve.answered"] == 2
        assert "serve.latency" in snap["stages"]
        assert 0.0 <= snap["slo"]["budget_remaining"] <= 1.0

    @pytest.mark.parametrize("cc", ["default", "off"])
    def test_engine_block_names_mode_and_conv_backend(self, cc, monkeypatch):
        """The snapshot and ``repro top`` say which engine answers: the
        compiled conv by default, the NumPy matcher with its reason when
        ``REPRO_CC=0`` turns it off."""
        from repro.cli import _render_top
        from repro.vsa.kernels_cc import reset_cc

        if cc == "off":
            monkeypatch.setenv("REPRO_CC", "0")
        reset_cc()
        served = BitPackedUniVSA(
            extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, seed=0)), mode="fused"
        )
        reset_cc()
        if cc == "default" and served.conv_backend != "cc":
            pytest.skip(f"no compiled conv here: {served.conv_unavailable_reason}")

        async def scenario():
            with ResilientBatchRunner(served, policy=FAST, workers=1) as runner:
                async with MicroBatchServer(runner, ServePolicy()) as server:
                    await server.submit(_samples(1, seed=40)[0])
                    return server.admin_snapshot()

        with using_registry(MetricsRegistry()):
            snap = asyncio.run(scenario())
        frame = _render_top(snap)
        if cc == "default":
            assert snap["engine"] == {
                "mode": "fused",
                "conv_backend": "cc",
                "cc_conv_unavailable_reason": None,
            }
            assert "fused / cc" in frame
        else:
            assert snap["engine"]["mode"] == "fused"
            assert snap["engine"]["conv_backend"] == "numpy"
            reason = snap["engine"]["cc_conv_unavailable_reason"]
            assert "REPRO_CC" in reason
            assert f"fused / numpy ({reason})" in frame

    def test_metrics_and_health_ops_over_tcp(self, engine):
        """The NDJSON front end answers admin ops inline — including the
        Prometheus format and an unknown-op error — without queueing."""
        from repro.obs.slo import SLO

        sample = _samples(1, seed=6)[0]
        # A generous p99 target keeps the assertion deterministic on a
        # loaded machine: one fast request must leave the budget whole.
        slo = SLO(p99_ms=60_000.0, availability=0.5)

        async def scenario():
            policy = ServePolicy(max_batch=4, deadline_ms=30.0)
            with ResilientBatchRunner(engine, policy=FAST, workers=1) as runner:
                async with MicroBatchServer(runner, policy, slo=slo) as server:
                    tcp = await serve_tcp(server, host="127.0.0.1", port=0)
                    port = tcp.sockets[0].getsockname()[1]
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)

                    async def ask(payload):
                        writer.write((json.dumps(payload) + "\n").encode())
                        await writer.drain()
                        return json.loads(await reader.readline())

                    served = await ask({"levels": sample.tolist()})
                    metrics = await ask({"op": "metrics"})
                    prom = await ask({"op": "metrics", "format": "prom"})
                    health = await ask({"op": "health"})
                    unknown = await ask({"op": "selfdestruct"})
                    writer.close()
                    await writer.wait_closed()
                    tcp.close()
                    await tcp.wait_closed()
                    return served, metrics, prom, health, unknown

        with using_registry(MetricsRegistry()):
            served, metrics, prom, health, unknown = asyncio.run(scenario())
        assert served["status"] == "ok"
        assert metrics["status"] == "ok" and metrics["op"] == "metrics"
        assert metrics["counters"]["serve.answered"] == 1
        assert "serve.latency" in metrics["stages"]
        assert metrics["slo"]["events"] == 1
        assert "queue_depth" in metrics
        assert "repro_serve_answered_total 1" in prom["prom"]
        assert health["status"] == "ok" and health["healthy"] is True
        assert health["budget_remaining"] == pytest.approx(1.0)
        assert unknown["status"] == "error"
        assert "selfdestruct" in unknown["reason"]

    def test_admin_requests_never_touch_the_queue(self):
        """Admin ops on a draining (rejecting) server still answer."""
        from repro.runtime.serve import _admin_response

        runner = _ScriptedRunner()

        async def scenario():
            async with MicroBatchServer(runner) as server:
                server._closing = True
                out = _admin_response(server, {"op": "health"})
                server._closing = False
                return out

        with using_registry(MetricsRegistry()):
            out = asyncio.run(scenario())
        assert out["healthy"] is False and out["draining"] is True


class TestNetPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_line_bytes"):
            NetPolicy(max_line_bytes=8)
        with pytest.raises(ValueError, match="read_timeout_s"):
            NetPolicy(read_timeout_s=-1.0)
        with pytest.raises(ValueError, match="max_connections"):
            NetPolicy(max_connections=0)

    def test_from_env_reads_all_knobs_and_survives_garbage(self):
        net = NetPolicy.from_env(
            {
                "REPRO_SERVE_MAX_LINE": "4096",
                "REPRO_SERVE_READ_TIMEOUT_S": "1.5",
                "REPRO_SERVE_MAX_CONNS": "3",
            }
        )
        assert net == NetPolicy(max_line_bytes=4096, read_timeout_s=1.5, max_connections=3)
        assert NetPolicy.from_env({"REPRO_SERVE_MAX_LINE": "huge"}) == NetPolicy()


class TestHardenedFrontEnd:
    """Satellite: every abusive client is answered (or cut off) without
    ever crashing a handler, and the daemon keeps serving well-formed
    requests afterwards."""

    def _scenario(self, engine, net, driver):
        """Run ``driver(port)`` against a live TCP front end; returns
        (driver result, registry)."""
        registry = MetricsRegistry()

        async def run():
            policy = ServePolicy(max_batch=4, deadline_ms=30.0)
            with ResilientBatchRunner(engine, policy=FAST, workers=1) as runner:
                async with MicroBatchServer(runner, policy) as server:
                    tcp = await serve_tcp(server, host="127.0.0.1", port=0, net=net)
                    port = tcp.sockets[0].getsockname()[1]
                    try:
                        return await driver(port)
                    finally:
                        tcp.close()
                        await tcp.wait_closed()

        with using_registry(registry):
            result = asyncio.run(run())
        return result, registry

    def test_garbage_inputs_answer_bad_request_then_daemon_still_serves(self, engine):
        sample = _samples(1, seed=7)[0]
        expected = engine.predict(sample[None])[0]
        abusive = [
            b"this is not json\n",
            b"\x00\xff\xfe binary garbage \x80\x81\n",
            b"[1, 2, 3]\n",  # JSON but not an object
            b'{"neither_levels_nor_op": 1}\n',
            b'{"levels": [["a", "b"], ["c", "d"]]}\n',  # non-numeric
            b'{"levels": [1, 2, 3]}\n',  # wrong shape for the engine
            b'{"levels": {"nested": "junk"}}\n',
        ]

        async def driver(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            answers = []
            for line in abusive:
                writer.write(line)
                await writer.drain()
                answers.append(json.loads(await reader.readline()))
            # the same connection still serves a real request afterwards
            writer.write((json.dumps({"levels": sample.tolist()}) + "\n").encode())
            await writer.drain()
            answers.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return answers

        answers, registry = self._scenario(engine, NetPolicy(), driver)
        *bad, good = answers
        assert [b["status"] for b in bad] == ["bad_request"] * len(abusive)
        assert all(b["reason"] for b in bad)
        assert good["status"] == "ok" and good["label"] == expected
        assert registry.counter("serve.net.bad_requests").value == len(abusive)
        # client abuse never burns the server's SLO error budget
        assert registry.gauge("slo.failures").value == 0

    def test_oversized_line_answered_then_connection_dropped(self, engine):
        sample = _samples(1, seed=8)[0]
        net = NetPolicy(max_line_bytes=256)

        async def driver(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"levels": [' + b"1," * 4096 + b"1]}\n")
            await writer.drain()
            answer = json.loads(await reader.readline())
            trailing = await reader.read()  # server closes after answering
            writer.close()
            await writer.wait_closed()
            # a fresh connection is unaffected
            reader2, writer2 = await asyncio.open_connection("127.0.0.1", port)
            writer2.write((json.dumps({"levels": sample.tolist()}) + "\n").encode())
            await writer2.drain()
            good = json.loads(await reader2.readline())
            writer2.close()
            await writer2.wait_closed()
            return answer, trailing, good

        (answer, trailing, good), registry = self._scenario(engine, net, driver)
        assert answer["status"] == "bad_request" and "256" in answer["reason"]
        assert trailing == b""
        assert good["status"] == "ok"
        assert registry.counter("serve.net.oversized").value == 1

    def test_mid_request_disconnect_is_counted_and_survived(self, engine):
        sample = _samples(1, seed=9)[0]

        async def driver(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"levels": [[1, 2')  # no newline: mid-request
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)  # let the handler observe the EOF
            reader2, writer2 = await asyncio.open_connection("127.0.0.1", port)
            writer2.write((json.dumps({"levels": sample.tolist()}) + "\n").encode())
            await writer2.drain()
            good = json.loads(await reader2.readline())
            writer2.close()
            await writer2.wait_closed()
            return good

        good, registry = self._scenario(engine, NetPolicy(), driver)
        assert good["status"] == "ok"
        assert registry.counter("serve.net.disconnects").value == 1

    def test_admin_and_inference_interleave_on_one_connection(self, engine):
        """Pipelined inference + admin lines on a single connection are
        answered in order, the admin ops without touching the queue."""
        samples = _samples(2, seed=10)
        expected = list(engine.predict(samples))

        async def driver(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            lines = [
                {"levels": samples[0].tolist()},
                {"op": "health"},
                {"levels": samples[1].tolist()},
                {"op": "metrics"},
            ]
            # pipeline: write everything before reading anything
            writer.write("".join(json.dumps(l) + "\n" for l in lines).encode())
            await writer.drain()
            answers = [json.loads(await reader.readline()) for _ in lines]
            writer.close()
            await writer.wait_closed()
            return answers

        answers, _ = self._scenario(engine, NetPolicy(), driver)
        first, health, second, metrics = answers
        assert [first["label"], second["label"]] == expected
        assert health["op"] == "health" and health["healthy"] is True
        assert metrics["op"] == "metrics"
        assert metrics["counters"]["serve.answered"] >= 1

    def test_connection_cap_rejects_excess_connections(self, engine):
        sample = _samples(1, seed=11)[0]
        net = NetPolicy(max_connections=1)

        async def driver(port):
            reader1, writer1 = await asyncio.open_connection("127.0.0.1", port)
            # hold the first connection open with a request so it is
            # definitely admitted before the second arrives
            writer1.write((json.dumps({"levels": sample.tolist()}) + "\n").encode())
            await writer1.drain()
            first = json.loads(await reader1.readline())
            reader2, writer2 = await asyncio.open_connection("127.0.0.1", port)
            rejected = json.loads(await reader2.readline())
            assert await reader2.read() == b""  # server closed it
            writer2.close()
            await writer2.wait_closed()
            writer1.close()
            await writer1.wait_closed()
            await asyncio.sleep(0.05)  # let the slot free up
            reader3, writer3 = await asyncio.open_connection("127.0.0.1", port)
            writer3.write((json.dumps({"levels": sample.tolist()}) + "\n").encode())
            await writer3.drain()
            third = json.loads(await reader3.readline())
            writer3.close()
            await writer3.wait_closed()
            return first, rejected, third

        (first, rejected, third), registry = self._scenario(engine, net, driver)
        assert first["status"] == "ok"
        assert rejected == {"status": "rejected", "reason": "connection-limit"}
        assert third["status"] == "ok"
        assert registry.counter("serve.net.rejected_connections").value == 1

    def test_slow_loris_connection_times_out(self, engine):
        net = NetPolicy(read_timeout_s=0.1)

        async def driver(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"levels"')  # start a line, then stall
            await writer.drain()
            cut_off = await reader.read()  # server cuts us off
            writer.close()
            await writer.wait_closed()
            return cut_off

        cut_off, registry = self._scenario(engine, net, driver)
        assert cut_off == b""
        assert registry.counter("serve.net.timeouts").value == 1


class TestSelfHealingServing:
    def test_scrub_loop_repairs_chaos_corruption_and_answers_stay_exact(self):
        """Under ``corrupt`` chaos the periodic scrubber detects the
        resident bit flips and hot-repairs the engine from its pristine
        copy; after a quiet (no-corruption) scrub the answers are
        bit-identical to inline inference again."""
        # private engine: chaos flips its resident memory in place, so the
        # shared module fixture must not be the victim
        engine = BitPackedUniVSA(
            extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, seed=0))
        )
        samples = _samples(8, seed=12)
        expected = list(engine.predict(samples))
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=8, deadline_ms=30.0)
            with ResilientBatchRunner(
                engine, policy=FAST, workers=1,
                chaos=ChaosSpec(corrupt_rate=1.0, seed=5),
            ) as runner:
                scrubber = IntegrityScrubber(runner)
                async with MicroBatchServer(
                    runner, policy, scrubber=scrubber, scrub_interval_s=0
                ) as server:
                    # every batch corrupts resident memory afterwards
                    await server.submit_many(samples)
                    report = await server.scrub()
                    assert report.corrupted and report.repaired
                    # disarm chaos, then verify clean answers post-repair
                    runner.chaos = ChaosSpec()
                    clean = await server.scrub()
                    assert clean.clean
                    responses = await server.submit_many(samples)
                    snap = server.admin_snapshot()
                    return responses, snap

        with using_registry(registry):
            responses, snap = asyncio.run(scenario())
        assert [r.label for r in responses] == expected
        assert registry.counter("integrity.corruptions").value >= 1
        assert registry.counter("integrity.repairs").value >= 1
        assert snap["integrity"]["last"]["corrupted"] == []
        assert registry.counter("integrity.scrubs").value == 2

    def test_scrub_op_and_health_scrub_clean_over_tcp(self, engine):
        async def scenario():
            policy = ServePolicy(max_batch=4, deadline_ms=30.0)
            with ResilientBatchRunner(engine, policy=FAST, workers=1) as runner:
                scrubber = IntegrityScrubber(runner)
                async with MicroBatchServer(
                    runner, policy, scrubber=scrubber, scrub_interval_s=0
                ) as server:
                    tcp = await serve_tcp(server, host="127.0.0.1", port=0)
                    port = tcp.sockets[0].getsockname()[1]
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)

                    async def ask(payload):
                        writer.write((json.dumps(payload) + "\n").encode())
                        await writer.drain()
                        return json.loads(await reader.readline())

                    scrub = await ask({"op": "scrub"})
                    health = await ask({"op": "health"})
                    writer.close()
                    await writer.wait_closed()
                    tcp.close()
                    await tcp.wait_closed()
                    return scrub, health

        with using_registry(MetricsRegistry()):
            scrub, health = asyncio.run(scenario())
        assert scrub["status"] == "ok" and scrub["op"] == "scrub"
        assert scrub["corrupted"] == [] and scrub["scanned"] > 0
        assert health["scrub_clean"] is True

    def test_scrub_op_without_scrubber_answers_error(self):
        runner = _ScriptedRunner()

        async def scenario():
            async with MicroBatchServer(runner, ServePolicy()) as server:
                tcp = await serve_tcp(server, host="127.0.0.1", port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b'{"op": "scrub"}\n')
                await writer.drain()
                out = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                return out

        with using_registry(MetricsRegistry()):
            out = asyncio.run(scenario())
        assert out["status"] == "error" and "scrubber" in out["reason"]


class TestChaosServing:
    def test_injected_shard_raise_does_not_change_answers(self, engine):
        """A first-attempt ChaosError on shard 0 of every micro-batch is
        retried away; served labels stay bit-identical to the engine."""
        samples = _samples(12, seed=5)
        expected = engine.predict(samples)
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=4, deadline_ms=500.0)
            with ResilientBatchRunner(
                engine,
                shard_size=2,
                workers=2,
                policy=FAST,
                chaos=ChaosSpec(raise_on=frozenset({(0, 0)})),
            ) as runner:
                async with MicroBatchServer(runner, policy) as server:
                    return await server.submit_many(samples)

        with using_registry(registry):
            responses = asyncio.run(scenario())
        assert [r.status for r in responses] == ["ok"] * 12
        assert [r.label for r in responses] == list(expected)
        assert registry.counter("resilience.retries").value >= 1


class _GatedRunner:
    """Scripted runner whose batches block on per-ordinal gates, so tests
    control exactly when each pipelined batch's compute finishes."""

    def __init__(self, chaos=None):
        self.engine = _FakeEngine()
        self.chaos = chaos
        self.gates = [threading.Event() for _ in range(8)]
        self.started = []
        self._lock = threading.Lock()
        self._running = 0
        self.concurrent_max = 0

    def run(self, levels):
        with self._lock:
            ordinal = len(self.started)
            self.started.append(len(levels))
            self._running += 1
            self.concurrent_max = max(self.concurrent_max, self._running)
        try:
            assert self.gates[ordinal].wait(timeout=10.0), "gate never opened"
            n = len(levels)
            return BatchResult(
                scores=np.tile(np.arange(3.0), (n, 1)),
                # label = batch ordinal, so fan-out order is observable
                predictions=np.full(n, ordinal, dtype=np.int64),
                report=BatchReport(batch=n),
            )
        finally:
            with self._lock:
                self._running -= 1


class TestPipelinedServing:
    """max_inflight > 1: overlapped execution, FIFO fan-out, back
    pressure, barrier-serialized scrubs, corrupt-chaos slot pinning."""

    def _policy(self, **kw):
        kw.setdefault("max_batch", 1)
        kw.setdefault("deadline_ms", 5000.0)
        return ServePolicy(**kw)

    def test_batches_overlap_and_fan_out_fifo(self):
        runner = _GatedRunner()
        registry = MetricsRegistry()
        order = []

        async def scenario():
            async with MicroBatchServer(
                runner, self._policy(max_inflight=2)
            ) as server:
                tasks = []
                for i in range(2):
                    task = asyncio.ensure_future(server.submit(_samples(1, seed=i)[0]))
                    task.add_done_callback(lambda _t, i=i: order.append(i))
                    tasks.append(task)
                # both batches must be *executing concurrently*
                for _ in range(200):
                    if len(runner.started) == 2:
                        break
                    await asyncio.sleep(0.01)
                assert len(runner.started) == 2, "second batch never dispatched"
                assert server.inflight_batches == 2
                # finish batch 1 first: FIFO fan-out must still hold it
                # behind batch 0
                runner.gates[1].set()
                await asyncio.sleep(0.05)
                assert not tasks[1].done(), "batch 1 fanned out before batch 0"
                runner.gates[0].set()
                return await asyncio.gather(*tasks)

        with using_registry(registry):
            responses = asyncio.run(scenario())
        assert runner.concurrent_max == 2
        assert order == [0, 1]
        assert [r.label for r in responses] == [0, 1]
        assert registry.gauge("serve.pipeline.inflight_max").value == 2.0
        assert registry.gauge("serve.pipeline.slots").value == 2.0
        assert registry.counter("serve.pipeline.dispatched").value == 2

    def test_max_inflight_one_serializes(self):
        runner = _GatedRunner()
        for gate in runner.gates:
            gate.set()  # nothing blocks; we only watch concurrency

        async def scenario():
            async with MicroBatchServer(
                runner, self._policy(max_inflight=1)
            ) as server:
                return await server.submit_many(_samples(6, seed=3))

        with using_registry(MetricsRegistry()):
            responses = asyncio.run(scenario())
        assert all(r.ok for r in responses)
        assert runner.concurrent_max == 1

    def test_backpressure_holds_dispatch_at_the_cap(self):
        runner = _GatedRunner()

        async def scenario():
            async with MicroBatchServer(
                runner, self._policy(max_inflight=2)
            ) as server:
                tasks = [
                    asyncio.ensure_future(server.submit(_samples(1, seed=i)[0]))
                    for i in range(3)
                ]
                for _ in range(200):
                    if len(runner.started) == 2:
                        break
                    await asyncio.sleep(0.01)
                # the third batch must NOT start while two fill the pipe
                await asyncio.sleep(0.05)
                assert len(runner.started) == 2
                for gate in runner.gates:
                    gate.set()
                return await asyncio.gather(*tasks)

        with using_registry(MetricsRegistry()):
            responses = asyncio.run(scenario())
        assert [r.label for r in responses] == [0, 1, 2]

    @pytest.mark.parametrize("k", [3, 6])
    def test_arrivals_behind_busy_slots_ride_one_batch_fifo(self, k):
        """Batches grow only while every slot is busy: k arrivals queued
        behind two held slots leave as one batch of min(k, max_batch)
        once a slot frees, and every answer still fans out FIFO."""
        block = threading.Event()
        runner = _ScriptedRunner(block=block)
        registry = MetricsRegistry()
        order = []

        async def until(predicate):
            for _ in range(200):
                if predicate():
                    return
                await asyncio.sleep(0.01)
            raise AssertionError("condition never held")

        async def scenario():
            policy = self._policy(max_batch=4, max_inflight=2)
            async with MicroBatchServer(runner, policy) as server:

                def submit(i):
                    task = asyncio.ensure_future(server.submit(_samples(1, seed=i)[0]))
                    task.add_done_callback(lambda _t: order.append(i))
                    return task

                # a two-request burst takes one slot; a lone arrival
                # behind it takes the other
                held = [submit(0), submit(1)]
                await until(lambda: len(runner.batch_sizes) == 1)
                held.append(submit(2))
                await until(lambda: len(runner.batch_sizes) == 2)
                queued = [submit(3 + i) for i in range(k)]
                await until(lambda: server.queue_depth == k)
                await asyncio.sleep(0.05)
                assert len(runner.batch_sizes) == 2, "dispatched past the cap"
                block.set()
                return await asyncio.gather(*held, *queued)

        with using_registry(registry):
            responses = asyncio.run(scenario())
        first = min(k, 4)
        assert [r.batch_size for r in responses] == (
            [2, 2, 1] + [first] * first + [k - first] * (k - first)
        )
        assert all(r.ok for r in responses)
        assert order == list(range(3 + k))
        assert registry.counter("serve.flush.full").value == (1 if k >= 4 else 0)
        assert registry.counter("serve.flush.partial").value == 3
        assert registry.counter("serve.pipeline.inline").value == 0

    def test_scrub_waits_for_pipeline_barrier(self):
        runner = _GatedRunner()
        events = []

        class _FakeScrubber:
            def scrub(self):
                events.append("scrub")
                return "scrubbed"

        registry = MetricsRegistry()

        async def scenario():
            async with MicroBatchServer(
                runner,
                self._policy(max_inflight=2),
                scrubber=_FakeScrubber(),
                scrub_interval_s=0,
            ) as server:
                # a two-request burst occupies both slots
                submits = [
                    asyncio.ensure_future(server.submit(_samples(1, seed=i)[0]))
                    for i in range(2)
                ]
                for _ in range(200):
                    if len(runner.started) == 2:
                        break
                    await asyncio.sleep(0.01)
                scrub = asyncio.ensure_future(server.scrub())
                await asyncio.sleep(0.05)
                # both batches still executing: the scrub must be parked
                # at the barrier, not running
                assert not scrub.done() and events == []
                runner.gates[0].set()
                await asyncio.sleep(0.05)
                # batch 1 still executing: still parked
                assert not scrub.done() and events == []
                runner.gates[1].set()
                report = await scrub
                events.append("released")
                # dispatch reopens after the barrier: serving continues
                runner.gates[2].set()
                follow_up = await server.submit(_samples(1, seed=9)[0])
                return await asyncio.gather(*submits), report, follow_up

        with using_registry(registry):
            firsts, report, follow_up = asyncio.run(scenario())
        assert all(r.ok for r in firsts) and follow_up.ok
        assert report == "scrubbed"
        assert events == ["scrub", "released"]
        assert registry.counter("serve.pipeline.barriers").value == 1

    def test_corrupt_chaos_pins_pipeline_to_one_slot(self):
        runner = _GatedRunner(chaos=ChaosSpec(corrupt_rate=0.5))
        for gate in runner.gates:
            gate.set()

        async def scenario():
            async with MicroBatchServer(
                runner, self._policy(max_inflight=2)
            ) as server:
                return server._slots

        with using_registry(MetricsRegistry()):
            assert asyncio.run(scenario()) == 1


class _ThreadRecordingEngine(BitPackedUniVSA):
    """The daemon's fused engine, noting which thread runs each call."""

    def scores(self, levels):
        self.threads.append(threading.current_thread())
        return super().scores(levels)


class _BrokenEngine(BitPackedUniVSA):
    """A fused engine whose every call raises: the runner's ladder must
    retry it, then fall back to the legacy sibling."""

    def scores(self, levels):
        self.threads.append(threading.current_thread())
        raise RuntimeError("engine on fire")


def _recording(cls, mode="fused"):
    engine = cls(extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, seed=0)), mode=mode)
    engine.threads = []
    return engine


class TestInlineServing:
    """A lone request on an idle pipeline is answered on the event loop;
    everything else still goes through the slots."""

    def test_lone_request_never_touches_the_serve_executor(self, engine):
        served = _recording(_ThreadRecordingEngine)
        sample = _samples(1, seed=20)[0]
        expected = engine.scores(sample[None])[0]
        registry = MetricsRegistry()

        async def scenario():
            with ResilientBatchRunner(served, policy=FAST, workers=1) as runner:
                async with MicroBatchServer(runner, ServePolicy()) as server:
                    responses = [await server.submit(sample) for _ in range(3)]
                    return responses, threading.current_thread()

        with using_registry(registry):
            responses, loop_thread = asyncio.run(scenario())
        assert served.threads == [loop_thread] * 3
        for response in responses:
            assert response.ok and response.batch_size == 1
            np.testing.assert_array_equal(response.scores, expected)
        assert registry.counter("serve.pipeline.inline").value == 3
        assert registry.counter("serve.pipeline.dispatched").value == 0
        assert registry.counter("serve.batches").value == 3
        assert registry.histogram("serve.batch").count == 3

    def test_lone_arrival_behind_an_inflight_batch_takes_a_slot_fifo(self):
        runner = _GatedRunner()
        registry = MetricsRegistry()
        order = []

        async def scenario():
            policy = ServePolicy(max_batch=2, deadline_ms=5000.0, max_inflight=2)
            async with MicroBatchServer(runner, policy) as server:

                def submit(i):
                    task = asyncio.ensure_future(server.submit(_samples(1, seed=i)[0]))
                    task.add_done_callback(lambda _t: order.append(i))
                    return task

                burst = [submit(0), submit(1)]
                for _ in range(200):
                    if len(runner.started) == 1:
                        break
                    await asyncio.sleep(0.01)
                lone = submit(2)
                for _ in range(200):
                    if len(runner.started) == 2:
                        break
                    await asyncio.sleep(0.01)
                assert runner.started == [2, 1], "the lone arrival never got a slot"
                assert server.inflight_batches == 2
                # the lone batch finishes first but must answer second
                runner.gates[1].set()
                await asyncio.sleep(0.05)
                assert not lone.done(), "lone batch fanned out before its predecessor"
                runner.gates[0].set()
                return await asyncio.gather(*burst, lone)

        with using_registry(registry):
            responses = asyncio.run(scenario())
        assert order == [0, 1, 2]
        assert [r.label for r in responses] == [0, 0, 1]
        assert runner.concurrent_max == 2
        assert registry.counter("serve.pipeline.dispatched").value == 2
        assert registry.counter("serve.pipeline.inline").value == 0

    def test_failing_lone_request_runs_the_ladder_inline_and_serving_goes_on(
        self, engine
    ):
        broken = _recording(_BrokenEngine)
        samples = _samples(2, seed=21)
        expected = engine.scores(samples)
        registry = MetricsRegistry()

        async def scenario():
            with ResilientBatchRunner(broken, policy=FAST, workers=1) as runner:
                async with MicroBatchServer(runner, ServePolicy()) as server:
                    first = await server.submit(samples[0])
                    second = await server.submit(samples[1])
                    return first, second, threading.current_thread()

        with using_registry(registry):
            first, second, loop_thread = asyncio.run(scenario())
        # every attempt of both requests ran on the loop: 1 + max_retries each
        assert broken.threads == [loop_thread] * (2 * (1 + FAST.max_retries))
        for response, scores in zip((first, second), expected):
            assert response.ok
            np.testing.assert_array_equal(response.scores, scores)
        assert registry.counter("resilience.retries").value == 2 * FAST.max_retries
        assert registry.counter("resilience.fallbacks").value == 2
        assert registry.counter("serve.pipeline.inline").value == 2

    def test_corrupt_chaos_ordinals_are_reproducible_across_paths(self, monkeypatch):
        """Inline and slot batches draw corrupt-chaos ordinals from one
        counter in execution order, so serving corrupts exactly what an
        offline replay of those ordinals corrupts."""
        import repro.runtime.serve as serve_module

        spec = ChaosSpec(corrupt_rate=1.0, seed=5)
        seen = []
        real = serve_module.maybe_corrupt_resident

        def recording(engine, chaos, ordinal):
            applied = real(engine, chaos, ordinal)
            on_slot = threading.current_thread().name.startswith("repro-serve")
            seen.append((ordinal, on_slot, applied))
            return applied

        monkeypatch.setattr(serve_module, "maybe_corrupt_resident", recording)
        served = BitPackedUniVSA(
            extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, seed=0)), mode="fused"
        )
        registry = MetricsRegistry()

        async def scenario():
            policy = ServePolicy(max_batch=1, deadline_ms=5000.0)
            with ResilientBatchRunner(
                served, policy=FAST, workers=1, chaos=spec
            ) as runner:
                async with MicroBatchServer(runner, policy) as server:
                    await server.submit(_samples(1, seed=30)[0])
                    await server.submit_many(_samples(3, seed=31))
                    await server.submit(_samples(1, seed=32)[0])

        with using_registry(registry):
            asyncio.run(scenario())
        assert [ordinal for ordinal, _, _ in seen] == [0, 1, 2, 3, 4]
        # corrupt chaos pins one slot: the burst's last request finds the
        # pipeline idle and runs inline like the lone requests around it
        assert [on_slot for _, on_slot, _ in seen] == [False, True, True, False, False]
        assert registry.counter("serve.pipeline.inline").value == 3
        assert registry.counter("serve.pipeline.dispatched").value == 2
        replay = BitPackedUniVSA(
            extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, seed=0)), mode="fused"
        )
        assert [real(replay, spec, i) for i in range(5)] == [a for _, _, a in seen]
        for name, array in served.resident_operands().items():
            np.testing.assert_array_equal(
                array, replay.resident_operands()[name], err_msg=name
            )
