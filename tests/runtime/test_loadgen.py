"""Open-loop load generation: arrival traces, summaries, the bench."""

import asyncio

import numpy as np
import pytest

from repro.core import UniVSAConfig
from repro.data.registry import get_benchmark
from repro.runtime import (
    MicroBatchServer,
    ServePolicy,
    bench_serve,
    bursty_arrivals,
    client_arrivals,
    poisson_arrivals,
    run_open_loop,
)
from repro.runtime.loadgen import summarize_point
from repro.runtime.serve import ServeResponse


class TestArrivalTraces:
    def test_poisson_is_deterministic_sorted_and_bounded(self):
        a = poisson_arrivals(500.0, 2.0, seed=7)
        b = poisson_arrivals(500.0, 2.0, seed=7)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0.0)
        assert a.size and 0.0 <= a[0] and a[-1] < 2.0
        # mean count 1000; five-sigma bounds keep this deterministic-safe
        assert 800 < a.size < 1200
        assert not np.array_equal(a, poisson_arrivals(500.0, 2.0, seed=8))

    def test_poisson_degenerate_inputs_are_empty(self):
        assert poisson_arrivals(0.0, 1.0).size == 0
        assert poisson_arrivals(100.0, 0.0).size == 0

    def test_bursty_keeps_long_run_rate_and_bursts_locally(self):
        a = bursty_arrivals(400.0, 10.0, burst_factor=8.0, seed=3)
        np.testing.assert_array_equal(
            a, bursty_arrivals(400.0, 10.0, burst_factor=8.0, seed=3)
        )
        assert np.all(np.diff(a) >= 0.0)
        assert a.size == 0 or a[-1] < 10.0
        # long-run mean stays near the offered rate...
        assert 0.7 * 4000 < a.size < 1.3 * 4000
        # ...but the trace is burstier than Poisson: the busiest 50 ms
        # window carries well above the average window's share
        bins = np.histogram(a, bins=int(10.0 / 0.05), range=(0.0, 10.0))[0]
        assert bins.max() > 2.0 * bins.mean()

    def test_bursty_validates_shape_knobs(self):
        with pytest.raises(ValueError, match="burst_factor"):
            bursty_arrivals(100.0, 1.0, burst_factor=0.5)
        with pytest.raises(ValueError, match="burst_fraction"):
            bursty_arrivals(100.0, 1.0, burst_fraction=1.5)

    def test_client_merge_preserves_total_rate_and_sorts(self):
        merged = client_arrivals(600.0, 2.0, clients=6, seed=1)
        assert np.all(np.diff(merged) >= 0.0)
        assert 0.7 * 1200 < merged.size < 1.3 * 1200
        # independent per-client seeds: not just one stream repeated
        assert not np.array_equal(merged, client_arrivals(600.0, 2.0, clients=1, seed=1))

    def test_client_merge_rejects_unknown_trace(self):
        with pytest.raises(ValueError, match="unknown trace"):
            client_arrivals(10.0, 1.0, trace="diurnal")


def _response(status="ok", label=1, latency_s=0.01, batch_size=4, reason=""):
    return ServeResponse(
        status=status,
        label=label,
        scores=None,
        latency_s=latency_s,
        batch_size=batch_size,
        reason=reason,
    )


class TestSummarizePoint:
    def test_counts_percentiles_and_mismatches(self):
        reference = np.array([1, 2])  # what the engine says for bank rows 0/1
        truth = np.array([1, 0])  # ground truth: row 1's engine answer is wrong
        responses = [
            _response(label=1, latency_s=0.010),  # k=0 -> ref 1: match, correct
            _response(label=2, latency_s=0.020),  # k=1 -> ref 2: match, wrong class
            _response(label=2, latency_s=0.030),  # k=2 -> ref 1: MISMATCH
            _response(status="rejected", label=-1, latency_s=0.0),
            _response(status="quarantined", label=-1, latency_s=0.005),
            _response(status="failed", label=-1, latency_s=0.005),
        ]
        point = summarize_point("x2", 100.0, 1.0, responses, 2.0, reference, truth)
        assert (point.sent, point.accepted, point.rejected) == (6, 5, 1)
        assert (point.answered, point.quarantined, point.failed) == (3, 1, 1)
        assert point.goodput_per_s == pytest.approx(1.5)  # 3 ok / 2 s wall
        assert point.p50_ms == pytest.approx(20.0)
        assert point.max_ms == pytest.approx(30.0)
        assert point.mismatches == 1
        assert point.accuracy == pytest.approx(1 / 3)  # k=0 correct of 3 ok
        assert point.mean_batch == pytest.approx(4.0)

    def test_empty_run_is_all_zeros(self):
        point = summarize_point("x1", 10.0, 1.0, [], 1.0, np.array([0]), np.array([0]))
        assert point.sent == 0 and point.goodput_per_s == 0.0
        assert point.p99_ms == 0.0 and point.accuracy == 0.0


class _FakeEngine:
    input_shape = (3,)
    n_levels = 4


class _EchoRunner:
    """Labels each sample with its own first level — order is observable."""

    engine = _FakeEngine()

    def run(self, levels):
        from repro.runtime.resilience import BatchReport, BatchResult

        n = len(levels)
        predictions = np.asarray(levels)[:, 0].astype(np.int64)
        return BatchResult(
            scores=np.zeros((n, 4)),
            predictions=predictions,
            report=BatchReport(batch=n),
        )


class TestOpenLoop:
    def test_responses_come_back_in_arrival_order(self):
        bank = np.arange(12, dtype=np.int64).reshape(4, 3) % 4  # sample k -> level k%4

        async def scenario():
            policy = ServePolicy(max_batch=4, deadline_ms=50.0)
            async with MicroBatchServer(_EchoRunner(), policy) as server:
                arrivals = np.linspace(0.0, 0.05, 10)
                return await run_open_loop(server, bank, arrivals)

        responses, wall = asyncio.run(scenario())
        assert len(responses) == 10
        assert wall >= 0.05
        expected = [int(bank[k % 4][0]) for k in range(10)]
        assert [r.label for r in responses] == expected


class TestBenchServe:
    def test_smoke_sweep_reports_curve_and_ledger_metrics(self):
        benchmark = "bci-iii-v"
        config = UniVSAConfig.from_paper_tuple(
            (4, 1, 3, 16, 1), levels=get_benchmark(benchmark).levels
        )
        report = bench_serve(
            benchmark,
            absolute_rates=(300.0,),
            duration_s=0.4,
            clients=2,
            policy=ServePolicy(max_batch=16, deadline_ms=50.0, max_queue=64),
            config=config,
            n_train=24,
            n_test=12,
            epochs=1,
        )
        assert report.mismatches == 0, "served labels must be bit-identical to inline"
        assert len(report.points) == 1
        point = report.points[0]
        assert point.label == "r300" and point.sent > 0
        assert point.answered + point.rejected + point.quarantined + point.failed == (
            point.sent
        )
        assert report.inline_per_s > 0 and report.unbatched_per_s > 0
        metrics = report.ledger_metrics()
        for key in (
            "inline_per_s",
            "unbatched_per_s",
            "serve_goodput_per_s",
            "goodput_vs_inline",
            "goodput_vs_unbatched",
            "serve_p99_ms",
            "serve_mismatches",
            "goodput_per_s_r300",
            "p99_ms_r300",
            "rejected_r300",
        ):
            assert key in metrics, key
        # serve.* instruments were exercised and harvested into the registry
        assert report.registry.counter("serve.requests").value == point.sent
        text = report.render()
        assert "latency / goodput vs offered load" in text
        assert "unbatched server" in text
