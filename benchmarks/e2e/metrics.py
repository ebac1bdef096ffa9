"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics with
their regression bounds; a test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("samples_per_s", "1/s", "higher"),
    Metric("p50_ms", "ms", "lower"),
    Metric("ok_frac", "ratio", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

STAGES = ("dvp", "biconv", "encode", "similarity")

PER_LAYER = (
    # client: what the caller saw beyond the median, and how well the
    # load generator kept its schedule
    Metric("client.tail_ms", "ms", "lower"),
    Metric("client.late_p99_ms", "ms", "lower"),
    Metric("client.sent", "count", "higher"),
    # wire: serve_tcp
    Metric("wire.hol_wait_p50_ms", "ms", "lower"),
    Metric("wire.hol_wait_tail_ms", "ms", "lower"),
    Metric("wire.overhead_p50_ms", "ms", "lower"),
    Metric("wire.request_bytes", "bytes", "lower"),
    Metric("serve.net.bad_requests", "count", "lower"),
    Metric("serve.net.errors", "count", "lower"),
    Metric("serve.net.disconnects", "count", "lower"),
    Metric("serve.net.timeouts", "count", "lower"),
    # serve: MicroBatchServer
    Metric("serve.latency_p50_ms", "ms", "lower"),
    Metric("serve.latency_tail_ms", "ms", "lower"),
    Metric("serve.batch_size_mean", "count", "higher"),
    Metric("serve.flush_full_frac", "ratio", "higher"),
    Metric("serve.wait_mean_ms", "ms", "lower"),
    Metric("serve.rejected", "count", "lower"),
    Metric("serve.failed", "count", "lower"),
    Metric("serve.quarantined", "count", "lower"),
    Metric("serve.pipeline.inflight_max", "count", "higher"),
    Metric("serve.pipeline.barriers", "count", "lower"),
    # runtime: ResilientBatchRunner.run
    Metric("runner.run_p50_ms", "ms", "lower"),
    Metric("runner.us_per_sample", "us", "lower"),
    Metric("runner.overhead_frac", "ratio", "lower"),
    Metric("batch.shard_p50_ms", "ms", "lower"),
    Metric("resilience.retries", "count", "lower"),
    Metric("resilience.fallbacks", "count", "lower"),
    Metric("resilience.quarantined", "count", "lower"),
    # engine: BitPackedUniVSA, beside the hardware model's cycle shares
    *(Metric(f"packed.{s}.us_per_sample", "us", "lower") for s in STAGES),
    *(Metric(f"packed.{s}.share", "ratio", "lower") for s in STAGES),
    *(Metric(f"hw.{s}.cycle_share", "ratio", "lower") for s in STAGES),
    # integrity scrubbing
    Metric("integrity.scrubs", "count", "lower"),
    Metric("integrity.mismatches", "count", "lower"),
    # process and observability cost
    Metric("proc.cpu_ms_per_sample", "ms", "lower"),
    Metric("obs.trace_overhead_frac", "ratio", "lower"),
    # batch-offline: how much slower than the reference host this host ran
    Metric("host.speed_factor", "ratio", "lower"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
