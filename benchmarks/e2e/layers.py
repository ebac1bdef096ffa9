"""Per-layer metrics of a traced run, taken from outside the program.

Wire workloads combine the client's own spans with the daemon's
``{"op": "metrics"}`` scrapes taken after priming and at the end of the
run: counters and histogram counts/totals are exact, so their deltas
cover exactly the timed window.  ``batch-offline`` reads the registry its
child ran under.  A layer a workload does not pass through reads 0.
"""

from __future__ import annotations

import numpy as np

from .metrics import PER_LAYER, STAGES
from .stats import censored_latencies, percentile

EMPTY_SNAPSHOT = {"counters": {}, "gauges": {}, "stages": {}}


class Delta:
    """Difference of two registry snapshots."""

    def __init__(self, before: dict, after: dict) -> None:
        self.before = before
        self.after = after

    def count(self, name: str) -> float:
        return float(
            self.after["counters"].get(name, 0) - self.before["counters"].get(name, 0)
        )

    def stage(self, name: str) -> tuple[float, float]:
        """``(observations, total seconds)`` recorded in the window."""
        empty = {"count": 0, "total_s": 0.0}
        a = self.after["stages"].get(name, empty)
        b = self.before["stages"].get(name, empty)
        return float(a["count"] - b["count"]), float(a["total_s"] - b["total_s"])

    def p50_ms(self, name: str) -> float:
        """Median of the histogram at the end (its whole lifetime)."""
        return 1e3 * float(self.after["stages"].get(name, {}).get("p50_s", 0.0))

    def gauge(self, name: str) -> float:
        return float(self.after["gauges"].get(name, 0.0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def hw_cycle_shares(artifacts) -> dict[str, float]:
    """``repro.hw``'s modelled cycle share of each datapath stage (Fig. 6),
    normalised over the four stages the software times."""
    from repro.hw import HardwareSpec, stage_cycles

    spec = HardwareSpec(artifacts.config, tuple(artifacts.input_shape), artifacts.n_classes)
    cycles = stage_cycles(spec).as_dict()
    total = sum(cycles[s] for s in STAGES)
    return {f"hw.{s}.cycle_share": cycles[s] / total for s in STAGES}


def engine_layers(
    delta: Delta, run_total_s: float, runs: float, samples: float
) -> dict[str, float]:
    """``packed.*`` per-sample time and share, and the runner's overhead.

    Shards of one ``run()`` execute side by side, so the runner's
    overhead is taken against its worker time: ``run()`` wall time times
    the shards in use at once (``batch.shards`` per run, at most the
    ``batch.workers`` gauge).
    """
    totals = {s: delta.stage(f"packed.{s}")[1] for s in STAGES}
    packed = sum(totals.values())
    workers = delta.gauge("batch.workers") or 1.0
    width = max(1.0, min(_ratio(delta.count("batch.shards"), runs), workers))
    out = {}
    for s in STAGES:
        out[f"packed.{s}.us_per_sample"] = 1e6 * _ratio(totals[s], samples)
        out[f"packed.{s}.share"] = _ratio(totals[s], packed)
    out["runner.overhead_frac"] = 1.0 - _ratio(packed, width * run_total_s)
    out["runner.us_per_sample"] = 1e6 * _ratio(run_total_s, samples)
    out["batch.shard_p50_ms"] = delta.p50_ms("batch.shard")
    for name in ("resilience.retries", "resilience.fallbacks", "resilience.quarantined"):
        out[name] = delta.count(name)
    return out


def wire_layers(
    trace, ok: np.ndarray, tail_pct: float, delta: Delta, cpu_s: float, hw: dict
) -> dict[str, float]:
    """Per-layer metrics of one traced wire run."""
    late = trace.sent - trace.due
    # A line waits behind the previous reply on its connection: the
    # daemon reads the next line only after writing the last answer.
    prev_reply = np.full(len(trace.due), -np.inf)
    for k in np.unique(trace.conn):
        rows = np.flatnonzero(trace.conn == k)
        prev_reply[rows[1:]] = trace.recv[rows[:-1]]
    hol = np.maximum(0.0, prev_reply - trace.due)[ok]
    client_ms = 1e3 * (trace.recv - trace.due)[ok]
    server_ms = trace.field("latency_ms")[ok]
    overhead = client_ms - 1e3 * hol - server_ms
    latency = censored_latencies(trace.due, trace.recv, ok, trace.end)

    batches, batched = delta.count("serve.batches"), delta.count("serve.batched_samples")
    flushes = {t: delta.count(f"serve.flush.{t}") for t in ("full", "deadline", "drain")}
    lat_n, lat_total = delta.stage("serve.latency")
    run_n, run_total = delta.stage("serve.batch")

    out = {
        "client.tail_ms": 1e3 * percentile(latency, tail_pct),
        "client.late_p99_ms": 1e3 * percentile(late, 99),
        "client.sent": float(len(trace.due)),
        "wire.hol_wait_p50_ms": 1e3 * percentile(hol, 50),
        "wire.hol_wait_tail_ms": 1e3 * percentile(hol, tail_pct),
        "wire.overhead_p50_ms": percentile(overhead, 50),
        "wire.request_bytes": float(np.mean(trace.line_bytes)),
        "serve.latency_p50_ms": percentile(server_ms, 50),
        "serve.latency_tail_ms": percentile(server_ms, tail_pct),
        "serve.batch_size_mean": _ratio(batched, batches),
        "serve.flush_full_frac": _ratio(flushes["full"], sum(flushes.values())),
        "serve.wait_mean_ms": 1e3 * (_ratio(lat_total, lat_n) - _ratio(run_total, run_n)),
        "serve.pipeline.inflight_max": delta.gauge("serve.pipeline.inflight_max"),
        "runner.run_p50_ms": delta.p50_ms("serve.batch"),
        "proc.cpu_ms_per_sample": 1e3 * _ratio(cpu_s, float(ok.sum())),
        "obs.trace_overhead_frac": 0.0,
        **hw,
    }
    for name in (
        "serve.net.bad_requests", "serve.net.errors", "serve.net.disconnects",
        "serve.net.timeouts", "serve.rejected", "serve.failed", "serve.quarantined",
        "serve.pipeline.barriers", "integrity.scrubs", "integrity.mismatches",
    ):
        out[name] = delta.count(name)
    out.update(engine_layers(delta, run_total, run_n, delta.count("packed.samples")))
    return complete(out)


def batch_layers(child: dict, factor: float, tail_pct: float, hw: dict) -> dict[str, float]:
    """Per-layer metrics of one traced ``batch-offline`` run.

    Times are scaled to the reference host by ``factor`` like the run's
    end-to-end numbers; shares and the trace overhead are ratios of
    times taken side by side and need no scaling.  ``client.tail_ms``
    is taken over the calls made without a registry.
    """
    traced = child["modes"]["traced"]
    untraced = child["modes"]["untraced"]
    delta = Delta(EMPTY_SNAPSHOT, child["registry"])
    rate_traced = _ratio(traced["samples"], sum(traced["durations"]))
    rate_untraced = _ratio(untraced["samples"], sum(untraced["durations"]))
    samples = traced["samples"] + untraced["samples"]
    out = {
        "client.tail_ms": 1e3 * percentile(untraced["durations"], tail_pct) / factor,
        "client.sent": float(traced["calls"] + untraced["calls"]),
        "runner.run_p50_ms": 1e3 * percentile(traced["durations"], 50) / factor,
        "proc.cpu_ms_per_sample": 1e3 * _ratio(child["cpu_s"], samples) / factor,
        "obs.trace_overhead_frac": 1.0 - _ratio(rate_traced, rate_untraced),
        "host.speed_factor": factor,
        **hw,
    }
    engine = engine_layers(
        delta, sum(traced["durations"]), traced["calls"], traced["samples"]
    )
    scaled = ("runner.us_per_sample", "batch.shard_p50_ms") + tuple(
        f"packed.{s}.us_per_sample" for s in STAGES
    )
    for name in scaled:
        engine[name] /= factor
    out.update(engine)
    return complete(out)


def complete(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, in catalogue order, 0 where not measured."""
    unknown = set(values) - {m.name for m in PER_LAYER}
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    return {m.name: float(values.get(m.name, 0.0)) for m in PER_LAYER}
