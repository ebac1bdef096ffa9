"""One measured run of one workload.

The order inside a run is fixed: build the inputs and the legacy oracle's
answers from the seed, start the system under test five times from cold
(``setup_s`` is the median, from spawn to the first correct answer), keep
the fifth one, check every bank sample or batch against the oracle, then
time.  ``setup_s`` and ``batch-offline``'s CPU-bound numbers are scaled
to the reference host by :mod:`~.hostref`.  Any wrong answer raises
:class:`~.sut.CorrectnessError` and the run reports nothing.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import layers
from .hostref import START_NOMINAL_S, local_speed_factors, speed_factor, time_start_probe
from .stats import censored_latencies, percentile
from .sut import (
    ROOT,
    STARTUP_TIMEOUT_S,
    BenchError,
    Child,
    CorrectnessError,
    cpu_seconds,
    peak_rss_mb,
    process_tree,
)
from .wire import Daemon, drive, request_line, round_trip, scrape
from .workloads import BANK_SIZE, Workload, bank, offline_batches, rng_for, schedule

#: Cold starts per run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: A run whose load generator sent its 99th-percentile request later
#: than this after its due time did not apply the load it claims.  Any
#: smaller lateness is already charged to the requests it delays, since
#: latency runs from the due time.  On a shared host whose hypervisor
#: takes CPU time from the machine, it reaches 10-25 ms, so a tighter
#: limit fails runs that measured correctly.
LATE_LIMIT_MS = 250.0
GATE_TIMEOUT_S = 60.0
RESULT_MARGIN_S = 120.0


@dataclass
class Outcome:
    """What one run measured; ``metrics`` holds end-to-end metrics for an
    untraced run and per-layer metrics for a traced one."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    tail_pct: float
    attempted: int
    failed: int
    metrics: dict[str, float]
    setup_samples: list[float] = field(default_factory=list)
    spans: list[dict] | None = None
    #: Numbers kept beside the metrics: the unscaled median cold start;
    #: the load generator's lateness on wire workloads; on
    #: ``batch-offline`` the unscaled CPU-bound numbers and the host speed
    #: factor (see ``hostref``).
    raw: dict[str, float] = field(default_factory=dict)


def oracle_scores(artifacts, levels: np.ndarray) -> np.ndarray:
    """The legacy engine's scores: the bit-exact reference every path meets."""
    from repro.core.inference import BitPackedUniVSA

    return np.asarray(BitPackedUniVSA(artifacts, mode="legacy").scores(levels), dtype=np.int64)


def _check_scores(got, expected: np.ndarray, what: str) -> None:
    if got is None or not np.array_equal(np.asarray(got, dtype=np.int64), expected):
        raise CorrectnessError(f"{what}: scores differ from the legacy oracle")


def _check_reply(reply: dict | None, expected: np.ndarray, what: str) -> None:
    if reply is None:
        raise BenchError(f"{what}: no reply")
    if reply.get("status") != "ok":
        raise BenchError(f"{what}: status {reply.get('status')!r} ({reply.get('reason', '')})")
    if reply.get("label") != int(np.argmax(expected)):
        raise CorrectnessError(f"{what}: label differs from the legacy oracle")
    _check_scores(reply.get("scores"), expected, what)


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> Outcome:
    """Measure ``workload`` once; raises :class:`BenchError` when it cannot."""
    from repro.core.export import UniVSAArtifacts

    artifacts = UniVSAArtifacts.load(workload.model_path)
    body = _run_wire if workload.kind == "wire" else _run_batch
    return asyncio.run(body(workload, artifacts, seed, seconds, traced))


async def _cold_starts(start):
    """Start the system ``SETUP_STARTS`` times, each right after a start
    probe; keep the last one running.  Returns it, the raw start times and
    their host-scaled median (``setup_s``)."""
    raw, scaled = [], []
    for i in range(SETUP_STARTS):
        probe_s = await time_start_probe()
        began = time.perf_counter()
        sut = await start()
        raw.append(time.perf_counter() - began)
        scaled.append(raw[-1] * START_NOMINAL_S / probe_s)
        if i < SETUP_STARTS - 1:
            await sut.stop()
    return sut, raw, statistics.median(scaled)


async def _run_wire(workload, artifacts, seed, seconds, traced) -> Outcome:
    samples = bank(
        rng_for(seed, "bank"), BANK_SIZE, artifacts.input_shape, artifacts.config.levels
    )
    expected = oracle_scores(artifacts, samples)
    labels = expected.argmax(axis=1)
    n = workload.request_count(seconds)
    offsets = schedule(workload, seconds)
    picks = rng_for(seed, "picks").integers(0, BANK_SIZE, n)
    plain = [request_line(s) for s in samples]
    scored = [request_line(s, scores=True) for s in samples]
    model = str(workload.model_path.relative_to(ROOT))
    tail_pct = workload.tail(seconds)

    async def start() -> Daemon:
        daemon = await Daemon.start(model)
        try:
            _check_reply(await round_trip(daemon.port, scored[0]), expected[0], "cold start")
        except BaseException:
            await daemon.stop()
            raise
        return daemon

    daemon, setup, setup_s = await _cold_starts(start)
    try:
        gate = await drive(daemon.port, scored, np.zeros(BANK_SIZE), GATE_TIMEOUT_S)
        for i, reply in enumerate(gate.replies):
            _check_reply(reply, expected[i], f"gate sample {i}")
        before = await scrape(daemon.port) if traced else None
        cpu_before = cpu_seconds(process_tree(daemon.child.pid))
        trace = await drive(
            daemon.port,
            [plain[p] for p in picks],
            offsets,
            seconds + workload.grace_s,
        )
        cpu_s = cpu_seconds(process_tree(daemon.child.pid)) - cpu_before
        after = await scrape(daemon.port) if traced else None
        rss_mb = peak_rss_mb(process_tree(daemon.child.pid))
    finally:
        await daemon.stop()

    ok = np.array([status == "ok" for status in trace.statuses])
    got = trace.field("label", default=-1)
    wrong = ok & (got != labels[picks])
    if wrong.any():
        raise CorrectnessError(
            f"{int(wrong.sum())} timed answers differ from the legacy oracle"
        )
    late_p99_ms = 1e3 * percentile(trace.sent - trace.due, 99)
    if late_p99_ms >= LATE_LIMIT_MS:
        raise BenchError(
            f"load generator ran late (p99 {late_p99_ms:.2f} ms >= {LATE_LIMIT_MS} ms)"
        )
    n_ok = int(ok.sum())
    if n_ok == 0:
        raise BenchError("no request was answered ok")
    latency = censored_latencies(trace.due, trace.recv, ok, trace.end)
    raw = {
        "client_late_p99_ms": late_p99_ms,
        "setup_raw_s": statistics.median(setup),
        "tail_ms": 1e3 * percentile(latency, tail_pct),
    }
    if traced:
        metrics = layers.wire_layers(
            trace, ok, tail_pct, layers.Delta(before, after), cpu_s,
            layers.hw_cycle_shares(artifacts),
        )
    else:
        metrics = {
            "setup_s": setup_s,
            "samples_per_s": n_ok / (float(np.nanmax(trace.recv[ok])) - float(trace.due[0])),
            "p50_ms": 1e3 * percentile(latency, 50),
            "ok_frac": n_ok / n,
            "peak_rss_mb": rss_mb,
        }
    return Outcome(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        traced=traced,
        tail_pct=tail_pct,
        attempted=n,
        failed=n - n_ok,
        metrics=metrics,
        setup_samples=setup,
        spans=_spans(trace, picks) if traced else None,
        raw=raw,
    )


def _spans(trace, picks) -> list[dict]:
    """Client spans, times in ms from the first due time."""
    origin = float(trace.due[0])

    def ms(value) -> float | None:
        return None if np.isnan(value) else round(1e3 * (float(value) - origin), 4)

    out = []
    for i, reply in enumerate(trace.replies):
        reply = reply or {}
        out.append(
            {
                "id": i,
                "conn": int(trace.conn[i]),
                "sample": int(picks[i]),
                "due_ms": ms(trace.due[i]),
                "sent_ms": ms(trace.sent[i]),
                "recv_ms": ms(trace.recv[i]),
                "status": reply.get("status"),
                "latency_ms": reply.get("latency_ms"),
                "batch_size": reply.get("batch_size"),
            }
        )
    return out


async def _run_batch(workload, artifacts, seed, seconds, traced) -> Outcome:
    batches = offline_batches(seed, artifacts.input_shape, artifacts.config.levels)
    expected = [oracle_scores(artifacts, b) for b in batches]
    argv = (
        sys.executable, "-m", "benchmarks.e2e.offline_child",
        str(workload.model_path.relative_to(ROOT)), str(seed), repr(float(seconds)),
        "1" if traced else "0",
    )

    async def start() -> Child:
        child = await Child.spawn(*argv, stdin=asyncio.subprocess.PIPE)
        try:
            line = await child.readline(STARTUP_TIMEOUT_S, "the first batch")
            _check_scores(json.loads(line).get("first"), expected[0], "cold start")
        except BaseException:
            await child.stop()
            raise
        return child

    child, setup, setup_s = await _cold_starts(start)
    try:
        child.proc.stdin.write(b"go\n")
        await child.proc.stdin.drain()
        result = json.loads(
            await child.readline(seconds + RESULT_MARGIN_S, "the timed result")
        )
        rss_mb = peak_rss_mb(process_tree(child.pid))
        child.proc.stdin.write(b"exit\n")
    finally:
        await child.stop()

    checked = 0
    for index, scores in enumerate(result["scores"]):
        if scores is not None:
            _check_scores(scores, expected[index], f"batch {index}")
            checked += 1
    if not checked:
        raise BenchError("no batch completed in the timed window")
    modes = result["modes"]
    attempted = sum(m["samples"] for m in modes.values())
    n_ok = sum(m["ok"] for m in modes.values())
    factor = speed_factor(result["probe_s"])
    tail_pct = workload.tail(seconds)
    if traced:
        metrics = layers.batch_layers(
            result, factor, tail_pct, layers.hw_cycle_shares(artifacts)
        )
        raw = {}
    else:
        timed = modes["untraced"]
        durations = np.asarray(timed["durations"])
        scaled = durations / local_speed_factors(result["probe_s"])
        raw = {
            "setup_raw_s": statistics.median(setup),
            "host_speed_factor": factor,
            "samples_per_s": timed["samples"] / durations.sum(),
            "p50_ms": 1e3 * percentile(durations, 50),
            "tail_ms": 1e3 * percentile(durations, tail_pct),
            "tail_scaled_ms": 1e3 * percentile(scaled, tail_pct),
        }
        metrics = {
            "setup_s": setup_s,
            "samples_per_s": timed["samples"] / scaled.sum(),
            "p50_ms": 1e3 * percentile(scaled, 50),
            "ok_frac": timed["ok"] / timed["samples"],
            "peak_rss_mb": rss_mb,
        }
    return Outcome(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        traced=traced,
        tail_pct=tail_pct,
        attempted=attempted,
        failed=attempted - n_ok,
        metrics=metrics,
        setup_samples=setup,
        raw=raw,
    )
