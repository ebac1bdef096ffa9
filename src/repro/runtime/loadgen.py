"""Open-loop load generation for the micro-batching serve front end.

``repro serve-bench`` is the "millions of users" measurement: an
open-loop generator (arrivals fire on a clock, never gated on previous
completions — the methodology that exposes coordinated omission) drives
a :class:`~repro.runtime.serve.MicroBatchServer` with Poisson or bursty
(on/off-modulated Poisson) arrival traces at configurable offered load
and client count, and reports the latency/goodput curve: p50 / p99 /
p99.9 request latency and goodput (ok-answers per second) per offered
load, against a sequential one-sample-per-call inline baseline measured
on the same engine.  Every ``ok`` answer is verified bit-identical to
inline inference on the same sample, so a goodput number from a wrong
answer cannot be reported.  The CLI appends a ``task="serve"`` ledger
record that ``repro obs compare`` gates against a committed baseline.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.obs import MetricsRegistry, using_registry
from repro.vsa.kernels import kernel_info

from .chaos import ChaosSpec
from .resilience import ResilientBatchRunner, RetryPolicy
from .serve import MicroBatchServer, ServePolicy

__all__ = [
    "poisson_arrivals",
    "bursty_arrivals",
    "client_arrivals",
    "run_open_loop",
    "LoadPoint",
    "ServeBenchReport",
    "bench_serve",
]


# ---------------------------------------------------------------------------
# arrival traces
# ---------------------------------------------------------------------------
def poisson_arrivals(rate_hz: float, duration_s: float, seed=0) -> np.ndarray:
    """Sorted arrival times of a Poisson process over ``[0, duration_s)``."""
    if rate_hz <= 0.0 or duration_s <= 0.0:
        return np.zeros(0, dtype=float)
    rng = np.random.default_rng(seed)
    block = max(16, int(rate_hz * duration_s * 1.2) + 1)
    chunks: list[np.ndarray] = []
    t = 0.0
    while t < duration_s:
        gaps = rng.exponential(1.0 / rate_hz, size=block)
        times = t + np.cumsum(gaps)
        chunks.append(times)
        t = float(times[-1])
    arrivals = np.concatenate(chunks)
    return arrivals[arrivals < duration_s]


def bursty_arrivals(
    rate_hz: float,
    duration_s: float,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.15,
    cycle_s: float = 0.25,
    seed=0,
) -> np.ndarray:
    """On/off-modulated Poisson arrivals (a Markov-modulated process).

    Quiet and burst phases alternate with exponential lengths (a full
    quiet+burst cycle averages ``cycle_s``); bursts run at
    ``burst_factor`` times the quiet rate and cover ``burst_fraction`` of
    the time, with the quiet rate scaled so the long-run mean stays
    ``rate_hz``.  This is the trace that stresses queue depth and
    batch growth in a way a plain Poisson stream cannot.
    """
    if rate_hz <= 0.0 or duration_s <= 0.0:
        return np.zeros(0, dtype=float)
    if burst_factor < 1.0:
        raise ValueError("burst_factor must be >= 1")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    quiet_rate = rate_hz / (1.0 - burst_fraction + burst_fraction * burst_factor)
    burst_rate = quiet_rate * burst_factor
    out: list[float] = []
    t = 0.0
    in_burst = False
    while t < duration_s:
        mean_len = cycle_s * (burst_fraction if in_burst else 1.0 - burst_fraction)
        end = min(t + rng.exponential(mean_len), duration_s)
        rate = burst_rate if in_burst else quiet_rate
        tick = t
        while True:
            tick += rng.exponential(1.0 / rate)
            if tick >= end:
                break
            out.append(tick)
        t = end
        in_burst = not in_burst
    return np.asarray(out, dtype=float)


def client_arrivals(
    rate_hz: float,
    duration_s: float,
    clients: int = 1,
    trace: str = "poisson",
    seed=0,
    **trace_kwargs,
) -> np.ndarray:
    """Merge ``clients`` independent arrival streams totalling ``rate_hz``.

    Each client contributes an independent ``trace`` stream at
    ``rate_hz / clients`` with its own derived seed; the merged timeline
    is what the server sees.
    """
    clients = max(1, int(clients))
    makers = {"poisson": poisson_arrivals, "bursty": bursty_arrivals}
    if trace not in makers:
        raise ValueError(f"unknown trace {trace!r}; expected one of {sorted(makers)}")
    streams = [
        makers[trace](rate_hz / clients, duration_s, seed=(seed, c), **trace_kwargs)
        for c in range(clients)
    ]
    return np.sort(np.concatenate(streams)) if streams else np.zeros(0)


# ---------------------------------------------------------------------------
# the open loop
# ---------------------------------------------------------------------------
async def run_open_loop(
    server: MicroBatchServer, samples: np.ndarray, arrivals: np.ndarray
):
    """Fire ``samples[k % len(samples)]`` at each arrival time; returns
    ``(responses, wall_s)`` with responses in arrival order.

    Open loop: the schedule never waits on completions, so queueing
    delay shows up as measured latency instead of silently throttling
    the offered load (coordinated omission).  Arrivals the clock has
    already passed are fired immediately (catch-up).
    """
    loop = asyncio.get_running_loop()
    n_bank = len(samples)
    start = loop.time()
    tasks = []
    for k, at in enumerate(np.asarray(arrivals, dtype=float)):
        delay = start + float(at) - loop.time()
        if delay > 0.0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(server.submit(samples[k % n_bank])))
    responses = list(await asyncio.gather(*tasks)) if tasks else []
    return responses, loop.time() - start


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LoadPoint:
    """One offered-load point of the latency/goodput curve."""

    label: str
    offered_per_s: float
    duration_s: float
    wall_s: float
    sent: int
    accepted: int
    rejected: int
    answered: int  # status == "ok"
    quarantined: int
    failed: int
    goodput_per_s: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    max_ms: float
    mean_batch: float
    mismatches: int
    accuracy: float

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "offered_per_s": self.offered_per_s,
            "duration_s": self.duration_s,
            "wall_s": self.wall_s,
            "sent": self.sent,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "answered": self.answered,
            "quarantined": self.quarantined,
            "failed": self.failed,
            "goodput_per_s": self.goodput_per_s,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "max_ms": self.max_ms,
            "mean_batch": self.mean_batch,
            "mismatches": self.mismatches,
            "accuracy": self.accuracy,
        }


def summarize_point(
    label: str,
    offered_per_s: float,
    duration_s: float,
    responses,
    wall_s: float,
    reference_labels: np.ndarray,
    true_labels: np.ndarray,
) -> LoadPoint:
    """Fold one run's responses (arrival order) into a :class:`LoadPoint`."""
    n_bank = len(reference_labels)
    statuses = [r.status for r in responses]
    ok = [r for r in responses if r.status == "ok"]
    latencies = np.array([r.latency_s for r in ok], dtype=float) * 1e3

    def pct(q: float) -> float:
        return float(np.percentile(latencies, q)) if latencies.size else 0.0

    mismatches = sum(
        1
        for k, r in enumerate(responses)
        if r.status == "ok" and r.label != int(reference_labels[k % n_bank])
    )
    correct = [
        r.label == int(true_labels[k % n_bank])
        for k, r in enumerate(responses)
        if r.status == "ok"
    ]
    wall = max(wall_s, 1e-9)
    return LoadPoint(
        label=label,
        offered_per_s=offered_per_s,
        duration_s=duration_s,
        wall_s=wall_s,
        sent=len(responses),
        accepted=sum(1 for s in statuses if s != "rejected"),
        rejected=statuses.count("rejected"),
        answered=len(ok),
        quarantined=statuses.count("quarantined"),
        failed=statuses.count("failed"),
        goodput_per_s=len(ok) / wall,
        p50_ms=pct(50),
        p99_ms=pct(99),
        p999_ms=pct(99.9),
        max_ms=float(latencies.max()) if latencies.size else 0.0,
        mean_batch=float(np.mean([r.batch_size for r in ok])) if ok else 0.0,
        mismatches=mismatches,
        accuracy=float(np.mean(correct)) if correct else 0.0,
    )


@dataclass
class ServeBenchReport:
    """Everything one serve-bench sweep measured."""

    benchmark: str
    trace: str
    clients: int
    duration_s: float
    policy: ServePolicy
    workers: int
    shard_size: int | None
    inline_per_s: float
    inline_p50_ms: float
    inline_p99_ms: float
    unbatched_per_s: float
    points: list[LoadPoint]
    kernels: dict
    config: object = None
    registry: MetricsRegistry | None = field(default=None, repr=False)
    chaos: dict = field(default_factory=dict)

    @property
    def best(self) -> LoadPoint | None:
        """The point with the highest goodput."""
        return max(self.points, key=lambda p: p.goodput_per_s, default=None)

    @property
    def goodput_vs_inline(self) -> float:
        """Best goodput over the raw one-sample-per-call engine rate."""
        best = self.best
        if best is None or self.inline_per_s <= 0.0:
            return 0.0
        return best.goodput_per_s / self.inline_per_s

    @property
    def goodput_vs_unbatched(self) -> float:
        """Best goodput over the no-batching server (``max_batch=1``
        through the identical submission/executor/runner machinery) — the
        controlled comparison where micro-batching is the only variable."""
        best = self.best
        if best is None or self.unbatched_per_s <= 0.0:
            return 0.0
        return best.goodput_per_s / self.unbatched_per_s

    @property
    def mismatches(self) -> int:
        return sum(p.mismatches for p in self.points)

    def ledger_metrics(self) -> dict[str, float]:
        """The flat metric dict one ``task="serve"`` ledger record carries."""
        best = self.best
        metrics: dict[str, float] = {
            "inline_per_s": self.inline_per_s,
            "unbatched_per_s": self.unbatched_per_s,
            "inline_p99_ms": self.inline_p99_ms,
            "deadline_ms": self.policy.deadline_ms,
            "max_batch": float(self.policy.max_batch),
            "clients": float(self.clients),
            "workers": float(self.workers),
            "serve_mismatches": float(self.mismatches),
        }
        if best is not None:
            metrics.update(
                serve_goodput_per_s=best.goodput_per_s,
                goodput_vs_inline=self.goodput_vs_inline,
                goodput_vs_unbatched=self.goodput_vs_unbatched,
                serve_p50_ms=best.p50_ms,
                serve_p99_ms=best.p99_ms,
                serve_p999_ms=best.p999_ms,
                accuracy=best.accuracy,
            )
        for point in self.points:
            suffix = point.label
            metrics[f"goodput_per_s_{suffix}"] = point.goodput_per_s
            metrics[f"p99_ms_{suffix}"] = point.p99_ms
            metrics[f"rejected_{suffix}"] = float(point.rejected)
        return metrics

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "trace": self.trace,
            "clients": self.clients,
            "duration_s": self.duration_s,
            "policy": {
                "max_batch": self.policy.max_batch,
                "deadline_ms": self.policy.deadline_ms,
                "max_queue": self.policy.max_queue,
                "max_inflight": self.policy.max_inflight,
            },
            "workers": self.workers,
            "shard_size": self.shard_size,
            "inline_per_s": self.inline_per_s,
            "inline_p50_ms": self.inline_p50_ms,
            "inline_p99_ms": self.inline_p99_ms,
            "unbatched_per_s": self.unbatched_per_s,
            "goodput_vs_inline": self.goodput_vs_inline,
            "goodput_vs_unbatched": self.goodput_vs_unbatched,
            "mismatches": self.mismatches,
            "kernels": self.kernels,
            "chaos": self.chaos,
            "points": [p.as_dict() for p in self.points],
        }

    def render(self) -> str:
        from repro.utils.tables import render_kv, render_table

        fields = {
            "benchmark": self.benchmark,
            "trace / clients": f"{self.trace} / {self.clients}",
            "policy": (
                f"batch<={self.policy.max_batch}, "
                f"deadline {self.policy.deadline_ms:g} ms, "
                f"queue<={self.policy.max_queue}"
            ),
            "runner": f"{self.workers} workers",
            "inline single-sample": (
                f"{self.inline_per_s:.1f}/s "
                f"(p50 {self.inline_p50_ms:.2f} ms, p99 {self.inline_p99_ms:.2f} ms)"
            ),
            "unbatched server": f"{self.unbatched_per_s:.1f}/s (max_batch=1)",
            "best goodput": (
                f"{self.best.goodput_per_s:.1f}/s "
                f"({self.goodput_vs_inline:.1f}x inline, "
                f"{self.goodput_vs_unbatched:.1f}x unbatched server)"
                if self.best
                else "n/a"
            ),
            "mismatches vs inline": self.mismatches,
        }
        if self.chaos:
            fields["chaos"] = ", ".join(f"{k}={v}" for k, v in self.chaos.items() if v)
        rows = [
            [
                p.label,
                f"{p.offered_per_s:.0f}/s",
                p.sent,
                p.rejected,
                f"{p.goodput_per_s:.1f}/s",
                f"{p.p50_ms:.1f}",
                f"{p.p99_ms:.1f}",
                f"{p.p999_ms:.1f}",
                f"{p.mean_batch:.1f}",
            ]
            for p in self.points
        ]
        table = render_table(
            [
                "point",
                "offered",
                "sent",
                "shed",
                "goodput",
                "p50 ms",
                "p99 ms",
                "p99.9 ms",
                "batch",
            ],
            rows,
            title="latency / goodput vs offered load",
        )
        header = render_kv(fields, title="serve bench — micro-batched online serving")
        return header + "\n\n" + table


# ---------------------------------------------------------------------------
# the bench
# ---------------------------------------------------------------------------
def _measure_inline(engine, bank: np.ndarray, budget_s: float = 0.4, min_calls: int = 32):
    """Sequential one-sample-per-call baseline: (per_s, p50_ms, p99_ms)."""
    walls: list[float] = []
    started = perf_counter()
    i = 0
    while (len(walls) < min_calls or perf_counter() - started < budget_s) and len(
        walls
    ) < 2048:
        t = perf_counter()
        engine.scores(bank[i % len(bank)][None])
        walls.append(perf_counter() - t)
        i += 1
    arr = np.asarray(walls)
    return (
        float(len(arr) / arr.sum()),
        float(np.percentile(arr, 50) * 1e3),
        float(np.percentile(arr, 99) * 1e3),
    )


async def _measure_unbatched(runner, bank: np.ndarray, budget_s: float = 0.5) -> float:
    """Sustainable rate of a *no-batching* server: ``max_batch=1`` through
    the identical submission/executor/runner machinery, closed-loop.

    This is the controlled baseline — the only variable between it and
    the measured serve points is micro-batching itself.
    """
    async with MicroBatchServer(runner, ServePolicy(max_batch=1)) as server:
        loop = asyncio.get_running_loop()
        start = loop.time()
        count = 0
        while loop.time() - start < budget_s:
            await server.submit(bank[count % len(bank)])
            count += 1
        return count / (loop.time() - start)


def bench_serve(
    benchmark: str,
    rates: tuple[float, ...] = (1.0, 2.0, 4.0),
    absolute_rates: tuple[float, ...] | None = None,
    duration_s: float = 1.5,
    trace: str = "poisson",
    clients: int = 8,
    policy: ServePolicy | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
    config=None,
    n_train: int = 120,
    n_test: int = 60,
    epochs: int = 2,
    seed: int = 0,
) -> ServeBenchReport:
    """Train a small model and sweep offered load against the serve path.

    ``rates`` are multiples of the measured inline single-sample
    throughput (the load axis that transfers across machines);
    ``absolute_rates`` (requests/s) overrides them.  ``config`` overrides
    the benchmark's paper configuration — micro-batching pays the most in
    the paper's resource-stringent regime (small models whose per-call
    overhead dominates compute), so the committed baseline pins a small
    design point.  Each point drives an independent
    :class:`MicroBatchServer` over one shared resilient runner, so
    ``REPRO_CHAOS`` turns the bench into an end-to-end chaos test of the
    serve path.
    """
    from repro.core.inference import BitPackedUniVSA
    from repro.core.pipeline import run_benchmark
    from repro.data.registry import get_benchmark
    from repro.utils.trainloop import TrainConfig

    spec = get_benchmark(benchmark)
    run = run_benchmark(
        benchmark,
        config=config,
        train_config=TrainConfig(
            epochs=epochs,
            lr=0.008,
            seed=seed,
            balance_classes=spec.spec.class_balance is not None,
        ),
        n_train=n_train,
        n_test=n_test,
        seed=seed,
    )
    bank = run.data.x_test
    true_labels = np.asarray(run.data.y_test)
    engine = BitPackedUniVSA(run.artifacts, mode="fast")
    policy = policy if policy is not None else ServePolicy()
    chaos = ChaosSpec.from_env()

    # Inline baseline + bit-exact reference labels, measured outside the
    # serve registry so serving stage breakdowns stay pure.
    with using_registry(MetricsRegistry()):
        inline_per_s, inline_p50_ms, inline_p99_ms = _measure_inline(engine, bank)
        reference_labels = engine.scores(bank).argmax(axis=1)

    if absolute_rates:
        offered = [(f"r{rate:g}", float(rate)) for rate in absolute_rates]
    else:
        offered = [(f"x{mult:g}", float(mult) * inline_per_s) for mult in rates]

    # One SLO tracker shared across every load point, so the slo.* gauges
    # the ledger harvests (and the budget burn `repro obs compare` gates
    # on) account for the whole sweep, not just the last point.
    from repro.obs.slo import SLOTracker

    slo_tracker = SLOTracker()
    registry = MetricsRegistry()
    points: list[LoadPoint] = []
    with using_registry(registry):
        with ResilientBatchRunner(
            engine,
            shard_size=shard_size,
            workers=workers,
            policy=RetryPolicy.from_env(),
            chaos=chaos,
        ) as runner:

            unbatched_box: list[float] = []

            async def sweep() -> None:
                # The no-batching control runs under a throwaway registry
                # so the harvested serve.* counters reflect only the
                # measured load points.
                with using_registry(MetricsRegistry()):
                    unbatched_box.append(await _measure_unbatched(runner, bank))
                for label, rate in offered:
                    arrivals = client_arrivals(
                        rate, duration_s, clients=clients, trace=trace, seed=seed
                    )
                    async with MicroBatchServer(
                        runner, policy, slo=slo_tracker
                    ) as server:
                        responses, wall = await run_open_loop(server, bank, arrivals)
                    points.append(
                        summarize_point(
                            label,
                            rate,
                            duration_s,
                            responses,
                            wall,
                            reference_labels,
                            true_labels,
                        )
                    )

            asyncio.run(sweep())
            slo_tracker.publish(registry)
            actual_workers = runner.workers

    return ServeBenchReport(
        benchmark=benchmark,
        trace=trace,
        clients=clients,
        duration_s=duration_s,
        policy=policy,
        workers=actual_workers,
        shard_size=shard_size,
        inline_per_s=inline_per_s,
        inline_p50_ms=inline_p50_ms,
        inline_p99_ms=inline_p99_ms,
        unbatched_per_s=unbatched_box[0] if unbatched_box else 0.0,
        points=points,
        kernels=kernel_info(),
        config=run.config,
        registry=registry,
        chaos=chaos.as_dict() if chaos.enabled else {},
    )
