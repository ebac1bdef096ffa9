"""Throughput benchmarking of the packed serving engines.

``bench_throughput`` trains a small model on a registered benchmark and
measures samples/sec of a fixed-size ``packed.classify`` workload on
four engine configurations:

* ``seed`` — the legacy stage pipeline on the legacy bit kernels
  (multiply-accumulate pack + LUT popcount), single-threaded: the seed
  engine's exact arithmetic, so speedups are measured against a live
  baseline on the same machine rather than asserted;
* ``fast`` — the overhauled packed pipeline on the fast kernels,
  single-threaded (kernel + pipeline win in isolation);
* ``fused`` — the single-pass tiled pipeline (byte-LUT conv match,
  cache-resident intermediates), single-threaded: the data-movement win
  in isolation;
* ``parallel`` — the fast engine under the
  :class:`~repro.runtime.resilience.ResilientBatchRunner` thread pool.
  ``REPRO_CHAOS`` turns the same bench into a chaos smoke test: faults
  are injected at the shard seam and the report must still account for
  every sample.

The report also carries each mode's analytic memory-traffic model
(``traffic``), which the ledger record surfaces as
``intermediates_peak_mb`` so ``repro obs compare`` can gate
data-movement regressions alongside throughput.

Every engine classifies the same batch; the bench asserts their
predictions are identical before it reports a single number — a
throughput result from a non-bit-exact engine would be meaningless.
Per-engine stage breakdowns are captured in separate registries so seed
and fast p95s are directly comparable in the JSON sidecar, and the CLI
(``python -m repro bench-throughput``) appends one ``task="throughput"``
record to the run ledger, which ``write_trajectories`` folds into
``BENCH_throughput.json`` and ``python -m repro obs compare`` gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.obs import MetricsRegistry, stage_breakdown, using_registry
from repro.vsa.kernels import kernel_info, publish_kernel_metrics, using_kernels

from .batch import resolve_workers
from .chaos import ChaosSpec
from .resilience import ResilientBatchRunner, RetryPolicy

__all__ = ["EngineSample", "ThroughputReport", "bench_throughput"]


@dataclass
class EngineSample:
    """Measured throughput of one engine configuration."""

    name: str
    samples_per_s: float
    best_wall_s: float
    mean_wall_s: float
    runs: int
    stages: dict = field(default_factory=dict, repr=False)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "samples_per_s": self.samples_per_s,
            "best_wall_s": self.best_wall_s,
            "mean_wall_s": self.mean_wall_s,
            "runs": self.runs,
            "stages": self.stages,
        }


@dataclass
class ThroughputReport:
    """Everything one throughput bench measured."""

    benchmark: str
    batch: int
    repeats: int
    workers: int
    shard_size: int | None
    accuracy: float
    kernels: dict
    engines: dict[str, EngineSample]
    config: object = None  # the run's UniVSAConfig (ledger provenance)
    registry: MetricsRegistry | None = field(default=None, repr=False)
    resilience: dict = field(default_factory=dict)  # BatchReport of the last run
    chaos: dict = field(default_factory=dict)  # active ChaosSpec (empty = off)
    prediction_mismatches: int = 0  # non-excluded divergences (bitflip chaos only)
    traffic: dict = field(default_factory=dict)  # per-mode analytic roofline models

    @property
    def speedup_vs_seed(self) -> float:
        seed = self.engines.get("seed")
        best = self.engines.get("parallel") or self.engines.get("fast")
        if seed is None or best is None or seed.samples_per_s <= 0:
            return 0.0
        return best.samples_per_s / seed.samples_per_s

    def ledger_metrics(self) -> dict[str, float]:
        """The flat metric dict one ledger record carries."""
        metrics: dict[str, float] = {
            "batch": float(self.batch),
            "workers": float(self.workers),
            "accuracy": self.accuracy,
            "speedup_vs_seed": self.speedup_vs_seed,
        }
        for name, engine in self.engines.items():
            suffix = "" if name == "parallel" else f"_{name}"
            metrics[f"samples_per_s{suffix}"] = engine.samples_per_s
        fused_model = self.traffic.get("fused")
        if fused_model:
            metrics["intermediates_peak_mb"] = fused_model["peak_intermediate_mb"]
            metrics["traffic_bytes_per_sample_fused"] = fused_model[
                "bytes_per_sample"
            ]
        fast_model = self.traffic.get("fast")
        if fast_model:
            metrics["traffic_bytes_per_sample_fast"] = fast_model["bytes_per_sample"]
        if self.resilience:
            metrics["resilience_retries"] = float(
                self.resilience.get("retries", 0)
            )
            metrics["resilience_fallbacks"] = float(
                self.resilience.get("fallbacks", 0)
            )
            metrics["resilience_quarantined"] = float(
                len(self.resilience.get("quarantined", {}))
            )
            metrics["resilience_degraded"] = float(
                bool(self.resilience.get("degraded", False))
            )
        return metrics

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "batch": self.batch,
            "repeats": self.repeats,
            "workers": self.workers,
            "shard_size": self.shard_size,
            "accuracy": self.accuracy,
            "kernels": self.kernels,
            "speedup_vs_seed": self.speedup_vs_seed,
            "engines": {name: e.as_dict() for name, e in self.engines.items()},
            "resilience": self.resilience,
            "chaos": self.chaos,
            "prediction_mismatches": self.prediction_mismatches,
            "traffic": self.traffic,
        }

    def render(self) -> str:
        from repro.utils.tables import render_kv, render_table

        seed = self.engines.get("seed")
        rows = []
        for name in ("seed", "fast", "fused", "parallel"):
            engine = self.engines.get(name)
            if engine is None:
                continue
            relative = (
                engine.samples_per_s / seed.samples_per_s
                if seed is not None and seed.samples_per_s > 0
                else 0.0
            )
            rows.append(
                [
                    name,
                    f"{engine.samples_per_s:.1f}",
                    f"{engine.best_wall_s * 1e3:.2f} ms",
                    f"{relative:.2f}x",
                ]
            )
        fields = {
            "benchmark": self.benchmark,
            "batch / repeats": f"{self.batch} / {self.repeats}",
            "workers": self.workers,
            "kernels": f"{self.kernels['set']} "
            f"(pack={self.kernels['pack']}, popcount={self.kernels['popcount']})",
            "accuracy": f"{self.accuracy:.4f}",
            "speedup vs seed": f"{self.speedup_vs_seed:.2f}x",
        }
        if self.chaos:
            fields["chaos"] = ", ".join(
                f"{k}={v}" for k, v in self.chaos.items() if v
            )
        if self.resilience:
            fields["resilience"] = (
                f"retries={self.resilience.get('retries', 0)} "
                f"fallbacks={self.resilience.get('fallbacks', 0)} "
                f"quarantined={len(self.resilience.get('quarantined', {}))} "
                f"mismatches={self.prediction_mismatches}"
            )
        header = render_kv(fields, title="throughput bench — packed.classify")
        table = render_table(
            ["engine", "samples/s", "best batch wall", "vs seed"],
            rows,
            title="engines",
        )
        return header + "\n\n" + table


def _time_engine(run_scores, batch: np.ndarray, repeats: int, warmup: int):
    """(best_wall, mean_wall, last_scores) over ``repeats`` timed runs."""
    for _ in range(max(0, warmup)):
        scores = run_scores(batch)
    walls = []
    for _ in range(max(1, repeats)):
        start = perf_counter()
        scores = run_scores(batch)
        walls.append(perf_counter() - start)
    return min(walls), float(np.mean(walls)), scores


def bench_throughput(
    benchmark: str,
    batch: int = 256,
    repeats: int = 3,
    warmup: int = 1,
    workers: int | None = None,
    shard_size: int | None = None,
    n_train: int = 120,
    n_test: int = 60,
    epochs: int = 2,
    seed: int = 0,
) -> ThroughputReport:
    """Train a small model on ``benchmark`` and measure samples/sec."""
    from repro.core.inference import BitPackedUniVSA
    from repro.core.pipeline import run_benchmark
    from repro.data.registry import get_benchmark
    from repro.utils.trainloop import TrainConfig

    spec = get_benchmark(benchmark)
    run = run_benchmark(
        benchmark,
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
    x_test, y_test = run.data.x_test, run.data.y_test
    reps = -(-batch // max(1, len(x_test)))
    levels = np.concatenate([x_test] * reps)[:batch]
    labels = np.concatenate([y_test] * reps)[:batch]
    workers = resolve_workers(workers)

    engines: dict[str, EngineSample] = {}
    predictions: dict[str, np.ndarray] = {}

    # seed: legacy pipeline on legacy kernels, single thread.
    seed_engine = BitPackedUniVSA(run.artifacts, mode="legacy")
    seed_registry = MetricsRegistry()
    with using_kernels("legacy"), using_registry(seed_registry):
        best, mean, scores = _time_engine(seed_engine.scores, levels, repeats, warmup)
    engines["seed"] = EngineSample(
        "seed", batch / best, best, mean, repeats,
        stages=stage_breakdown(seed_registry, prefix="packed."),
    )
    predictions["seed"] = scores.argmax(axis=1)

    # fast: overhauled pipeline, fast kernels, single thread.
    fast_engine = BitPackedUniVSA(run.artifacts, mode="fast")
    fast_registry = MetricsRegistry()
    with using_kernels("fast"), using_registry(fast_registry):
        best, mean, scores = _time_engine(fast_engine.scores, levels, repeats, warmup)
    engines["fast"] = EngineSample(
        "fast", batch / best, best, mean, repeats,
        stages=stage_breakdown(fast_registry, prefix="packed."),
    )
    predictions["fast"] = scores.argmax(axis=1)

    # fused: single-pass tiled pipeline, fast kernels, single thread.
    fused_engine = BitPackedUniVSA(run.artifacts, mode="fused")
    fused_registry = MetricsRegistry()
    with using_kernels("fast"), using_registry(fused_registry):
        fused_engine.publish_traffic_metrics(fused_registry, batch=batch)
        best, mean, scores = _time_engine(fused_engine.scores, levels, repeats, warmup)
    engines["fused"] = EngineSample(
        "fused", batch / best, best, mean, repeats,
        stages=stage_breakdown(fused_registry, prefix="packed."),
    )
    predictions["fused"] = scores.argmax(axis=1)

    # parallel: fast engine under the fault-tolerant thread pool.  Chaos
    # comes from the environment (REPRO_CHAOS) so the same bench doubles
    # as the chaos-smoke entrypoint: under injected faults the runner must
    # still return an order-preserving batch with a populated report.
    chaos = ChaosSpec.from_env()
    parallel_registry = MetricsRegistry()
    with using_kernels("fast"), using_registry(
        parallel_registry
    ), ResilientBatchRunner(
        fast_engine,
        shard_size=shard_size,
        workers=workers,
        policy=RetryPolicy.from_env(),
        chaos=chaos,
    ) as runner:
        publish_kernel_metrics(parallel_registry)
        best, mean, result = _time_engine(runner.run, levels, repeats, warmup)
    stages = stage_breakdown(parallel_registry, prefix="packed.")
    stages.update(stage_breakdown(parallel_registry, prefix="batch."))
    engines["parallel"] = EngineSample(
        "parallel", batch / best, best, mean, repeats, stages=stages
    )
    report = result.report
    predictions["parallel"] = result.predictions

    traffic = {
        mode: BitPackedUniVSA(run.artifacts, mode=mode).traffic_model(batch=batch)
        for mode in ("legacy", "fast", "fused")
    }

    # A throughput number from a non-bit-exact engine would be garbage:
    # every engine must classify the workload identically.  Samples a
    # resilient runner excluded (quarantined or failed shards) carry the
    # sentinel label and are compared against nothing — the parallel
    # stage is masked by its report; under bitflip chaos divergence
    # is the injected corruption itself, so it is counted and reported
    # instead of asserted.
    included = np.ones(batch, dtype=bool)
    included[report.excluded] = False
    masks = {
        "fast": included,
        "fused": np.ones(batch, dtype=bool),
        "parallel": included,
    }
    mismatches = 0
    for name, mask in masks.items():
        diverged = int(
            (predictions[name][mask] != predictions["seed"][mask]).sum()
        )
        if chaos.bitflip_rate > 0:
            mismatches = max(mismatches, diverged)
        elif diverged:
            raise AssertionError(
                f"engine {name!r} diverged from the seed engine on "
                f"{diverged} non-excluded samples"
            )
    accuracy = (
        float((predictions["parallel"][included] == labels[included]).mean())
        if included.any()
        else 0.0
    )

    return ThroughputReport(
        benchmark=benchmark,
        batch=batch,
        repeats=repeats,
        workers=workers,
        shard_size=shard_size,
        accuracy=accuracy,
        kernels=kernel_info(),
        engines=engines,
        config=run.config,
        registry=parallel_registry,
        resilience=report.as_dict(),
        chaos=chaos.as_dict() if chaos.enabled else {},
        prediction_mismatches=mismatches,
        traffic=traffic,
    )
