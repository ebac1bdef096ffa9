"""bench_throughput: four engine configs, bit-exactness gate, report."""

import json

import numpy as np
import pytest

from repro.runtime import ThroughputReport, bench_throughput

ENGINES = {"seed", "fast", "fused", "parallel"}


@pytest.fixture(scope="module")
def report():
    return bench_throughput(
        "bci-iii-v",
        batch=24,
        repeats=2,
        warmup=0,
        workers=2,
        n_train=24,
        n_test=12,
        epochs=1,
        seed=0,
    )


class TestBenchThroughput:
    def test_every_engine_measured(self, report):
        assert set(report.engines) == ENGINES
        for engine in report.engines.values():
            assert engine.samples_per_s > 0
            assert engine.best_wall_s > 0
            assert engine.runs == 2

    def test_speedup_computed_from_parallel(self, report):
        seed = report.engines["seed"].samples_per_s
        parallel = report.engines["parallel"].samples_per_s
        assert report.speedup_vs_seed == pytest.approx(parallel / seed)

    def test_stage_breakdowns_present(self, report):
        assert any(
            name.startswith("packed.") for name in report.engines["seed"].stages
        )
        assert any(
            name.startswith("batch.") for name in report.engines["parallel"].stages
        )

    def test_kernels_recorded(self, report):
        assert report.kernels["set"] in ("fast", "legacy")
        assert "numpy" in report.kernels

    def test_traffic_models_per_mode(self, report):
        assert set(report.traffic) == {"legacy", "fast", "fused"}
        fused = report.traffic["fused"]
        fast = report.traffic["fast"]
        assert fused["peak_intermediate_mb"] < fast["peak_intermediate_mb"]
        assert fused["bytes_per_sample"] > 0

    def test_ledger_metrics_flat_and_complete(self, report):
        metrics = report.ledger_metrics()
        for key in (
            "batch",
            "workers",
            "accuracy",
            "speedup_vs_seed",
            "samples_per_s",
            "samples_per_s_seed",
            "samples_per_s_fast",
            "samples_per_s_fused",
            "intermediates_peak_mb",
            "traffic_bytes_per_sample_fused",
            "traffic_bytes_per_sample_fast",
        ):
            assert key in metrics
            assert np.isfinite(metrics[key])
        assert metrics["batch"] == 24.0

    def test_as_dict_round_trips_through_json(self, report):
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["benchmark"] == "bci-iii-v"
        assert payload["engines"]["fast"]["samples_per_s"] > 0
        assert payload["traffic"]["fused"]["mode"] == "fused"

    def test_render_mentions_every_engine(self, report):
        text = report.render()
        for name in ENGINES:
            assert name in text
        assert "speedup vs seed" in text


class TestSpeedupEdgeCases:
    def test_zero_seed_rate_gives_zero_speedup(self):
        report = ThroughputReport(
            benchmark="x",
            batch=1,
            repeats=1,
            workers=1,
            shard_size=None,
            accuracy=0.0,
            kernels={},
            engines={},
        )
        assert report.speedup_vs_seed == 0.0
