"""Cross-process telemetry: the delta/merge protocol, and the batch
runner's determinism contract (serial ≡ thread merged totals).

The delta protocol is covered in-process with handcrafted deltas so
every merge rule is pinned without pool overhead.
"""

import os

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.obs import (
    NULL_REGISTRY,
    WORKER_GAUGE_SEP,
    MetricsRegistry,
    drain_worker_delta,
    install_worker_telemetry,
    merge_delta,
    registry_delta,
    using_registry,
)
from repro.obs.registry import set_registry
from repro.obs.telemetry import worker_telemetry_installed, worker_trace_rate
from repro.runtime import ResilientBatchRunner

LEVELS = 10
SHAPE = (5, 8)
CONFIG = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=LEVELS
)


@pytest.fixture(scope="module")
def engine():
    return BitPackedUniVSA(extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, seed=0)))


def _samples(n, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + SHAPE)


@pytest.fixture(autouse=True)
def _restore_globals():
    """install_worker_telemetry swaps the process-global registry; put the
    null registry (and the parent's no-telemetry state) back after each
    test so later tests see the usual zero-overhead default."""
    yield
    install_worker_telemetry(False)
    set_registry(NULL_REGISTRY)


class TestRegistryDelta:
    def test_delta_carries_full_state_and_pid(self):
        registry = MetricsRegistry()
        registry.counter("c").add(3)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(0.1)
        registry.histogram("h").observe(0.3)
        delta = registry_delta(registry)
        assert delta["pid"] == os.getpid()
        assert delta["counters"] == {"c": 3}
        assert delta["gauges"] == {"g": 2.5}
        assert delta["histograms"]["h"]["count"] == 2
        assert delta["histograms"]["h"]["total_s"] == pytest.approx(0.4)
        assert delta["histograms"]["h"]["samples"] == [0.1, 0.3]
        # No reset requested: the registry still holds everything.
        assert registry.counter("c").value == 3

    def test_reset_after_ship_empties_the_registry(self):
        registry = MetricsRegistry()
        registry.counter("c").add(3)
        registry.histogram("h").observe(0.1)
        registry_delta(registry, reset=True)
        second = registry_delta(registry)
        assert second["counters"] == {}
        assert second["histograms"] == {}


class TestMergeDelta:
    def _delta(self, pid=77):
        return {
            "pid": pid,
            "counters": {"packed.samples": 8, "zeroed": 0},
            "gauges": {"kernels.pack": 1.0},
            "histograms": {
                "packed.dvp": {"samples": [0.1, 0.2], "count": 2, "total_s": 0.3}
            },
        }

    def test_counters_sum_histograms_merge_gauges_tag(self):
        registry = MetricsRegistry()
        assert merge_delta(registry, self._delta(pid=77))
        assert merge_delta(registry, self._delta(pid=78))
        assert registry.counter("packed.samples").value == 16
        # Zero counters are skipped, not materialized.
        assert "zeroed" not in registry.counters()
        hist = registry.histogram("packed.dvp")
        assert hist.count == 4
        assert hist.total_seconds == pytest.approx(0.6)
        assert hist.samples() == [0.1, 0.1, 0.2, 0.2]
        # Gauges land tagged per worker pid, never summed or overwritten.
        gauges = registry.gauges()
        sep = WORKER_GAUGE_SEP
        assert f"kernels.pack{sep}77" in gauges
        assert f"kernels.pack{sep}78" in gauges
        assert "kernels.pack" not in gauges

    def test_none_delta_and_disabled_registry_merge_nothing(self):
        registry = MetricsRegistry()
        assert not merge_delta(registry, None)
        assert not merge_delta(NULL_REGISTRY, self._delta())
        assert registry.counters() == {}

    def test_worker_traces_park_in_parent_buffer(self):
        from repro.obs import recent_worker_traces

        registry = MetricsRegistry()
        delta = self._delta(pid=99)
        delta["traces"] = [{"root": "packed.classify", "duration_s": 0.01, "spans": []}]
        merge_delta(registry, delta)
        trace = recent_worker_traces()[-1]
        assert trace["worker_pid"] == 99
        assert trace["root"] == "packed.classify"


class TestWorkerInstall:
    def test_install_records_privately_then_drains_once(self):
        install_worker_telemetry(True)
        assert worker_telemetry_installed()
        from repro.obs import get_registry

        get_registry().counter("w.tasks").add(2)
        first = drain_worker_delta()
        assert first["counters"] == {"w.tasks": 2}
        # Reset-after-ship: a second drain has nothing left (idempotent —
        # this is what makes duplicate drain_pool tasks harmless).
        second = drain_worker_delta()
        assert second["counters"] == {}
        assert second["histograms"] == {}

    def test_disabled_install_keeps_null_path(self):
        install_worker_telemetry(False)
        assert not worker_telemetry_installed()
        assert drain_worker_delta() is None

    def test_worker_trace_rate_parsing(self):
        assert worker_trace_rate({}) == 0.0
        assert worker_trace_rate({"REPRO_WORKER_TRACE_RATE": "0.5"}) == 0.5
        assert worker_trace_rate({"REPRO_WORKER_TRACE_RATE": "7"}) == 1.0
        assert worker_trace_rate({"REPRO_WORKER_TRACE_RATE": "nope"}) == 0.0


class TestMergeDeterminism:
    """Serial ≡ thread: counter totals and per-stage histogram call
    counts must be identical when the sharding is.

    The packed engine records one ``packed.*`` observation per ``scores``
    call, so both paths run 40 samples as 4 shards of 10.
    """

    N, SHARD = 40, 10

    def _serial(self, engine, samples):
        registry = MetricsRegistry()
        with using_registry(registry):
            for start in range(0, self.N, self.SHARD):
                engine.scores(samples[start : start + self.SHARD])
        return registry

    def _pooled(self, engine, samples):
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=self.SHARD, workers=2
            ) as runner:
                runner.scores(samples)
        return registry

    @staticmethod
    def _packed_state(registry):
        counters = {
            name: c.value
            for name, c in registry.counters().items()
            if name.startswith("packed.")
        }
        stage_counts = {
            name: h.count
            for name, h in registry.histograms().items()
            if name.startswith("packed.")
        }
        return counters, stage_counts

    def test_serial_and_thread_agree(self, engine):
        samples = _samples(self.N, seed=7)
        serial = self._packed_state(self._serial(engine, samples))
        thread = self._packed_state(self._pooled(engine, samples))
        assert serial == thread
        counters, stage_counts = serial
        assert counters["packed.samples"] == self.N
        assert all(count == self.N // self.SHARD for count in stage_counts.values())
