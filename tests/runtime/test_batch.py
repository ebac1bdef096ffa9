"""The batch runner: order preservation, sharding, observability."""

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.obs import MetricsRegistry, Tracer, using_registry, using_tracer
from repro.runtime import (
    ChaosSpec,
    CircuitOpenError,
    ResilientBatchRunner,
    RetryPolicy,
    resolve_workers,
)

LEVELS = 10
SHAPE = (5, 8)
CONFIG = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=LEVELS
)


def _mask():
    mask = np.zeros(SHAPE, dtype=np.int8)
    mask[::2] = 1
    return mask


@pytest.fixture(scope="module")
def engine():
    model = UniVSAModel(SHAPE, 3, CONFIG, mask=_mask(), seed=0)
    return BitPackedUniVSA(extract_artifacts(model))


def _levels_batch(n, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + SHAPE)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_garbage_env_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert resolve_workers() >= 1

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1


class TestSharding:
    def test_default_shards_are_order_covering(self, engine):
        runner = ResilientBatchRunner(engine, workers=2)
        spans = runner._shards(11)
        assert spans[0][0] == 0 and spans[-1][1] == 11
        rebuilt = [i for a, b in spans for i in range(a, b)]
        assert rebuilt == list(range(11))

    def test_explicit_shard_size(self, engine):
        runner = ResilientBatchRunner(engine, shard_size=4)
        assert runner._shards(10) == [(0, 4), (4, 8), (8, 10)]

    def test_shard_size_larger_than_batch(self, engine):
        runner = ResilientBatchRunner(engine, shard_size=100)
        assert runner._shards(3) == [(0, 3)]

    def test_effective_shard_size_exposed(self, engine):
        runner = ResilientBatchRunner(engine, workers=2)
        assert runner.effective_shard_size(16) == 4  # ceil(16 / (2*2))
        explicit = ResilientBatchRunner(engine, shard_size=7)
        assert explicit.effective_shard_size(100) == 7

    def test_degenerate_batch_smaller_than_workers(self, engine):
        """Regression: n < workers used to compute phantom empty shards;
        now the divisor caps at n, giving n single-sample shards."""
        runner = ResilientBatchRunner(engine, workers=8)
        assert runner.effective_shard_size(3) == 1
        spans = runner._shards(3)
        assert spans == [(0, 1), (1, 2), (2, 3)]
        assert all(b > a for a, b in spans)  # no empty shard, ever
        levels = _levels_batch(3, seed=9)
        with ResilientBatchRunner(engine, workers=8) as small:
            np.testing.assert_array_equal(
                small.scores(levels), engine.scores(levels)
            )

    def test_effective_shard_size_empty_batch(self, engine):
        assert ResilientBatchRunner(engine, workers=4).effective_shard_size(0) == 0
        assert ResilientBatchRunner(engine, workers=4)._shards(0) == []


class TestThreadedScores:
    def test_matches_direct_engine_and_preserves_order(self, engine):
        levels = _levels_batch(23, seed=1)
        expected = engine.scores(levels)
        with ResilientBatchRunner(engine, shard_size=5, workers=3) as runner:
            np.testing.assert_array_equal(runner.scores(levels), expected)
            np.testing.assert_array_equal(
                runner.predict(levels), expected.argmax(axis=1)
            )

    def test_single_worker_runs_inline(self, engine):
        levels = _levels_batch(8, seed=2)
        with ResilientBatchRunner(engine, shard_size=3, workers=1) as runner:
            np.testing.assert_array_equal(
                runner.scores(levels), engine.scores(levels)
            )
            assert runner._pool is None  # never spun up a pool

    def test_empty_batch(self, engine):
        with ResilientBatchRunner(engine, workers=2) as runner:
            scores = runner.scores(_levels_batch(0))
        assert scores.shape[0] == 0


class TestObservability:
    def test_metrics_and_spans(self, engine):
        levels = _levels_batch(10, seed=4)
        registry = MetricsRegistry()
        tracer = Tracer()
        with using_registry(registry), using_tracer(tracer):
            with ResilientBatchRunner(engine, shard_size=4, workers=2) as runner:
                runner.scores(levels)
        assert registry.counter("batch.samples").value == 10
        assert registry.counter("batch.shards").value == 3
        assert registry.gauge("batch.workers").value == 2
        assert registry.histogram("batch.shard").count == 3
        roots = [trace[0].name for trace in tracer.traces()]
        assert "batch.run" in roots
        run_root = next(t[0] for t in tracer.traces() if t[0].name == "batch.run")
        assert run_root.attrs["batch"] == 10
        assert run_root.attrs["shards"] == 3


class TestChaosRegression:
    """Order-preservation pins under injected faults, exercised through
    ``scores``."""

    def test_middle_shard_failure_retry_preserves_order(self, engine):
        """A failure on the middle shard's first attempt must not reorder
        results: the retried shard lands back in its span."""
        levels = _levels_batch(24, seed=6)
        expected = engine.scores(levels)
        with ResilientBatchRunner(
            engine,
            shard_size=8,
            workers=2,
            policy=RetryPolicy(max_retries=2, backoff_base_s=0.001),
            chaos=ChaosSpec(raise_on=frozenset({(1, 0)})),
        ) as runner:
            scores = runner.scores(levels)
        np.testing.assert_array_equal(scores, expected)
        middle = runner.last_report.shards[1]
        assert middle.status == "ok" and middle.retries >= 1

    def test_thread_executor_equals_serial_under_delay_chaos(self, engine):
        """Injected latency skews shard completion order; results must
        still equal the serial engine exactly."""
        levels = _levels_batch(21, seed=7)
        with ResilientBatchRunner(
            engine,
            shard_size=3,
            workers=4,
            policy=RetryPolicy(backoff_base_s=0.0, backoff_max_s=0.0),
            chaos=ChaosSpec(delay_s=0.002),
        ) as runner:
            np.testing.assert_array_equal(
                runner.scores(levels), engine.scores(levels)
            )
        assert runner.last_report.ok


class TestFailureCancelsSiblings:
    def test_failed_shard_cancels_queued_siblings(self):
        """Regression: when one shard raised, its queued siblings kept
        grinding through the pool; a plain run (no retry, no fallback,
        the breaker open at the first failure) must cancel what has not
        started before raising.  Markers 1/2 block both workers while
        marker 0 fails, so the marker-3 shard is still queued when the
        breaker opens — it must never execute."""
        import threading
        from types import SimpleNamespace

        release = threading.Event()
        executed = []

        class _Engine:
            mode = "fast"
            input_shape = (1,)
            n_levels = 4
            artifacts = SimpleNamespace(n_classes=3)

            def scores(self, levels):
                marker = int(levels[0, 0])
                if marker == 0:
                    raise RuntimeError("shard zero exploded")
                release.wait(timeout=10.0)
                executed.append(marker)
                return np.zeros((len(levels), 3))

        levels = np.arange(4, dtype=np.int64)[:, None]
        plain = RetryPolicy(max_retries=0, fallback=False, breaker_threshold=1)
        with ResilientBatchRunner(
            _Engine(), shard_size=1, workers=2, policy=plain
        ) as runner:
            with pytest.raises(CircuitOpenError) as raised:
                runner.scores(levels)
            # cancellation already happened; unblock the in-flight shards
            release.set()
        assert 3 not in executed
        report = raised.value.report
        assert report.shards[0].errors == ["RuntimeError"]
        assert report.shards[3].status == "skipped"

