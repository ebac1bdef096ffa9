"""Resilient serving: validation, retry/fallback ladder, breaker, reports."""

import threading

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.obs import MetricsRegistry, using_registry
from repro.runtime import (
    BatchReport,
    ChaosSpec,
    CircuitOpenError,
    ResilientBatchRunner,
    RetryPolicy,
    serving_predict_fn,
    validate_levels,
)
from repro.runtime.resilience import QUARANTINED_LABEL

LEVELS = 10
SHAPE = (5, 8)
CONFIG = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=LEVELS
)

# A policy with no sleep between retries: ladder tests exercise the
# control flow, not the backoff clock.
FAST_POLICY = RetryPolicy(max_retries=2, backoff_base_s=0.0, backoff_max_s=0.0)


@pytest.fixture(scope="module")
def engine():
    model = UniVSAModel(SHAPE, 3, CONFIG, seed=0)
    return BitPackedUniVSA(extract_artifacts(model), mode="fast")


def _levels_batch(n, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + SHAPE)


class TestRetryPolicy:
    def test_from_env(self):
        policy = RetryPolicy.from_env(
            {
                "REPRO_RETRIES": "4",
                "REPRO_SHARD_TIMEOUT_S": "2.5",
                "REPRO_FALLBACK": "0",
                "REPRO_BREAKER": "3",
                "REPRO_VALIDATE": "false",
            }
        )
        assert policy.max_retries == 4
        assert policy.timeout_s == pytest.approx(2.5)
        assert policy.fallback is False
        assert policy.breaker_threshold == 3
        assert policy.validate is False

    def test_from_env_defaults(self):
        policy = RetryPolicy.from_env({})
        assert policy == RetryPolicy()

    def test_from_env_reads_backoff_max_and_seed(self):
        # Regression: these keys were documented but never read, so env
        # tuning silently kept the defaults.
        policy = RetryPolicy.from_env(
            {
                "REPRO_BACKOFF_S": "0.5",
                "REPRO_BACKOFF_MAX_S": "7.5",
                "REPRO_RETRY_SEED": "42",
            }
        )
        assert policy.backoff_base_s == pytest.approx(0.5)
        assert policy.backoff_max_s == pytest.approx(7.5)
        assert policy.seed == 42
        # The seed must actually steer the jitter stream.
        assert policy.backoff_s(0, 1) != RetryPolicy.from_env({}).backoff_s(0, 1)

    def test_from_env_zero_timeout_is_loud(self):
        # Regression: ``timeout_s=... or None`` read an explicit "0" as
        # "no deadline"; a zero deadline is a misconfiguration and must
        # raise instead of silently disabling the timeout.
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy.from_env({"REPRO_SHARD_TIMEOUT_S": "0"})

    def test_garbage_env_falls_through(self):
        policy = RetryPolicy.from_env({"REPRO_RETRIES": "lots"})
        assert policy.max_retries == RetryPolicy.max_retries

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(breaker_threshold=0)

    def test_backoff_deterministic_jittered_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.02, backoff_max_s=0.05)
        first = policy.backoff_s(3, 1)
        assert first == policy.backoff_s(3, 1)  # same (shard, attempt) key
        assert first != policy.backoff_s(3, 2)
        for attempt in (1, 2, 3, 8):
            delay = policy.backoff_s(0, attempt)
            assert 0.0 < delay < 0.05 * 1.5  # capped base times max jitter


class TestValidateLevels:
    def test_clean_batch_passes_through(self):
        levels = _levels_batch(6)
        clean, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {}
        np.testing.assert_array_equal(good, np.arange(6))
        np.testing.assert_array_equal(clean, levels)

    def test_nan_inf_quarantined(self):
        levels = _levels_batch(4).astype(np.float64)
        levels[1, 0, 0] = np.nan
        levels[3, 2, 1] = np.inf
        clean, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {1: "non-finite", 3: "non-finite"}
        np.testing.assert_array_equal(good, [0, 2])
        assert clean.shape[0] == 2

    def test_non_integral_quarantined(self):
        levels = _levels_batch(3).astype(np.float32)
        levels[2, 0, 0] = 1.5
        _, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {2: "non-integral"}
        np.testing.assert_array_equal(good, [0, 1])

    def test_out_of_range_quarantined(self):
        levels = _levels_batch(3)
        levels[0, 0, 0] = LEVELS  # one past the top level
        levels[1, 0, 0] = -2
        _, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {0: "out-of-range", 1: "out-of-range"}
        np.testing.assert_array_equal(good, [2])

    def test_shape_mismatch_is_caller_bug(self):
        with pytest.raises(ValueError, match="per-sample shape"):
            validate_levels(np.zeros((2, 3, 3), dtype=np.int64), SHAPE, LEVELS)

    def test_non_numeric_dtype_rejected(self):
        bad = np.full((1,) + SHAPE, "x", dtype=object)
        with pytest.raises(TypeError):
            validate_levels(bad, SHAPE, LEVELS)

    def test_single_sample_promoted(self):
        clean, good, quarantined = validate_levels(
            _levels_batch(1)[0], SHAPE, LEVELS
        )
        assert clean.shape[0] == 1 and good.size == 1 and not quarantined

    def test_bool_batch_is_valid_binary_levels(self):
        # bool is a legitimate 2-level encoding: it must pass untouched,
        # not be rejected as non-numeric or flagged out-of-range.
        levels = np.random.default_rng(0).integers(0, 2, size=(4,) + SHAPE).astype(bool)
        clean, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {}
        np.testing.assert_array_equal(good, np.arange(4))
        np.testing.assert_array_equal(clean, levels.astype(np.intp))

    def test_bool_batch_out_of_range_when_binary_exceeds_levels(self):
        # With a single-level codebook even True is out of range.
        levels = np.ones((2,) + SHAPE, dtype=bool)
        _, good, quarantined = validate_levels(levels, SHAPE, n_levels=1)
        assert good.size == 0
        assert quarantined == {0: "out-of-range", 1: "out-of-range"}

    def test_empty_batch_passes_with_empty_clean(self):
        clean, good, quarantined = validate_levels(
            np.zeros((0,) + SHAPE, dtype=np.int64), SHAPE, LEVELS
        )
        assert clean.shape == (0,) + SHAPE
        assert good.size == 0 and quarantined == {}

    def test_single_sample_promotion_validates_content(self):
        # Promotion via levels[None] must still run the full checks.
        sample = np.full(SHAPE, np.nan)
        _, good, quarantined = validate_levels(sample, SHAPE, LEVELS)
        assert good.size == 0 and quarantined == {0: "non-finite"}

    def test_mixed_reasons_keep_first_reason_precedence(self):
        # A row that is both non-finite and out-of-range reports the
        # reason detected first; distinct bad rows keep their own reasons.
        levels = _levels_batch(5).astype(np.float64)
        levels[1, 0, 0] = np.nan
        levels[1, 0, 1] = LEVELS + 3  # also out of range
        levels[2, 0, 0] = -4.0  # purely out of range
        levels[4, 0, 0] = 2.5  # non-integral, and 2.5 is in range
        _, good, quarantined = validate_levels(levels, SHAPE, LEVELS)
        assert quarantined == {
            1: "non-finite",
            2: "out-of-range",
            4: "non-integral",
        }
        np.testing.assert_array_equal(good, [0, 3])


class TestHealthyPath:
    def test_matches_plain_engine_and_reports_clean(self, engine):
        levels = _levels_batch(23, seed=1)
        expected = engine.scores(levels)
        with ResilientBatchRunner(
            engine, shard_size=5, workers=3, policy=FAST_POLICY, chaos=ChaosSpec()
        ) as runner:
            result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, expected)
        np.testing.assert_array_equal(result.predictions, expected.argmax(axis=1))
        report = result.report
        assert isinstance(report, BatchReport)
        assert report.ok and not report.degraded
        assert report.retries == 0 and report.fallbacks == 0
        assert [s.status for s in report.shards] == ["ok"] * len(report.shards)
        assert runner.last_report is report

    def test_scores_predict_stay_drop_in(self, engine):
        levels = _levels_batch(9, seed=2)
        with ResilientBatchRunner(
            engine, shard_size=4, workers=2, policy=FAST_POLICY, chaos=ChaosSpec()
        ) as runner:
            np.testing.assert_array_equal(runner.scores(levels), engine.scores(levels))
            np.testing.assert_array_equal(
                runner.predict(levels), engine.predict(levels)
            )

    @pytest.mark.parametrize("mode", ["fused", "legacy"])
    def test_shards_report_the_serving_engine_mode(self, engine, mode):
        serving = engine.sibling(mode)
        levels = _levels_batch(12, seed=3)
        with ResilientBatchRunner(
            serving, shard_size=4, workers=2, policy=FAST_POLICY, chaos=ChaosSpec()
        ) as runner:
            result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, serving.scores(levels))
        assert [s.engine for s in result.report.shards] == [mode] * 3
        assert [s.as_dict()["engine"] for s in result.report.shards] == [mode] * 3

    def test_empty_batch(self, engine):
        with ResilientBatchRunner(engine, policy=FAST_POLICY, chaos=ChaosSpec()) as r:
            result = r.run(_levels_batch(0))
        assert result.scores.shape[0] == 0
        assert result.report.batch == 0 and result.report.ok


class TestRetry:
    def test_targeted_fault_is_retried_bit_exact(self, engine):
        levels = _levels_batch(20, seed=3)
        chaos = ChaosSpec(raise_on=frozenset({(1, 0)}))
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=5, workers=2, policy=FAST_POLICY, chaos=chaos
            ) as runner:
                result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        status = result.report.shards[1]
        assert status.status == "ok"
        assert status.retries == 1 and status.attempts == 2
        assert status.errors == ["ChaosError"]
        assert result.report.shards[0].retries == 0
        assert registry.counter("resilience.retries").value == 1
        assert registry.counter("resilience.chaos_faults").value == 1
        assert registry.histogram("batch.retry").count == 1

    def test_inline_single_worker_ladder(self, engine):
        """workers=1 thread mode never builds a pool but still retries."""
        levels = _levels_batch(10, seed=4)
        chaos = ChaosSpec(raise_on=frozenset({(0, 0), (1, 0)}))
        with ResilientBatchRunner(
            engine, shard_size=5, workers=1, policy=FAST_POLICY, chaos=chaos
        ) as runner:
            result = runner.run(levels)
            assert runner._pool is None
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        assert result.report.retries == 2

    def test_chaos_raise_acceptance_batch(self, engine):
        """Batch 256 on a 2-worker pool under ``raise:0.1`` chaos
        completes order-preserving and bit-exact."""
        levels = _levels_batch(256, seed=11)
        chaos = ChaosSpec.parse("raise:0.1", seed=7)
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine,
                shard_size=16,
                workers=2,
                policy=RetryPolicy(max_retries=3, backoff_base_s=0.001),
                chaos=chaos,
            ) as runner:
                result = runner.run(levels)
        report = result.report
        assert report.batch == 256
        assert len(report.shards) == 16
        assert all(s.status in ("ok", "fallback") for s in report.shards)
        assert report.retries > 0  # chaos actually fired at this seed
        np.testing.assert_array_equal(
            result.predictions, engine.scores(levels).argmax(axis=1)
        )
        assert registry.counter("resilience.retries").value == report.retries


class TestFallback:
    def test_exhausted_retries_fall_back_to_seed_engine(self, engine):
        levels = _levels_batch(12, seed=5)
        # Shard 1 fails every pool attempt (initial + 2 retries); the
        # fallback attempt (index 3) is not targeted and succeeds.
        chaos = ChaosSpec(raise_on=frozenset({(1, 0), (1, 1), (1, 2)}))
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, policy=FAST_POLICY, chaos=chaos
            ) as runner:
                result = runner.run(levels)
        # REPRO_ENGINE parity: the legacy fallback is bit-exact.
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        status = result.report.shards[1]
        assert status.status == "fallback" and status.engine == "seed"
        assert status.retries == 2
        assert result.report.fallbacks == 1 and result.report.degraded
        assert result.report.ok  # degraded but every sample served
        assert registry.counter("resilience.fallbacks").value == 1

    def test_fallback_disabled_fails_shard(self, engine):
        levels = _levels_batch(12, seed=6)
        chaos = ChaosSpec(raise_on=frozenset({(1, 0), (1, 1)}))
        policy = RetryPolicy(
            max_retries=1, backoff_base_s=0.0, backoff_max_s=0.0, fallback=False
        )
        with ResilientBatchRunner(
            engine, shard_size=4, workers=2, policy=policy, chaos=chaos
        ) as runner:
            result = runner.run(levels)
        report = result.report
        assert report.shards[1].status == "failed"
        assert report.failed_samples == [4, 5, 6, 7]
        assert not report.ok
        np.testing.assert_array_equal(
            result.predictions[4:8], [QUARANTINED_LABEL] * 4
        )
        np.testing.assert_array_equal(result.scores[4:8], 0)
        # The other shards are untouched.
        expected = engine.scores(levels)
        np.testing.assert_array_equal(result.scores[:4], expected[:4])
        np.testing.assert_array_equal(result.scores[8:], expected[8:])


class TestQuarantine:
    def test_bad_samples_are_isolated_not_fatal(self, engine):
        levels = _levels_batch(10, seed=7).astype(np.float64)
        levels[2, 0, 0] = np.nan
        levels[7, 0, 0] = np.inf
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, policy=FAST_POLICY, chaos=ChaosSpec()
            ) as runner:
                result = runner.run(levels)
        report = result.report
        assert report.batch == 10
        assert set(report.quarantined) == {2, 7}
        assert report.excluded == [2, 7]
        good = [i for i in range(10) if i not in (2, 7)]
        expected = engine.scores(levels[good].astype(np.int64))
        np.testing.assert_array_equal(result.scores[good], expected)
        assert result.predictions[2] == QUARANTINED_LABEL
        assert result.predictions[7] == QUARANTINED_LABEL
        assert registry.counter("resilience.quarantined").value == 2

    def test_validation_can_be_disabled(self, engine):
        levels = _levels_batch(6, seed=8)
        policy = RetryPolicy(backoff_base_s=0.0, backoff_max_s=0.0, validate=False)
        with ResilientBatchRunner(
            engine, shard_size=3, policy=policy, chaos=ChaosSpec()
        ) as runner:
            result = runner.run(levels)
        assert result.report.quarantined == {}
        np.testing.assert_array_equal(result.scores, engine.scores(levels))


class TestBreaker:
    def test_consecutive_failures_trip_the_breaker(self, engine):
        levels = _levels_batch(24, seed=9)
        chaos = ChaosSpec(raise_rate=1.0)  # every attempt fails
        policy = RetryPolicy(
            max_retries=0,
            backoff_base_s=0.0,
            backoff_max_s=0.0,
            fallback=False,
            breaker_threshold=2,
        )
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, policy=policy, chaos=chaos
            ) as runner:
                with pytest.raises(CircuitOpenError) as exc_info:
                    runner.run(levels)
        report = exc_info.value.report
        assert report.breaker_open
        statuses = [s.status for s in report.shards]
        assert statuses[:2] == ["failed", "failed"]
        assert statuses[2:] == ["skipped"] * 4  # fail fast, no more attempts
        assert runner.last_report is report
        assert registry.gauge("resilience.breaker_open").value == 1.0

    def test_fallback_success_resets_the_count(self, engine):
        levels = _levels_batch(24, seed=10)
        chaos = ChaosSpec(raise_on=frozenset({(i, 0) for i in range(6)}))
        policy = RetryPolicy(
            max_retries=0,
            backoff_base_s=0.0,
            backoff_max_s=0.0,
            fallback=True,
            breaker_threshold=2,
        )
        with ResilientBatchRunner(
            engine, shard_size=4, workers=2, policy=policy, chaos=chaos
        ) as runner:
            result = runner.run(levels)  # must NOT raise
        assert not result.report.breaker_open
        assert result.report.fallbacks == 6
        np.testing.assert_array_equal(result.scores, engine.scores(levels))


class TestPipelinedConcurrency:
    """Concurrent batches through ONE shared runner stay bit-exact.

    This is what ``max_inflight=2`` serving does: two executor threads
    interleave ``runner.run()`` on the same thread pool and engine, with
    micro-batches of varying sizes."""

    def test_concurrent_varied_batches_bit_exact(self, engine):
        registry = MetricsRegistry()
        failures = []
        with using_registry(registry):
            with ResilientBatchRunner(
                engine,
                shard_size=8,
                workers=2,
                policy=FAST_POLICY,
                chaos=ChaosSpec(),
            ) as runner:

                def drive(tid):
                    gen = np.random.default_rng(tid)
                    for it in range(6):
                        n = int(gen.integers(17, 33))
                        levels = _levels_batch(n, seed=tid * 100 + it)
                        result = runner.run(levels)
                        expected = engine.scores(levels)
                        if not np.array_equal(result.scores, expected):
                            failures.append((tid, it, "scores diverged"))
                        bad = [
                            (s.index, s.status, s.errors)
                            for s in result.report.shards
                            if s.status != "ok" or s.errors
                        ]
                        if bad:
                            failures.append((tid, it, bad))

                threads = [
                    threading.Thread(target=drive, args=(t,)) for t in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        assert failures == []
        assert registry.counter("resilience.errors").value == 0


def _batch_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("repro-batch")}


class TestNoLeakedThreads:
    """Closing a runner joins its pool: no ``repro-batch`` thread it
    started outlives it, whether the batch succeeded under chaos or the
    breaker tripped."""

    def test_closed_runner_leaves_no_thread_under_chaos(self, engine):
        levels = _levels_batch(64, seed=21)
        chaos = ChaosSpec.parse("raise:0.1,delay:1ms", seed=3)
        before = _batch_threads()
        with ResilientBatchRunner(
            engine, shard_size=8, workers=2, policy=FAST_POLICY, chaos=chaos
        ) as runner:
            result = runner.run(levels)
            started = _batch_threads() - before
        assert started  # the pool really ran
        assert result.report.retries > 0  # and chaos really fired
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        assert not any(t.is_alive() for t in started)

    def test_no_thread_survives_an_open_breaker(self, engine):
        levels = _levels_batch(32, seed=22)
        chaos = ChaosSpec(raise_rate=1.0, delay_s=0.001)
        plain = RetryPolicy(max_retries=0, fallback=False, breaker_threshold=1)
        before = _batch_threads()
        runner = ResilientBatchRunner(
            engine, shard_size=8, workers=2, policy=plain, chaos=chaos
        )
        try:
            with pytest.raises(CircuitOpenError):
                runner.run(levels)
            started = _batch_threads() - before
        finally:
            runner.close()
        assert started
        assert not any(t.is_alive() for t in started)


class TestInlineBitflip:
    def test_single_shard_inline_bitflip(self, engine):
        """Bitflip chaos must reach a shard that runs inline on the
        calling thread, not only shards on pool threads."""
        levels = _levels_batch(8, seed=17)
        chaos = ChaosSpec(bitflip_rate=0.05, seed=3)
        with ResilientBatchRunner(
            engine,
            shard_size=64,
            workers=2,
            policy=FAST_POLICY,
            chaos=chaos,
        ) as runner:
            result = runner.run(levels)
            assert runner._pool is None  # inline path, no pool built
        assert not np.array_equal(result.scores, engine.scores(levels))


class _CountingEngine:
    """Forwarding engine proxy that counts ``scores`` calls."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = 0

    def scores(self, levels):
        self.calls += 1
        return self._engine.scores(levels)

    def __getattr__(self, name):
        return getattr(self._engine, name)


class TestTimeout:
    def test_late_result_collected_instead_of_recomputing(self, engine):
        """A timed-out thread attempt cannot be interrupted; when it
        finishes during the retry backoff its result is collected rather
        than paying for a redundant resubmission."""
        counting = _CountingEngine(engine)
        levels = _levels_batch(8, seed=18)
        chaos = ChaosSpec(delay_on=frozenset({(0, 0)}))  # shard 0 sleeps 50ms
        policy = RetryPolicy(
            max_retries=2, timeout_s=0.01, backoff_base_s=0.5, backoff_max_s=0.5
        )
        with ResilientBatchRunner(
            counting, shard_size=4, workers=2, policy=policy, chaos=chaos
        ) as runner:
            result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        status = result.report.shards[0]
        assert status.status == "ok"
        assert status.retries == 1
        assert "TimeoutError" in status.errors
        # One computation per shard: the abandoned attempt's late result
        # was reused, shard 0 was never recomputed.
        assert counting.calls == 2


class TestServingPredictFn:
    def test_routes_through_resilient_runner(self, engine):
        predict = serving_predict_fn(
            workers=2, shard_size=8, policy=FAST_POLICY, chaos=ChaosSpec()
        )
        levels = _levels_batch(20, seed=13)
        np.testing.assert_array_equal(
            predict(engine.artifacts, levels),
            engine.scores(levels).argmax(axis=1),
        )

    def test_fault_sweep_integration(self, engine):
        from repro.hw import fault_sweep

        levels = _levels_batch(24, seed=14)
        labels = engine.predict(levels)
        report = fault_sweep(
            engine.artifacts,
            levels,
            labels,
            flip_fractions=(0.0, 0.4),
            seed=0,
            predict_fn=serving_predict_fn(
                workers=2, shard_size=8, policy=FAST_POLICY, chaos=ChaosSpec()
            ),
        )
        assert report.baseline_accuracy == pytest.approx(1.0)
        assert report.accuracies[0] == pytest.approx(1.0)  # 0-flip point


class TestLedgerHarvest:
    def test_resilience_metrics_land_in_run_records(self, engine, tmp_path):
        from repro.obs import record_run

        levels = _levels_batch(16, seed=15)
        chaos = ChaosSpec(raise_on=frozenset({(0, 0)}))
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, policy=FAST_POLICY, chaos=chaos
            ) as runner:
                runner.run(levels)
            record = record_run(
                "chaos",
                "unit",
                ledger_path=tmp_path / "ledger.jsonl",
                registry=registry,
            )
        assert record.metrics["resilience.retries"] == 1.0
        assert record.metrics["resilience.breaker_open"] == 0.0
