"""Zero-copy shared-memory shard handoff: lifecycle, parity, leak checks.

The contract under test: the parent owns every segment (create + unlink,
exactly once per batch, even across crash recovery), workers only ever
attach read-only views, and nothing with the ``repro-shm`` prefix
survives a runner — the ``leaked_segments()`` sweep is asserted after
every scenario including injected process crashes.
"""

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.obs import MetricsRegistry, using_registry
from repro.runtime import (
    ChaosSpec,
    ResilientBatchRunner,
    RetryPolicy,
    SharedArray,
    attach_view,
    leaked_segments,
    resolve_shm,
)
from repro.runtime.shm import SHM_PREFIX, evict_attachments

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


@pytest.fixture(autouse=True)
def _no_leaks_around_each_test():
    assert leaked_segments() == [], "pre-existing segment leak"
    yield
    evict_attachments()
    assert leaked_segments() == [], "test leaked a shared-memory segment"


class TestSharedArray:
    def test_round_trip_and_descriptor(self):
        data = np.arange(24, dtype=np.intp).reshape(4, 6)
        with SharedArray(data) as shared:
            assert shared.name.startswith(SHM_PREFIX)
            np.testing.assert_array_equal(shared.view(), data)
            name, shape, dtype_str = shared.descriptor()
            assert tuple(shape) == (4, 6)
            assert np.dtype(dtype_str) == data.dtype
            assert shared.nbytes == data.nbytes
            assert leaked_segments() == [shared.name]

    def test_dispose_unlinks_and_is_idempotent(self):
        shared = SharedArray(np.zeros((3, 3)))
        name = shared.name
        assert leaked_segments() == [name]
        shared.dispose()
        assert leaked_segments() == []
        shared.dispose()  # second call is a no-op, not an error

    def test_attach_view_is_read_only_zero_copy_slice(self):
        data = np.arange(40, dtype=np.int64).reshape(10, 4)
        with SharedArray(data) as shared:
            view = attach_view(shared.descriptor(), 2, 7)
            np.testing.assert_array_equal(view, data[2:7])
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0, 0] = -1
            evict_attachments()  # release the mapping before unlink


class TestAttachmentPinning:
    """Live views must pin their mapping across attach-cache eviction.

    The worker's attach cache is a bounded LRU: pipelined serving with
    varied micro-batch sizes churns enough segment names to evict any
    entry — including the operand plane the engine's resident views
    alias.  A view built over an evicted attachment must keep the pages
    mapped (np.frombuffer's buffer export); the old np.ndarray(buffer=)
    construction let the munmap through, and workers then segfaulted or
    silently read recycled pages mid-``scores``.
    """

    def test_view_survives_eviction(self):
        data = np.arange(40, dtype=np.int64).reshape(10, 4)
        with SharedArray(data) as shared:
            view = attach_view(shared.descriptor(), 2, 7)
            evict_attachments()  # simulates LRU pressure mid-task
            np.testing.assert_array_equal(view, data[2:7])
            del view
            evict_attachments()

    def test_writable_view_write_lands_after_eviction(self):
        with SharedArray.allocate((6, 3), np.int64) as shared:
            out = attach_view(shared.descriptor(), 1, 4, writable=True)
            evict_attachments()
            out[...] = np.arange(9).reshape(3, 3)
            np.testing.assert_array_equal(
                shared.view()[1:4], np.arange(9).reshape(3, 3)
            )
            del out
            evict_attachments()

    def test_plane_views_survive_eviction(self):
        from repro.runtime.shm import OperandPlane, attach_plane

        arrays = {
            "table": np.arange(64, dtype=np.uint64).reshape(8, 8),
            "bytes": np.arange(24, dtype=np.uint8),
        }
        plane = OperandPlane(arrays, {"tag": 7})
        try:
            attached, meta = attach_plane(plane.descriptor())
            assert meta == {"tag": 7}
            evict_attachments()  # the engine outlives cache entries
            for name, original in arrays.items():
                np.testing.assert_array_equal(attached[name], original)
                assert not attached[name].flags.writeable
        finally:
            attached = None
            evict_attachments()
            plane.dispose()

    def test_view_survives_lru_churn(self):
        """Churning >cache-size distinct names must not unmap the first."""
        from repro.runtime.shm import _ATTACH_CACHE_SIZE

        data = np.arange(30, dtype=np.int64).reshape(5, 6)
        keep = SharedArray(data)
        churn = [
            SharedArray(np.full((2, 2), i, dtype=np.int64))
            for i in range(_ATTACH_CACHE_SIZE + 4)
        ]
        try:
            view = attach_view(keep.descriptor(), 0, 5)
            for seg in churn:  # evicts ``keep``'s attachment from the LRU
                attach_view(seg.descriptor(), 0, 2)
            np.testing.assert_array_equal(view, data)
        finally:
            del view
            evict_attachments()
            keep.dispose()
            for seg in churn:
                seg.dispose()


class TestResolveShm:
    def test_thread_executor_never_uses_shm(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        assert resolve_shm(None, "thread") is False
        assert resolve_shm(True, "thread") is False

    def test_process_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM", raising=False)
        assert resolve_shm(None, "process") is True

    @pytest.mark.parametrize("off", ["0", "false", "no", "off"])
    def test_env_switch_off(self, monkeypatch, off):
        monkeypatch.setenv("REPRO_SHM", off)
        assert resolve_shm(None, "process") is False

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        assert resolve_shm(True, "process") is True
        monkeypatch.setenv("REPRO_SHM", "1")
        assert resolve_shm(False, "process") is False


class TestBatchRunnerShm:
    def test_process_shm_matches_direct_engine(self, engine):
        levels = _levels_batch(12, seed=1)
        expected = engine.scores(levels)
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, executor="process", shm=True
            ) as runner:
                assert runner.use_shm
                np.testing.assert_array_equal(runner.scores(levels), expected)
        # request plane + result plane, one segment each
        assert registry.counter("batch.shm.segments").value == 2
        out_bytes = 12 * engine.artifacts.n_classes * np.dtype(np.int64).itemsize
        assert (
            registry.counter("batch.shm.bytes_shared").value
            == levels.nbytes + out_bytes
        )
        # workers report their attaches through the telemetry delta
        assert registry.counter("batch.shm.attach").value >= 1
        assert registry.counter("batch.bytes_pickled").value == 0
        # the return leg is spans, not pickled score arrays
        assert registry.counter("batch.bytes_pickled_return").value == 0

    def test_process_without_shm_pickles(self, engine):
        levels = _levels_batch(8, seed=2)
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, executor="process", shm=False
            ) as runner:
                np.testing.assert_array_equal(
                    runner.scores(levels), engine.scores(levels)
                )
        assert registry.counter("batch.shm.segments").value == 0
        assert registry.counter("batch.bytes_pickled").value == levels.nbytes

    def test_unpublishable_operand_plane_falls_back_to_artifacts(
        self, engine, monkeypatch
    ):
        """Where the operand plane cannot be published, process workers
        bootstrap from pickled artifacts instead — bit-exact, with no
        plane counted — and a repair rebuilds the pool from the new
        engine's artifacts."""
        from repro.runtime import resilience

        def _refuse(*args, **kwargs):
            raise OSError("no shared memory for the operand plane")

        monkeypatch.setattr(resilience, "OperandPlane", _refuse)
        other = BitPackedUniVSA(
            extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, mask=_mask(), seed=7))
        )
        levels = _levels_batch(12, seed=13)
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, executor="process", shm=True
            ) as runner:
                np.testing.assert_array_equal(
                    runner.scores(levels), engine.scores(levels)
                )
                assert not runner.use_plane and runner._plane is None
                runner.replace_engine(other)
                np.testing.assert_array_equal(
                    runner.scores(levels), other.scores(levels)
                )
        assert registry.counter("batch.shm.plane_published").value == 0
        assert registry.counter("batch.shm.attach").value == 6  # one per shard


class TestResilientShm:
    def test_clean_run_populates_report(self, engine):
        levels = _levels_batch(16, seed=3)
        with ResilientBatchRunner(
            engine, shard_size=4, workers=2, executor="process", shm=True
        ) as runner:
            result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, engine.scores(levels))
        report = result.report
        assert report.ok
        assert report.shard_size == 4
        assert report.n_shards == 4
        out_bytes = 16 * engine.artifacts.n_classes * np.dtype(np.int64).itemsize
        assert report.shm_bytes == levels.nbytes + out_bytes
        payload = report.as_dict()
        assert payload["shard_size"] == 4
        assert payload["n_shards"] == 4
        assert payload["shm_bytes"] == levels.nbytes + out_bytes

    def test_crash_recovery_reshares_and_never_leaks(self, engine):
        """A crashed worker breaks the pool mid-batch: recovery must
        replace the pool, re-share the segment under a fresh name, and
        still produce bit-exact results with zero leftover segments."""
        levels = _levels_batch(24, seed=4)
        expected = engine.scores(levels)
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine,
                shard_size=8,
                workers=2,
                executor="process",
                shm=True,
                policy=RetryPolicy(max_retries=2, backoff_base_s=0.001),
                chaos=ChaosSpec(crash_on=frozenset({(1, 0)})),
            ) as runner:
                result = runner.run(levels)
        np.testing.assert_array_equal(result.scores, expected)
        assert result.report.shards[1].retries >= 1
        # initial request+result shares plus a re-share of both per pool
        # replacement
        assert registry.counter("batch.shm.segments").value >= 4
        assert registry.counter("batch.bytes_pickled_return").value == 0

    def test_telemetry_gating_keeps_init_attaches_out_of_deltas(self, engine):
        """Satellite regression: worker-side shm counters are gated on
        the telemetry-install flag, and the operand-plane attach in the
        pool *initializer* happens before telemetry installs — so clean
        batches report exactly one ``batch.shm.attach`` per shard and
        zero ``batch.shm.plane_attach`` (no init-work leaking into
        deltas, no parent/worker asymmetry)."""
        levels = _levels_batch(16, seed=8)
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine, shard_size=4, workers=2, executor="process", shm=True
            ) as runner:
                runner.scores(levels)
        assert registry.counter("batch.shm.attach").value == 4  # one per shard
        assert registry.counter("batch.shm.plane_attach").value == 0

    def test_shard_failure_still_disposes_segment(self, engine):
        """Exhausting the ladder on one shard must not leak the batch
        segment — disposal is in a finally, not on the happy path."""
        levels = _levels_batch(12, seed=5)
        with ResilientBatchRunner(
            engine,
            shard_size=4,
            workers=2,
            executor="process",
            shm=True,
            policy=RetryPolicy(
                max_retries=0, fallback=False, backoff_base_s=0.001,
                breaker_threshold=5,
            ),
            chaos=ChaosSpec(crash_on=frozenset({(0, 0), (0, 1)})),
        ) as runner:
            result = runner.run(levels)
        assert result.report.shards[0].status == "failed"
        assert sorted(result.report.failed_samples) == list(range(4))


class TestSegmentChurn:
    """Arena behaviour under sustained-batch churn:
    same-shape batches must reuse segments (names stay stable so worker
    attach caches keep hitting), crash recovery must discard-and-replace
    without leaking, and an operand-plane generation bump must
    invalidate worker attach caches."""

    def test_arena_reuses_segments_across_same_shape_batches(self, engine):
        levels = _levels_batch(12, seed=10)
        expected = engine.scores(levels)
        with ResilientBatchRunner(
            engine, shard_size=4, workers=2, executor="process", shm=True
        ) as runner:
            np.testing.assert_array_equal(runner.scores(levels), expected)
            first = (runner._arena.allocated, runner._arena.reused)
            for _ in range(3):
                np.testing.assert_array_equal(runner.scores(levels), expected)
            # batch 1 allocates request+result; batches 2-4 reuse both
            assert runner._arena.allocated == first[0] == 2
            assert runner._arena.reused == first[1] + 6

    def test_crash_recovery_discards_then_next_batch_reuses_fresh(self, engine):
        """A BrokenProcessPool mid-batch taints the live segments: they
        are discarded (names never reissued), replacements are arena
        pooled, and the next batch runs clean on the fresh names with
        nothing leaked."""
        levels = _levels_batch(24, seed=11)
        expected = engine.scores(levels)
        with ResilientBatchRunner(
            engine,
            shard_size=8,
            workers=2,
            executor="process",
            shm=True,
            policy=RetryPolicy(max_retries=2, backoff_base_s=0.001),
            chaos=ChaosSpec(crash_on=frozenset({(1, 0)})),
        ) as runner:
            result = runner.run(levels)
            np.testing.assert_array_equal(result.scores, expected)
            # recovery acquired a fresh request+result pair
            assert runner._arena.allocated >= 4
            reused_before = runner._arena.reused
            # chaos crashes only on attempt 0 of shard 1; the next batch
            # runs clean and reuses the post-recovery segments
            again = runner.run(levels)
            np.testing.assert_array_equal(again.scores, expected)
            assert runner._arena.reused >= reused_before + 2
        assert leaked_segments() == []

    def test_generation_bump_invalidates_worker_attach_cache(self):
        """``replace_engine`` republishes the operand plane under a new
        generation; workers detect the bump on their next shard and
        re-attach — scores must follow the *new* engine, and the
        re-attach is visible as ``batch.shm.plane_attach``."""
        model_a = UniVSAModel(SHAPE, 3, CONFIG, mask=_mask(), seed=0)
        model_b = UniVSAModel(SHAPE, 3, CONFIG, mask=_mask(), seed=7)
        engine_a = BitPackedUniVSA(extract_artifacts(model_a))
        engine_b = BitPackedUniVSA(extract_artifacts(model_b))
        levels = _levels_batch(12, seed=12)
        expected_a = engine_a.scores(levels)
        expected_b = engine_b.scores(levels)
        assert not np.array_equal(expected_a, expected_b)
        registry = MetricsRegistry()
        with using_registry(registry):
            with ResilientBatchRunner(
                engine_a, shard_size=4, workers=2, executor="process", shm=True
            ) as runner:
                np.testing.assert_array_equal(runner.scores(levels), expected_a)
                assert registry.counter("batch.shm.plane_attach").value == 0
                runner.replace_engine(engine_b)
                np.testing.assert_array_equal(runner.scores(levels), expected_b)
        assert registry.gauge("batch.shm.plane_generation").value == 2.0
        # every live worker that served a post-bump shard re-attached
        assert registry.counter("batch.shm.plane_attach").value >= 1
        assert leaked_segments() == []
