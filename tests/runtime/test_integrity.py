"""Artifact integrity: checksummed store, memory scrubbing, hot repair.

Covers the three rings of :mod:`repro.runtime.integrity` — manifest
round trips and typed corruption errors at the store, golden-digest
scrubbing with bit-identical hot repair in memory, and the reproducible
chaos damage hooks — plus the :class:`UniVSAArtifacts` save/load
integration the serving path depends on.
"""

import copy
import os

import numpy as np
import pytest

from repro.core import (
    BitPackedUniVSA,
    UniVSAArtifacts,
    UniVSAConfig,
    UniVSAModel,
    extract_artifacts,
)
from repro.obs import MetricsRegistry, using_registry
from repro.runtime import ChaosSpec, ResilientBatchRunner
from repro.runtime.integrity import (
    ARCHIVE_FORMAT_VERSION,
    MANIFEST_KEY,
    ArtifactCorruptionError,
    IntegrityScrubber,
    array_digest,
    build_manifest,
    corrupt_stored_array,
    damage_archive,
    flip_resident_bits,
    load_archive_arrays,
    maybe_corrupt_resident,
    resident_digests,
    save_archive,
    verify_archive,
    verify_manifest,
)
from repro.vsa.kernels_cc import reset_cc

LEVELS = 10
SHAPE = (5, 8)
CONFIG = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=LEVELS
)


@pytest.fixture(scope="module")
def artifacts():
    return extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, seed=0))


def _samples(n, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + SHAPE)


def _arrays():
    rng = np.random.default_rng(0)
    return {
        "packed": rng.integers(0, 255, size=(4, 8), dtype=np.uint8),
        "thresholds": rng.normal(size=7),
        "flags": np.array([True, False, True]),
    }


class TestDigestsAndManifest:
    def test_digest_binds_bytes_dtype_and_shape(self):
        a = np.arange(12, dtype=np.int32)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a.astype(np.int64))
        assert array_digest(a) != array_digest(a.reshape(3, 4))
        b = a.copy()
        b[5] += 1
        assert array_digest(a) != array_digest(b)

    def test_digest_is_layout_independent(self):
        a = np.arange(12, dtype=np.int16).reshape(3, 4)
        assert array_digest(a) == array_digest(np.asfortranarray(a))

    def test_manifest_round_trip(self):
        arrays = _arrays()
        manifest = build_manifest(arrays)
        assert manifest["format_version"] == ARCHIVE_FORMAT_VERSION
        verify_manifest(arrays, manifest)  # no raise

    def test_manifest_names_the_damaged_array(self):
        arrays = _arrays()
        manifest = build_manifest(arrays)
        arrays["packed"] = arrays["packed"].copy()
        arrays["packed"][0, 0] ^= 1
        with pytest.raises(ArtifactCorruptionError, match="digest mismatch") as info:
            verify_manifest(arrays, manifest)
        assert info.value.array == "packed"

    def test_manifest_missing_and_extra_arrays(self):
        arrays = _arrays()
        manifest = build_manifest(arrays)
        short = {k: v for k, v in arrays.items() if k != "flags"}
        with pytest.raises(ArtifactCorruptionError, match="missing") as info:
            verify_manifest(short, manifest)
        assert info.value.array == "flags"
        extra = dict(arrays, smuggled=np.zeros(2))
        with pytest.raises(ArtifactCorruptionError, match="undeclared") as info:
            verify_manifest(extra, manifest)
        assert info.value.array == "smuggled"

    def test_future_format_version_is_refused(self):
        arrays = _arrays()
        manifest = build_manifest(arrays)
        manifest["format_version"] = ARCHIVE_FORMAT_VERSION + 1
        with pytest.raises(ArtifactCorruptionError, match="format_version"):
            verify_manifest(arrays, manifest)


class TestChecksummedStore:
    def test_save_load_round_trip_appends_npz_suffix(self, tmp_path):
        arrays = _arrays()
        final = save_archive(tmp_path / "model", arrays)
        assert final == tmp_path / "model.npz"
        loaded = load_archive_arrays(final)
        assert sorted(loaded) == sorted(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_save_leaves_no_temp_files(self, tmp_path):
        save_archive(tmp_path / "model.npz", _arrays())
        assert os.listdir(tmp_path) == ["model.npz"]

    def test_flipped_stored_element_raises_naming_the_array(self, tmp_path):
        final = save_archive(tmp_path / "model.npz", _arrays())
        name = corrupt_stored_array(final, seed=3)
        with pytest.raises(ArtifactCorruptionError, match="digest mismatch") as info:
            load_archive_arrays(final)
        assert info.value.array == name
        assert info.value.path == str(final)
        # forensic escape hatch still reads the damaged bytes
        assert sorted(load_archive_arrays(final, verify=False)) == sorted(_arrays())

    def test_truncated_archive_raises_typed_error(self, tmp_path):
        final = save_archive(tmp_path / "model.npz", _arrays())
        damage_archive(final, seed=1, mode="truncate")
        with pytest.raises(ArtifactCorruptionError, match="unreadable archive"):
            load_archive_arrays(final)
        # a torn zip cannot be bypassed — there is nothing to read
        with pytest.raises(ArtifactCorruptionError):
            load_archive_arrays(final, verify=False)

    def test_pre_manifest_archive_needs_the_escape_hatch(self, tmp_path):
        legacy = tmp_path / "legacy.npz"
        np.savez(legacy, **_arrays())
        with pytest.raises(ArtifactCorruptionError, match="no integrity manifest"):
            load_archive_arrays(legacy)
        assert sorted(load_archive_arrays(legacy, verify=False)) == sorted(_arrays())

    def test_missing_file_raises_file_not_found_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_archive_arrays(tmp_path / "absent.npz")

    def test_verify_archive_report(self, tmp_path):
        final = save_archive(tmp_path / "model.npz", _arrays())
        report = verify_archive(final)
        assert report["ok"] is True
        assert report["format_version"] == ARCHIVE_FORMAT_VERSION
        assert sorted(report["arrays"]) == sorted(_arrays())

    def test_chaos_truncate_damages_the_just_saved_archive(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "truncate,seed:2")
        final = save_archive(tmp_path / "model.npz", _arrays())
        with pytest.raises(ArtifactCorruptionError, match="unreadable archive"):
            load_archive_arrays(final)


class TestArtifactsSaveLoad:
    def test_round_trip_predictions_are_identical(self, artifacts, tmp_path):
        samples = _samples(6, seed=1)
        path = artifacts.save(tmp_path / "model")
        assert path == tmp_path / "model.npz"
        loaded = UniVSAArtifacts.load(path)
        np.testing.assert_array_equal(
            loaded.predict(samples), artifacts.predict(samples)
        )

    def test_truncating_saved_model_raises_typed_error(self, artifacts, tmp_path):
        """Satellite regression: a mid-archive tear is a typed failure,
        never a silent partial load."""
        path = artifacts.save(tmp_path / "model.npz")
        damage_archive(path, seed=4, mode="truncate")
        with pytest.raises(ArtifactCorruptionError):
            UniVSAArtifacts.load(path)

    def test_corrupted_saved_model_names_the_array(self, artifacts, tmp_path):
        path = artifacts.save(tmp_path / "model.npz")
        name = corrupt_stored_array(path, name="feature_vectors", seed=5)
        assert name == "feature_vectors"
        with pytest.raises(ArtifactCorruptionError) as info:
            UniVSAArtifacts.load(path)
        assert info.value.array == "feature_vectors"
        # verify=False loads the damaged model for forensics
        assert UniVSAArtifacts.load(path, verify=False) is not None


class TestResidentCorruption:
    def test_flip_resident_bits_requires_exactly_one_selector(self, artifacts):
        engine = BitPackedUniVSA(copy.deepcopy(artifacts))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="exactly one"):
            flip_resident_bits(engine, rng)
        with pytest.raises(ValueError, match="exactly one"):
            flip_resident_bits(engine, rng, n_flips=1, rate=0.1)

    def test_flips_change_golden_digests(self, artifacts):
        engine = BitPackedUniVSA(copy.deepcopy(artifacts))
        golden = resident_digests(engine)
        applied = flip_resident_bits(engine, np.random.default_rng(1), n_flips=8)
        assert applied and sum(applied.values()) == 8
        assert resident_digests(engine) != golden

    def test_maybe_corrupt_resident_is_deterministic_per_batch(self, artifacts):
        spec = ChaosSpec(corrupt_rate=1.0, seed=9)
        outcomes = []
        for _ in range(2):
            engine = BitPackedUniVSA(copy.deepcopy(artifacts))
            with using_registry(MetricsRegistry()):
                outcomes.append(
                    [maybe_corrupt_resident(engine, spec, batch) for batch in range(3)]
                )
        assert outcomes[0] == outcomes[1]
        assert all(applied for applied in outcomes[0])

    def test_zero_rate_never_fires(self, artifacts):
        engine = BitPackedUniVSA(copy.deepcopy(artifacts))
        golden = resident_digests(engine)
        assert maybe_corrupt_resident(engine, ChaosSpec(), 0) == {}
        assert resident_digests(engine) == golden


class TestScrubber:
    def test_clean_scrub(self, artifacts):
        engine = BitPackedUniVSA(copy.deepcopy(artifacts))
        scrubber = IntegrityScrubber(engine)
        with using_registry(MetricsRegistry()) as registry:
            report = scrubber.scrub()
        assert report.clean and not report.repaired
        assert report.scanned == len(scrubber.golden)
        assert registry.counter("integrity.scrubs").value == 1
        assert registry.counter("integrity.mismatches").value == 0

    def test_detect_and_repair_from_memory_is_bit_identical(self, artifacts):
        samples = _samples(8, seed=2)
        engine = BitPackedUniVSA(copy.deepcopy(artifacts))
        expected = engine.predict(samples)
        scrubber = IntegrityScrubber(engine)
        flip_resident_bits(engine, np.random.default_rng(3), n_flips=64)
        with using_registry(MetricsRegistry()) as registry:
            report = scrubber.scrub()
        assert report.corrupted and report.repaired
        assert report.repair_source == "memory"
        assert resident_digests(scrubber.engine) == scrubber.golden
        np.testing.assert_array_equal(scrubber.engine.predict(samples), expected)
        assert registry.counter("integrity.repairs").value == 1

    def test_repair_from_verified_disk_archive(self, artifacts, tmp_path):
        samples = _samples(8, seed=3)
        path = artifacts.save(tmp_path / "model.npz")
        engine = BitPackedUniVSA(copy.deepcopy(artifacts))
        expected = engine.predict(samples)
        scrubber = IntegrityScrubber(engine, source=path)
        flip_resident_bits(engine, np.random.default_rng(4), n_flips=32)
        with using_registry(MetricsRegistry()):
            report = scrubber.scrub()
        assert report.repaired and report.repair_source == f"disk:{path}"
        np.testing.assert_array_equal(scrubber.engine.predict(samples), expected)

    def test_drifted_disk_source_is_refused(self, artifacts, tmp_path):
        """A repair source that does not reproduce the golden digests is
        never swapped in — better degraded than silently wrong."""
        other = extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, seed=1))
        path = other.save(tmp_path / "other.npz")
        engine = BitPackedUniVSA(copy.deepcopy(artifacts))
        scrubber = IntegrityScrubber(engine, source=path)
        flip_resident_bits(engine, np.random.default_rng(5), n_flips=16)
        with using_registry(MetricsRegistry()) as registry:
            report = scrubber.scrub()
        assert report.corrupted and not report.repaired
        assert "golden" in report.error
        assert registry.counter("integrity.repair_failures").value == 1

    def test_runner_hot_swap_resets_fallback_and_serves_identically(self, artifacts):
        samples = _samples(8, seed=4)
        engine = BitPackedUniVSA(copy.deepcopy(artifacts))
        expected = engine.predict(samples)
        with using_registry(MetricsRegistry()):
            with ResilientBatchRunner(engine, workers=1) as runner:
                scrubber = IntegrityScrubber(runner)
                flip_resident_bits(engine, np.random.default_rng(6), n_flips=64)
                report = scrubber.scrub()
                assert report.repaired
                assert runner.engine is not engine  # hot-swapped
                assert scrubber.engine is runner.engine
                result = runner.run(samples)
        np.testing.assert_array_equal(result.predictions, expected)

    @pytest.mark.parametrize("cc", ["1", "0"])
    def test_fused_conv_tables_are_scrubbed_and_repaired(
        self, artifacts, cc, monkeypatch
    ):
        """Both fused conv backends (compiled and NumPy) read the per-tap
        tables; damage to them must be named by the scrub and repaired."""
        monkeypatch.setenv("REPRO_CC", cc)
        samples = _samples(16, seed=7)
        try:
            engine = BitPackedUniVSA(copy.deepcopy(artifacts), mode="fused")
            if cc == "1" and engine.conv_backend != "cc":
                pytest.skip("compiled conv backend unavailable")
            assert "engine.conv_tables" in engine.resident_operands()
            expected = engine.scores(samples)
            scrubber = IntegrityScrubber(engine)
            engine._conv_tables[...] = 0
            assert not np.array_equal(engine.scores(samples), expected)
            with using_registry(MetricsRegistry()):
                report = scrubber.scrub()
            assert report.corrupted == ["engine.conv_tables"]
            assert report.repaired
            np.testing.assert_array_equal(scrubber.engine.scores(samples), expected)
        finally:
            reset_cc()

    def test_status_for_admin_plane(self, artifacts):
        engine = BitPackedUniVSA(copy.deepcopy(artifacts))
        scrubber = IntegrityScrubber(engine)
        status = scrubber.status()
        assert status["source"] == "memory"
        assert status["arrays"] == len(scrubber.golden)
        assert status["last"] is None
        with using_registry(MetricsRegistry()):
            scrubber.scrub()
        assert scrubber.status()["last"]["clean"] is True


class TestManifestKeyHygiene:
    def test_manifest_entry_is_stripped_from_loads(self, tmp_path):
        final = save_archive(tmp_path / "model.npz", _arrays())
        assert MANIFEST_KEY not in load_archive_arrays(final)
        assert MANIFEST_KEY not in load_archive_arrays(final, verify=False)
