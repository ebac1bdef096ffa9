"""Compiled conv-fires kernel: bit-exactness vs NumPy, gating, fallback.

The cc backend is an *optimization with an escape hatch*: every test
here either proves it computes exactly what the NumPy matcher computes,
or proves that turning it off (env flag, missing compiler, bad operand
layout) degrades to the NumPy path with the reason recorded — never to
an error, never to different scores.  What reaches the C loop is checked
first: a volume it would index out of bounds raises, and the cached
binary is keyed on everything that decides whether it runs here.
"""

import numpy as np
import pytest

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.vsa import kernels_cc
from repro.vsa.kernels_cc import build_conv_fires, cc_enabled, cc_info, reset_cc

LEVELS = 10
SHAPE = (6, 7)
CONFIG = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=LEVELS
)


@pytest.fixture(autouse=True)
def _fresh_cc_state():
    reset_cc()
    yield
    reset_cc()


@pytest.fixture(scope="module")
def artifacts():
    return extract_artifacts(UniVSAModel(SHAPE, 3, CONFIG, seed=0))


def _levels(n, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + SHAPE)


def _cc_engine(artifacts, **kwargs):
    engine = BitPackedUniVSA(artifacts, mode="fused", **kwargs)
    if engine.conv_backend != "cc":
        pytest.skip(
            "compiled conv backend unavailable: "
            f"{cc_info()['cc_conv_unavailable_reason']}"
        )
    return engine


class TestBitExactness:
    def test_cc_matches_numpy_fires_across_batches(self, artifacts):
        cc = _cc_engine(artifacts)
        numpy_engine = BitPackedUniVSA(artifacts, mode="fused")
        numpy_engine._cc_conv = None  # pin the pure NumPy matcher path
        assert numpy_engine.conv_backend == "numpy"
        for seed, n in ((1, 1), (2, 7), (3, 33)):
            levels = _levels(n, seed=seed)
            np.testing.assert_array_equal(
                cc.scores(levels), numpy_engine.scores(levels)
            )

    def test_cc_matches_legacy_reference(self, artifacts):
        """Transitively: cc == numpy fused == legacy stage pipeline."""
        cc = _cc_engine(artifacts)
        legacy = BitPackedUniVSA(artifacts, mode="legacy")
        levels = _levels(19, seed=4)
        np.testing.assert_array_equal(cc.scores(levels), legacy.scores(levels))

    def test_cc_exact_on_adversarial_level_planes(self, artifacts):
        """Constant planes hit the threshold-window edges (all-fire /
        never-fire channels) that the unsigned re-encoding must get
        exactly right."""
        cc = _cc_engine(artifacts)
        numpy_engine = BitPackedUniVSA(artifacts, mode="fused")
        numpy_engine._cc_conv = None
        for level in (0, LEVELS - 1):
            levels = np.full((3,) + SHAPE, level)
            np.testing.assert_array_equal(
                cc.scores(levels), numpy_engine.scores(levels)
            )

    def test_tile_budget_does_not_change_cc_scores(self, artifacts):
        levels = _levels(21, seed=5)
        expected = _cc_engine(artifacts).scores(levels)
        for tile_mb in (0.5, 8.0):
            engine = _cc_engine(artifacts, conv_tile_mb=tile_mb)
            np.testing.assert_array_equal(engine.scores(levels), expected)


class TestGating:
    def test_env_flag_disables_and_records_reason(self, artifacts, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "0")
        reset_cc()
        assert not cc_enabled()
        engine = BitPackedUniVSA(artifacts, mode="fused")
        assert engine.conv_backend == "numpy"
        info = cc_info()
        assert info["cc_conv_enabled"] is False
        assert "REPRO_CC" in (info["cc_conv_unavailable_reason"] or "")
        # the numpy fallback still scores (and matches legacy)
        levels = _levels(9, seed=6)
        legacy = BitPackedUniVSA(artifacts, mode="legacy")
        np.testing.assert_array_equal(engine.scores(levels), legacy.scores(levels))

    @pytest.mark.parametrize("off", ["0", "false", "off", "no"])
    def test_all_off_spellings(self, off, monkeypatch):
        monkeypatch.setenv("REPRO_CC", off)
        assert not cc_enabled()

    def test_legacy_kernel_set_never_uses_cc(self, artifacts):
        from repro.vsa.kernels import using_kernels

        with using_kernels("legacy"):
            engine = BitPackedUniVSA(artifacts, mode="fused")
        assert engine.conv_backend == "numpy"

    def test_bad_tap_layout_degrades_with_reason(self):
        tables = np.zeros((10, 256, 4), dtype=np.uint8)  # 10 != 3*3*2
        bound = np.zeros(4, dtype=np.uint16)
        fires = build_conv_fires(tables, bound, bound, 3, 2)
        assert fires is None
        assert "mismatch" in (cc_info()["cc_conv_unavailable_reason"] or "")

    def test_self_test_rejects_a_kernel_with_wrong_fires(self, artifacts, monkeypatch):
        """A compiled kernel that builds but computes wrong fires is
        caught by the engine's bind-time self-test: the engine keeps the
        NumPy matcher, the reason names the self-test, and the scores
        stay bit-exact with the legacy oracle."""
        built = []

        def broken_build(*args):
            fires_fn = build_conv_fires(*args)
            if fires_fn is None:
                pytest.skip(
                    "compiled conv backend unavailable: "
                    f"{cc_info()['cc_conv_unavailable_reason']}"
                )

            def wrong_fires(padded):
                fires = fires_fn(padded)
                fires[0, 0, 0] ^= 1  # one flipped fire is enough
                return fires

            built.append(wrong_fires)
            return wrong_fires

        monkeypatch.setattr(kernels_cc, "build_conv_fires", broken_build)
        engine = BitPackedUniVSA(artifacts, mode="fused")
        assert built, "the engine never asked for a compiled kernel"
        assert engine.conv_backend == "numpy"
        reason = cc_info()["cc_conv_unavailable_reason"]
        assert reason is not None and "self-test" in reason
        assert engine.conv_unavailable_reason == reason
        levels = _levels(9, seed=11)
        legacy = BitPackedUniVSA(artifacts, mode="legacy")
        np.testing.assert_array_equal(engine.scores(levels), legacy.scores(levels))

    def test_self_test_passes_the_real_kernel(self, artifacts):
        engine = _cc_engine(artifacts)
        assert engine.conv_unavailable_reason is None
        assert cc_info()["cc_conv_unavailable_reason"] is None

    def test_kernel_info_surfaces_cc_fields(self):
        from repro.vsa.kernels import kernel_info

        info = kernel_info()
        assert "cc_conv_enabled" in info
        assert "cc_conv_compiled_taps" in info
        assert "cc_conv_unavailable_reason" in info


class TestNativeBoundary:
    def test_volume_dtype_is_checked_before_the_call(self, artifacts):
        engine = _cc_engine(artifacts)
        volume = engine._dvp_bytes(_levels(2))
        padded = np.pad(volume, ((0, 0), (1, 1), (1, 1), (0, 0)))
        with pytest.raises(ValueError, match="uint8"):
            engine._cc_conv(padded.astype(np.uint16))
        # the checked call itself still runs
        assert engine._cc_conv(padded).shape == (2, SHAPE[0] * SHAPE[1], 6)

    def test_volume_channel_bytes_are_checked_before_the_call(self, artifacts):
        engine = _cc_engine(artifacts)
        padded = np.pad(
            engine._dvp_bytes(_levels(2)), ((0, 0), (1, 1), (1, 1), (0, 0))
        )
        with pytest.raises(ValueError, match="conv volume"):
            engine._cc_conv(np.concatenate([padded, padded], axis=-1))

    def test_cached_binary_is_keyed_on_flags_and_cpu(self, monkeypatch):
        """A -march=native build found in a shared temp dir must not be
        loaded on another CPU or reused for other compile flags."""
        source = kernels_cc._C_TEMPLATE.format(taps=18)
        name = kernels_cc._artifact_name(18, source)
        assert kernels_cc._artifact_name(18, source) == name
        monkeypatch.setattr(kernels_cc, "_host_cpu", lambda: "another cpu")
        assert kernels_cc._artifact_name(18, source) != name
        monkeypatch.undo()
        monkeypatch.setattr(kernels_cc, "_FLAG_SETS", (("-O2",),))
        assert kernels_cc._artifact_name(18, source) != name
