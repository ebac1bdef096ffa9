"""Fast-vs-legacy engine equivalence and conv-window regression tests.

The overhauled fast pipeline (packed conv operands, integer match
thresholds, tiled accumulation) must match the legacy stage pipeline and
the integer reference *exactly* on every configuration — including
position counts that are not a multiple of 64, batch-norm-folded
thresholds with channel flips, and tile sizes that force the conv stage
through multiple chunks.  A naive Python loop pins the sliding-window
convolution so a future stride/transpose mistake cannot hide behind
"both paths use the same helper".  The config-space property test also
holds the fused engine, with and without its compiled conv kernel, to
the same reference.
"""

import os
import shutil
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitPackedUniVSA, UniVSAConfig, UniVSAModel, extract_artifacts
from repro.core.export import _int_conv2d_same
from repro.nn import Tensor
from repro.vsa.kernels import using_kernels

LEVELS = 12
SMALL = UniVSAConfig(
    d_high=4, d_low=2, kernel_size=3, out_channels=8, voters=2, levels=LEVELS
)

# (6, 10) -> 60 positions; (13, 5) -> 65 positions (pad bits in the
# encode/similarity words); (4, 16) -> 64 positions (exact word fit).
SHAPES = [(6, 10), (13, 5), (4, 16)]


def _cc_buildable() -> bool:
    """Whether a C compiler is on PATH for the compiled conv kernel."""
    return shutil.which("gcc") is not None or shutil.which("cc") is not None


def _mask(shape):
    mask = np.zeros(shape, dtype=np.int8)
    mask[::2] = 1
    return mask


def _levels_batch(shape, n=9, seed=0):
    return np.random.default_rng(seed).integers(0, LEVELS, size=(n,) + shape)


def _exported(shape, config=SMALL, seed=0, mask=True):
    model = UniVSAModel(
        shape, 3, config, mask=_mask(shape) if mask else None, seed=seed
    )
    return extract_artifacts(model)


class TestEngineEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_fast_matches_legacy_and_artifacts(self, shape):
        artifacts = _exported(shape)
        levels = _levels_batch(shape)
        fast = BitPackedUniVSA(artifacts, mode="fast")
        legacy = BitPackedUniVSA(artifacts, mode="legacy")
        expected = artifacts.scores(levels)
        np.testing.assert_array_equal(fast.scores(levels), expected)
        np.testing.assert_array_equal(legacy.scores(levels), expected)
        np.testing.assert_array_equal(
            fast.encode(levels), artifacts.encode(levels)
        )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fast_engine_on_legacy_kernels(self, shape):
        """Engine mode and kernel set are orthogonal axes; every
        combination must agree."""
        artifacts = _exported(shape, seed=1)
        levels = _levels_batch(shape, seed=1)
        expected = artifacts.scores(levels)
        for kernels in ("fast", "legacy"):
            with using_kernels(kernels):
                engine = BitPackedUniVSA(artifacts, mode="fast")
                np.testing.assert_array_equal(
                    engine.scores(levels), expected, err_msg=f"kernels={kernels}"
                )

    def test_tiny_tile_forces_chunked_conv(self):
        """conv_tile_mb small enough that a 9-sample batch needs several
        tiles; results must be identical to the untiled engine."""
        shape = (13, 5)
        artifacts = _exported(shape, seed=2)
        levels = _levels_batch(shape, n=9, seed=2)
        tiled = BitPackedUniVSA(artifacts, mode="fast", conv_tile_mb=1e-6)
        assert tiled._conv_tile(shape[0] * shape[1], SMALL.out_channels) == 1
        np.testing.assert_array_equal(
            tiled.scores(levels), artifacts.scores(levels)
        )

    def test_batchnorm_thresholds_and_flips(self):
        """Folded BN gives non-zero float thresholds and flipped
        channels — the integer raw-match threshold conversion must keep
        tie semantics exact."""
        config = replace(SMALL, use_batchnorm=True)
        shape = (6, 10)
        model = UniVSAModel(shape, 3, config, mask=_mask(shape), seed=3)
        model.train()
        for seed in range(3):
            model(Tensor(model.preprocess(_levels_batch(shape, seed=seed))))
        model.eval()
        artifacts = extract_artifacts(model)
        assert np.abs(artifacts.conv_thresholds).max() > 0
        levels = _levels_batch(shape, seed=3)
        fast = BitPackedUniVSA(artifacts, mode="fast")
        np.testing.assert_array_equal(
            fast.encode(levels), artifacts.encode(levels)
        )
        np.testing.assert_array_equal(
            fast.scores(levels), artifacts.scores(levels)
        )

    @staticmethod
    def _zero_gamma_artifacts(shape=(6, 10)):
        """BN with three ``gamma == 0`` channels: beta >= 0 folds to a
        -inf threshold (always fires), beta < 0 to +inf (never fires)."""
        config = replace(SMALL, use_batchnorm=True)
        model = UniVSAModel(shape, 3, config, mask=_mask(shape), seed=3)
        model.train()
        for seed in range(3):
            model(Tensor(model.preprocess(_levels_batch(shape, seed=seed))))
        model.eval()
        model.conv_bn.gamma.data[:] = [0.0, 0.0, -1.0, 1.0, -0.5, 2.0, 0.0, 1.0]
        model.conv_bn.beta.data[:] = [0.5, -0.5, 0.3, -0.2, 0.1, 0.0, 0.0, 0.7]
        return extract_artifacts(model)

    def test_zero_gamma_infinite_thresholds_match_reference(self):
        """A ±inf threshold once went through an undefined float->int64
        cast in the fast and fused engines, so their scores silently
        differed from the reference."""
        shape = (6, 10)
        artifacts = self._zero_gamma_artifacts(shape)
        assert np.isinf(artifacts.conv_thresholds).sum() == 3
        levels = _levels_batch(shape, n=32, seed=5)
        expected = artifacts.scores(levels)
        for mode in ("legacy", "fast", "fused"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                engine = BitPackedUniVSA(artifacts, mode=mode)
            np.testing.assert_array_equal(
                engine.scores(levels), expected, err_msg=mode
            )

    def test_nan_threshold_raises_naming_the_channel(self):
        artifacts = self._zero_gamma_artifacts()
        thresholds = artifacts.conv_thresholds.copy()
        thresholds[4] = np.nan
        broken = replace(artifacts, conv_thresholds=thresholds)
        for mode in ("legacy", "fast", "fused"):
            with pytest.raises(ValueError, match=r"conv_thresholds.*\[4\]"):
                BitPackedUniVSA(broken, mode=mode)

    def test_no_kernel_ablation(self):
        config = SMALL.with_ablation(True, False, 2)
        shape = (6, 10)
        model = UniVSAModel(shape, 3, config, mask=_mask(shape), seed=4)
        artifacts = extract_artifacts(model)
        levels = _levels_batch(shape, seed=4)
        fast = BitPackedUniVSA(artifacts, mode="fast")
        np.testing.assert_array_equal(
            fast.scores(levels), artifacts.scores(levels)
        )

    def test_mode_env_override(self, monkeypatch):
        artifacts = _exported((6, 10), seed=5)
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        assert BitPackedUniVSA(artifacts).mode == "legacy"
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        assert BitPackedUniVSA(artifacts).mode == "fast"

    def test_rejects_unknown_mode(self):
        artifacts = _exported((6, 10), seed=5)
        with pytest.raises(ValueError):
            BitPackedUniVSA(artifacts, mode="warp")

    def test_single_sample_and_empty_batch(self):
        shape = (6, 10)
        artifacts = _exported(shape, seed=6)
        fast = BitPackedUniVSA(artifacts, mode="fast")
        one = _levels_batch(shape, n=1, seed=6)
        np.testing.assert_array_equal(fast.scores(one), artifacts.scores(one))


def _naive_conv2d_same(volume, kernel, pad_value=-1):
    """Straight quadruple loop — the ground truth for window extraction."""
    b, c, h, w = volume.shape
    o, _, k, _ = kernel.shape
    pad = k // 2
    padded = np.full((b, c, h + 2 * pad, w + 2 * pad), pad_value, dtype=np.int64)
    padded[:, :, pad : pad + h, pad : pad + w] = volume
    out = np.zeros((b, o, h, w), dtype=np.int64)
    for bi in range(b):
        for oi in range(o):
            for y in range(h):
                for x in range(w):
                    window = padded[bi, :, y : y + k, x : x + k]
                    out[bi, oi, y, x] = int((window * kernel[oi]).sum())
    return out


class TestSlidingWindowRegression:
    """Pin the vectorized window extraction against the naive loop."""

    @pytest.mark.parametrize("shape,k", [((5, 7), 3), ((4, 4), 3), ((6, 3), 5)])
    def test_int_conv2d_same_matches_naive(self, shape, k):
        rng = np.random.default_rng(7)
        volume = rng.choice(np.array([-1, 1], dtype=np.int8), size=(2, 3) + shape)
        kernel = rng.choice(np.array([-1, 1], dtype=np.int8), size=(4, 3, k, k))
        np.testing.assert_array_equal(
            _int_conv2d_same(volume, kernel),
            _naive_conv2d_same(volume, kernel),
        )

    def test_fast_conv_stage_matches_naive(self):
        """End-to-end: the packed conv stage fires exactly where the
        naive integer convolution crosses its threshold."""
        shape = (5, 7)
        artifacts = _exported(shape, seed=8)
        levels = _levels_batch(shape, n=3, seed=8)
        volume = artifacts.value_volume(levels)
        accumulated = _naive_conv2d_same(volume, artifacts.kernel)
        thresholds = artifacts.conv_thresholds.reshape(1, -1, 1, 1)
        flips = artifacts.conv_flips.reshape(1, -1, 1, 1)
        fires = np.where(
            flips, accumulated <= thresholds, accumulated >= thresholds
        )
        expected = np.where(fires, 1, -1).astype(np.int8)
        np.testing.assert_array_equal(
            artifacts.feature_map(volume), expected
        )
        fast = BitPackedUniVSA(artifacts, mode="fast")
        np.testing.assert_array_equal(
            fast.encode(levels), artifacts.encode(levels)
        )


def _tile_mb_for(artifacts, tile: int) -> float:
    """A ``conv_tile_mb`` that makes the fused engine run ``tile``-sample
    tiles: read its bytes per sample off the tile a 1 MB budget gives."""
    per_sample_mb = 1.0 / BitPackedUniVSA(
        artifacts, mode="fused", conv_tile_mb=1.0
    )._fused_tile()
    return (tile + 0.5) * per_sample_mb


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_engine_equivalence_property(seed):
    """Random configs, shapes, BN-folded thresholds with flips (and
    ``gamma == 0`` channels, whose thresholds fold to ±inf), batch sizes
    and tile budgets: fast == fused (compiled conv and NumPy matcher) ==
    legacy == integer reference.  ``d_high`` up to 12 puts two bytes in
    every tap, which the compiled kernel builds separately; byte-aligned
    ``out_channels`` take the flat fire pack."""
    gen = np.random.default_rng(seed)
    d_high = int(gen.integers(1, 13))
    config = UniVSAConfig(
        d_high=d_high,
        d_low=int(gen.integers(1, d_high + 1)),
        kernel_size=int(gen.choice([1, 3, 5])),
        # 8 and 16 are the byte-aligned widths whose fires pack flat.
        out_channels=int(gen.choice([2, 3, 4, 5, 6, 7, 8, 9, 16])),
        voters=int(gen.integers(1, 3)),
        levels=8,
        use_batchnorm=bool(gen.integers(0, 2)),
    )
    shape = (int(gen.integers(3, 9)), int(gen.integers(3, 9)))
    mask = gen.integers(0, 2, size=shape).astype(np.int8)
    model = UniVSAModel(shape, 2, config, mask=mask, seed=seed % 1000)
    if config.use_batchnorm:
        model.train()
        for _ in range(3):
            model(Tensor(model.preprocess(gen.integers(0, 8, size=(9,) + shape))))
        model.eval()
        # Negative gammas flip channels; beta moves the folded thresholds.
        # A zero gamma pins its channel to sign(beta): always fires for
        # beta >= 0, never for beta < 0.
        o = config.out_channels
        gamma = gen.choice([-1.0, 1.0], o) * gen.uniform(0.2, 2.0, o)
        gamma[gen.random(o) < 0.3] = 0.0
        model.conv_bn.gamma.data[:] = gamma
        model.conv_bn.beta.data[:] = gen.normal(0.0, 1.0, o)
    artifacts = extract_artifacts(model)
    n = int(gen.integers(1, 10))
    levels = gen.integers(0, 8, size=(n,) + shape)
    tile = int(gen.integers(1, max(2, n)))
    tile_mb = _tile_mb_for(artifacts, tile)
    expected = artifacts.scores(levels)
    for mode in ("fast", "legacy"):
        engine = BitPackedUniVSA(artifacts, mode=mode, conv_tile_mb=tile_mb)
        np.testing.assert_array_equal(engine.scores(levels), expected, err_msg=mode)
    for cc in ("1", "0"):
        with mock.patch.dict(os.environ, {"REPRO_CC": cc}):
            fused = BitPackedUniVSA(artifacts, mode="fused", conv_tile_mb=tile_mb)
        assert fused._fused_tile() == tile
        if cc == "0":
            assert fused.conv_backend == "numpy"
        else:
            assert fused.conv_backend == "cc" or not _cc_buildable()
        np.testing.assert_array_equal(
            fused.scores(levels), expected, err_msg=f"fused REPRO_CC={cc}"
        )
