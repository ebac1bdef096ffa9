"""Extraction of the deployed pure-binary UniVSA model.

After LDC-style training only the binary artifacts are kept (Sec. II-C):
value tables V_H/V_L, the importance mask, the binary kernel K, feature
vectors F, and class vectors C.  Inference is integer/bitwise only; if the
model trained with BatchNorm before conv binarization, the BN folds into
per-channel integer thresholds (the FINN-style trick), preserving
bit-exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import MARGIN_HISTOGRAM, annotate_span, get_registry, stage_timer, trace_span
from repro.vsa.hypervector import sign_bipolar

from .config import UniVSAConfig

if TYPE_CHECKING:  # the trainer; a deployed model never loads it
    from .model import UniVSAModel

__all__ = ["UniVSAArtifacts", "extract_artifacts", "record_soft_vote_margins"]


def record_soft_vote_margins(scores: np.ndarray) -> None:
    """Record per-sample top1−top2 soft-vote score gaps.

    The gap is the decision's confidence margin; its distribution is what
    the run ledger summarizes.  Lands in the ``quality.soft_vote_margin``
    histogram — outside the stage namespaces, so stage shares stay pure
    wall time.  No-op (beyond one branch) under the null registry.
    """
    registry = get_registry()
    if not registry.enabled or scores.shape[-1] < 2:
        return
    part = np.partition(scores, scores.shape[-1] - 2, axis=-1)
    margins = part[..., -1] - part[..., -2]
    histogram = registry.histogram(MARGIN_HISTOGRAM)
    for value in np.ravel(margins):
        histogram.observe(float(value))


def _int_conv2d_same(
    volume: np.ndarray, kernel: np.ndarray, pad_value: int = -1
) -> np.ndarray:
    """Integer 'same' convolution with bipolar border padding.

    volume (B, C, H, W) int8, kernel (O, C, k, k) int8 -> (B, O, H, W) int64
    accumulations.  This is the arithmetic the hardware conv engine
    produces before thresholding.
    """
    b, c, h, w = volume.shape
    o, _, k, _ = kernel.shape
    pad = k // 2
    padded = np.pad(
        volume, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=pad_value
    ).astype(np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (k, k), axis=(2, 3)
    )  # (B, C, H, W, k, k), read-only — no writeable-aliasing foot-gun
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, h * w, c * k * k)
    out = cols @ kernel.reshape(o, -1).astype(np.int64).T  # (B, P, O)
    return out.transpose(0, 2, 1).reshape(b, o, h, w)


@dataclass
class UniVSAArtifacts:
    """The deployed binary UniVSA model and its integer inference path."""

    config: UniVSAConfig
    input_shape: tuple[int, int]
    mask: np.ndarray  # (W, L) int8
    value_high: np.ndarray  # V_H: (M, D_H) int8
    value_low: np.ndarray | None  # V_L: (M, D_L) int8, None when DVP off
    kernel: np.ndarray | None  # K: (O, D_H, D_K, D_K) int8, None when BiConv off
    feature_vectors: np.ndarray  # F: (channels, W*L) int8
    class_vectors: np.ndarray  # C: (Theta, n_classes, W*L) int8
    conv_thresholds: np.ndarray | None = None  # per-channel fold of BN (O,)
    conv_flips: np.ndarray | None = None  # per-channel comparison flips (O,)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kernel is not None and self.conv_thresholds is None:
            self.conv_thresholds = np.zeros(self.kernel.shape[0])
            self.conv_flips = np.zeros(self.kernel.shape[0], dtype=bool)

    # ------------------------------------------------------------------
    @property
    def positions(self) -> int:
        """Output positions (W x L)."""
        return self.input_shape[0] * self.input_shape[1]

    @property
    def n_classes(self) -> int:
        """Number of classes."""
        return self.class_vectors.shape[1]

    # ------------------------------------------------------------------
    # inference stages (integer arithmetic only)
    # ------------------------------------------------------------------
    @stage_timer("artifacts.dvp")
    def value_volume(self, levels: np.ndarray) -> np.ndarray:
        """DVP lookup: levels (B, W, L) -> bipolar volume (B, D_H, W, L)."""
        levels = np.asarray(levels).reshape((-1,) + self.input_shape)
        high = self.value_high[levels]  # (B, W, L, D_H)
        if self.value_low is None:
            volume = high
        else:
            d_high = self.value_high.shape[1]
            d_low = self.value_low.shape[1]
            low = np.ones(levels.shape + (d_high,), dtype=np.int8)
            low[..., :d_low] = self.value_low[levels]
            select = self.mask.astype(bool)[None, :, :, None]
            volume = np.where(select, high, low)
        return volume.transpose(0, 3, 1, 2)

    @stage_timer("artifacts.biconv")
    def feature_map(self, volume: np.ndarray) -> np.ndarray:
        """BiConv + threshold binarization: -> (B, channels, W, L) int8."""
        if self.kernel is None:
            return volume
        accumulated = _int_conv2d_same(volume, self.kernel)
        thresholds = self.conv_thresholds.reshape(1, -1, 1, 1)
        flips = self.conv_flips.reshape(1, -1, 1, 1)
        fires = np.where(flips, accumulated <= thresholds, accumulated >= thresholds)
        return np.where(fires, 1, -1).astype(np.int8)

    def encode(self, levels: np.ndarray) -> np.ndarray:
        """Full encoding: levels -> bipolar sample vectors (B, W*L)."""
        feature = self.feature_map(self.value_volume(levels))
        get_registry().counter("artifacts.samples").add(feature.shape[0])
        with stage_timer("artifacts.encode"):
            batch = feature.shape[0]
            flat = feature.reshape(
                batch, feature.shape[1], self.positions
            ).astype(np.int64)
            accumulated = (
                flat * self.feature_vectors[None].astype(np.int64)
            ).sum(axis=1)
            return sign_bipolar(accumulated)

    def scores(self, levels: np.ndarray) -> np.ndarray:
        """Soft-voting similarity scores (B, n_classes), Eq. 4 numerator."""
        with trace_span("artifacts.classify"):
            s = self.encode(levels).astype(np.int64)
            with stage_timer("artifacts.similarity"):
                # sum_theta C^theta s  ==  (sum_theta C^theta) s
                stacked = self.class_vectors.astype(np.int64).sum(axis=0)  # (C, P)
                scores = s @ stacked.T
            record_soft_vote_margins(scores)
            annotate_span(batch=scores.shape[0])
            return scores

    def predict(self, levels: np.ndarray) -> np.ndarray:
        """Predicted labels (Eq. 4 argmax)."""
        return self.scores(levels).argmax(axis=1)

    def score(self, levels: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy."""
        return float((self.predict(levels) == np.asarray(y)).mean())

    # ------------------------------------------------------------------
    def memory_footprint_bits(self, include_mask: bool = False) -> int:
        """Deployed model size per Eq. 5 (mask excluded, as in the paper)."""
        total = self.value_high.size
        if self.value_low is not None:
            total += self.value_low.size
        if self.kernel is not None:
            total += self.kernel.size
        total += self.feature_vectors.size
        total += self.class_vectors.size
        if include_mask:
            total += self.mask.size
        return int(total)

    def save(self, path):
        """Persist all artifacts to a checksummed ``.npz``, atomically.

        The archive embeds a versioned integrity manifest (per-array
        sha256, config hash) and is written temp-file + fsync + rename,
        so a crash mid-save leaves any previous archive intact rather
        than a torn zip.  Returns the final path (``.npz`` appended when
        missing, matching ``np.savez``).  See
        :mod:`repro.runtime.integrity` for the format.
        """
        # Function-level import: core stays importable without the
        # runtime package in the loop at module-import time.
        from repro.runtime.integrity import save_archive

        arrays = {
            "mask": self.mask,
            "value_high": self.value_high,
            "feature_vectors": self.feature_vectors,
            "class_vectors": self.class_vectors,
            "input_shape": np.array(self.input_shape),
            "paper_tuple": np.array(self.config.as_paper_tuple()),
            "levels": np.array(self.config.levels),
            "flags": np.array(
                [self.config.use_dvp, self.config.use_biconv, self.config.use_batchnorm]
            ),
        }
        if self.value_low is not None:
            arrays["value_low"] = self.value_low
        if self.kernel is not None:
            arrays["kernel"] = self.kernel
            arrays["conv_thresholds"] = self.conv_thresholds
            arrays["conv_flips"] = self.conv_flips
        return save_archive(path, arrays, config=self.config)

    @classmethod
    def load(cls, path, verify: bool = True) -> "UniVSAArtifacts":
        """Load artifacts saved by :meth:`save`.

        Every array is digest-verified against the embedded manifest;
        damage raises :class:`repro.runtime.integrity
        .ArtifactCorruptionError` naming the bad array (a torn/truncated
        archive raises it with ``array=None``).  ``verify=False`` skips
        the checks — the escape hatch for forensics and for pre-manifest
        archives.
        """
        from repro.runtime.integrity import load_archive_arrays

        archive = load_archive_arrays(path, verify=verify)
        flags = archive["flags"]
        config = UniVSAConfig.from_paper_tuple(
            tuple(int(v) for v in archive["paper_tuple"]),
            levels=int(archive["levels"]),
            use_dvp=bool(flags[0]),
            use_biconv=bool(flags[1]),
            use_batchnorm=bool(flags[2]),
        )
        return cls(
            config=config,
            input_shape=tuple(int(v) for v in archive["input_shape"]),
            mask=archive["mask"],
            value_high=archive["value_high"],
            value_low=archive.get("value_low"),
            kernel=archive.get("kernel"),
            feature_vectors=archive["feature_vectors"],
            class_vectors=archive["class_vectors"],
            conv_thresholds=archive.get("conv_thresholds"),
            conv_flips=archive.get("conv_flips"),
        )


def extract_artifacts(model: UniVSAModel) -> UniVSAArtifacts:
    """Read out the deployed binary model from a trained UniVSA graph."""
    config = model.config
    value_high = model.vb_high.lookup_table(config.levels)
    value_low = model.vb_low.lookup_table(config.levels) if model.vb_low else None
    kernel = model.conv.binary_weight() if model.conv is not None else None
    thresholds = None
    flips = None
    if model.conv_bn is not None:
        thresholds, flips = model.conv_bn.fold_thresholds()
    return UniVSAArtifacts(
        config=config,
        input_shape=model.input_shape,
        mask=np.array(model._buffers["mask"], copy=True),
        value_high=value_high,
        value_low=value_low,
        kernel=kernel,
        feature_vectors=model.encoder.binary_weight(),
        class_vectors=model.voting.binary_weights(),
        conv_thresholds=thresholds,
        conv_flips=flips,
    )
