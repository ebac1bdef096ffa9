"""Bit-packed XNOR/popcount inference engine for deployed UniVSA models.

This is the software twin of the FPGA datapath: every stage operates on
uint64-packed bipolar words exactly as the hardware's XNOR arrays and
popcount adder trees do.

* **BiConv**: each output pixel's operand block (D_H x D_K x D_K bipolar
  values, borders padded with -1) is matched against the packed kernel;
  the accumulation is ``2 * popcount(~(x ^ k)) - n_bits``, compared
  against the per-channel threshold.
* **Encoding**: reduction over the O channel axis per position.
* **Similarity**: reduction over the W*L position axis per class and voter.

The engine has three modes:

* ``mode="fast"`` (default) never materializes the (B, P, C*K*K) int8
  operand block.  The per-level ValueBox rows are packed **once** at
  construction (channel-major, byte granular), so the DVP stage is a
  packed gather; conv operand words are then assembled from those bytes
  with a sliding window view — a byte shuffle, not a 64-lane
  multiply-accumulate — and the conv match loop runs over bounded batch
  tiles so peak memory is O(tile), not O(batch).  The feature map stays
  a packed bit tensor end to end.
* ``mode="fused"`` runs the **whole** pipeline — DVP gather, biconv
  match, encode, similarity — one batch tile at a time, so every
  intermediate of a tile is still cache-resident when the next stage
  consumes it (`conv_tile_mb` defaults down to a cache-sized budget).
  The conv match gathers from per-tap 256-entry XOR-popcount byte
  tables the engine keeps resident (the legacy kernel set keeps its
  word-level matcher), and the threshold compare collapses to an
  integer window in XOR-count space (see ``_init_fused``).  Bit-exact
  with the other modes by construction and by the property suite.
* ``mode="legacy"`` preserves the seed engine's per-call block packing;
  it exists as the baseline for ``python -m repro bench-throughput`` and
  as a second implementation the property tests cross-check.

``traffic_model()`` exposes the analytic bytes-moved / popcount-ops per
sample of the selected mode — the roofline numbers the throughput bench
publishes as ``packed.traffic.*`` gauges.

Bit-exact equivalence between both modes, the integer path
(`UniVSAArtifacts`), and the trained graph is enforced by tests — this
engine doubles as the golden model for the cycle simulator in
:mod:`repro.hw.simulator`.

Every stage runs under a :func:`repro.obs.stage_timer` (``packed.dvp``,
``packed.biconv``, ``packed.encode``, ``packed.similarity``) plus a
``packed.samples`` counter; with the default null registry the
instrumentation is a no-op branch.  ``scores()`` opens a
``packed.classify`` trace root, so with a tracer active one call becomes
a full span tree and the soft-vote margins land in the
``quality.soft_vote_margin`` histogram.  The internal stages pack with
``validate=False`` — their inputs are bipolar by construction, and the
domain scan would otherwise dominate small-batch latency.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.obs import annotate_span, get_registry, stage_timer, trace_span
from repro.vsa.bitops import pack_bipolar, xnor_popcount
from repro.vsa.kernels import FAST_KERNELS, WORD_BITS, conv_tables, get_kernels, lut8_counts

from .export import UniVSAArtifacts, record_soft_vote_margins

__all__ = ["BitPackedUniVSA"]

#: Default budget for the conv match intermediates of one batch tile.
_DEFAULT_CONV_TILE_MB = 64.0

#: Fused-mode default: the whole point of fusion is cache-resident
#: intermediates, so the tile budget defaults to L2-cache scale rather
#: than the fast mode's working-set bound.
_DEFAULT_FUSED_TILE_MB = 2.0

_ENGINE_MODES = ("fast", "fused", "legacy")


def _resolve_conv_tile_mb(value, mode: str) -> float:
    """Validate the conv tile budget, loudly.

    A zero, negative, non-finite, or non-numeric budget used to be
    silently clamped into a degenerate tile size; now it is a
    configuration error naming its source (argument or
    ``REPRO_CONV_TILE_MB``).
    """
    if value is None:
        raw = os.environ.get("REPRO_CONV_TILE_MB")
        if raw is None or not raw.strip():
            return _DEFAULT_FUSED_TILE_MB if mode == "fused" else _DEFAULT_CONV_TILE_MB
        source = f"REPRO_CONV_TILE_MB={raw.strip()!r}"
        value = raw
    else:
        source = f"conv_tile_mb={value!r}"
    try:
        budget = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} is not a number; expected a positive tile budget in MB"
        ) from None
    if not math.isfinite(budget) or budget <= 0.0:
        raise ValueError(f"{source} must be a positive, finite number of MB")
    return budget


def _bounded_thresholds(thresholds: np.ndarray, n_bits: int) -> np.ndarray:
    """Folded conv thresholds, clamped to ``[-(n+1), n+1]``.

    A BN channel with ``gamma == 0`` folds to a ±inf threshold (see
    ``fold_thresholds`` in :mod:`repro.nn.layers`): the channel always or
    never fires.  The accumulation over ``n = C*K*K`` bits lies in
    ``[-n, n]``, so ±(n+1) keeps that meaning in every mode while the
    fast and fused integer windows stay finite.  A NaN threshold has no
    meaning and raises, naming its channels.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    bad = np.flatnonzero(np.isnan(thresholds))
    if bad.size:
        raise ValueError(f"conv_thresholds is NaN on channel(s) {bad.tolist()}")
    bound = float(n_bits + 1)
    return np.clip(thresholds, -bound, bound)


def _pack_bytes(vectors: np.ndarray) -> np.ndarray:
    """Bipolar/boolean (..., D) -> bytes (..., ceil(D/8)), little bit order."""
    return np.packbits(np.asarray(vectors) > 0, axis=-1, bitorder="little")


def _pack_fires(fires: np.ndarray) -> np.ndarray:
    """Fires plane (T, P, O) 0/1 -> feature words (T, P, ceil(O/64)).

    With whole-byte rows (``O % 8 == 0``) the plane packs flat, which is
    the same bytes as a per-row pack: ``np.packbits(axis=-1)`` over a
    short last axis is several times slower.  Other widths keep the
    per-row pack.
    """
    t, p, o = fires.shape
    if o % 8 == 0:
        data = np.packbits(fires.reshape(-1), bitorder="little").reshape(t, p, o // 8)
    else:
        data = _pack_bytes(fires)
    return _bytes_to_words(data)


def _bytes_to_words(data: np.ndarray) -> np.ndarray:
    """Bytes (..., n) -> uint64 words (..., ceil(n/8)), little-endian."""
    n_bytes = data.shape[-1]
    n_words = -(-n_bytes // 8)
    if n_bytes != n_words * 8:
        padded = np.zeros(data.shape[:-1] + (n_words * 8,), dtype=np.uint8)
        padded[..., :n_bytes] = data
        data = padded
    words = np.ascontiguousarray(data).view(np.dtype("<u8"))
    return words.astype(np.uint64, copy=False)


def _matches_against_inverted(words: np.ndarray, inverted: np.ndarray, dim: int) -> np.ndarray:
    """XNOR match count against a pre-inverted operand.

    ``popcount(~(a ^ b)) == popcount(a ^ ~b)``; pre-inverting the static
    side (kernel / feature / class words) once at construction saves an
    invert pass over the large broadcast intermediate on every call.
    Padding bits (0 in ``words``, 1 in ``inverted``) XOR to 1 and are
    subtracted, exactly as in :func:`repro.vsa.bitops.xnor_popcount`.
    """
    counts = get_kernels().popcount8(words ^ inverted)
    pad_bits = inverted.shape[-1] * WORD_BITS - dim
    return counts.sum(axis=-1, dtype=np.int64) - pad_bits


class BitPackedUniVSA:
    """Packed-word inference over exported UniVSA artifacts.

    ``mode`` selects the stage pipeline (``"fast"``, ``"fused"`` or
    ``"legacy"``, env default ``REPRO_ENGINE``); ``conv_tile_mb`` bounds
    the per-tile intermediates (env ``REPRO_CONV_TILE_MB``; must be a
    positive finite number — anything else raises at construction).
    """

    def __init__(
        self,
        artifacts: UniVSAArtifacts,
        mode: str | None = None,
        conv_tile_mb: float | None = None,
    ) -> None:
        if mode is None:
            mode = os.environ.get("REPRO_ENGINE", "fast").strip().lower()
        if mode not in _ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {mode!r}; expected one of {_ENGINE_MODES}"
            )
        self.mode = mode
        self.conv_tile_mb = _resolve_conv_tile_mb(conv_tile_mb, mode)
        self.artifacts = artifacts
        self.input_shape = artifacts.input_shape
        self.positions = artifacts.positions
        config = artifacts.config

        if artifacts.kernel is not None:
            o = artifacts.kernel.shape[0]
            self._kernel_packed, self._conv_bits = pack_bipolar(
                artifacts.kernel.reshape(o, -1)
            )
            self._thresholds = _bounded_thresholds(
                artifacts.conv_thresholds, self._conv_bits
            )
            self._flips = artifacts.conv_flips
        else:
            self._kernel_packed = None

        # F packed along the channel axis, one word-vector per position.
        channels = config.encoding_channels()
        self._feature_packed, self._enc_bits = pack_bipolar(
            artifacts.feature_vectors.T  # (P, channels)
        )
        # C packed along the position axis per (voter, class).
        self._class_packed, self._sim_bits = pack_bipolar(artifacts.class_vectors)
        self._channels = channels

        if mode in ("fast", "fused"):
            self._init_fast()
        if mode == "fused":
            self._init_fused()

    # ------------------------------------------------------------------
    # fast-mode precomputation: packed ValueBox rows + operand-order kernel
    # ------------------------------------------------------------------
    def _init_fast(self) -> None:
        artifacts = self.artifacts
        # Per-level ValueBox rows packed channel-major at byte granularity
        # (memoized here so every DVP lookup is a packed gather).
        self._value_bytes_high = _pack_bytes(artifacts.value_high)
        if artifacts.value_low is not None:
            d_high = artifacts.value_high.shape[1]
            d_low = artifacts.value_low.shape[1]
            low = np.ones((artifacts.value_low.shape[0], d_high), dtype=np.int8)
            low[:, :d_low] = artifacts.value_low
            self._value_bytes_low = _pack_bytes(low)
            self._mask_bool = artifacts.mask.astype(bool)
        else:
            self._value_bytes_low = None
        self._volume_channels = artifacts.value_high.shape[1]

        # Pre-inverted static operands (see _matches_against_inverted).
        self._feature_inv = ~self._feature_packed
        self._class_inv = ~self._class_packed

        if artifacts.kernel is not None:
            # Kernel words in conv *operand order*: for each tap (kh, kw)
            # the channel bits padded to whole bytes, concatenated —
            # exactly the layout the window byte-assembly produces.  The
            # match count over all C*K*K true bits is order-independent,
            # so the accumulation is bit-exact vs the legacy block order.
            kernel = artifacts.kernel  # (O, C, k, k)
            o, c, k, _ = kernel.shape
            operand = kernel.transpose(0, 2, 3, 1)  # (O, kh, kw, C)
            taps = _pack_bytes(operand)  # (O, k, k, nb)
            self._kernel_operand_inv = ~_bytes_to_words(taps.reshape(o, -1))
            # Thresholds rewritten in raw-match space: with m the match
            # count over the n = C*K*K true bits and p the padding bits
            # (which always match), the accumulation 2m - n crosses a
            # float threshold t exactly when the integer raw count m + p
            # crosses ceil/floor((t + n)/2) + p — so the threshold
            # compare runs directly on the uint16 match accumulator.
            n_bits = c * k * k
            pad_bits = self._kernel_operand_inv.shape[-1] * WORD_BITS - n_bits
            half = (np.asarray(self._thresholds, dtype=np.float64) + n_bits) / 2.0
            self._conv_match_hi = np.ceil(half).astype(np.int64) + pad_bits
            self._conv_match_lo = np.floor(half).astype(np.int64) + pad_bits

    # ------------------------------------------------------------------
    # fused-mode precomputation: byte-level kernel taps + XOR-space bounds
    # ------------------------------------------------------------------
    def _init_fused(self) -> None:
        """Build the fused conv operands on top of the fast-mode state.

        The conv match counts XOR bits ``x`` between the kernel tap bytes
        (operand order) and each operand instead of raw matches.  With
        ``n`` true bits the accumulation is ``n - 2x``, so the threshold
        compare becomes an integer window on ``x``: ``acc >= t  <=>  x <=
        floor((n-t)/2)`` and (flipped channels) ``acc <= t  <=>  x >=
        ceil((n-t)/2)``.  Each channel gets an inclusive uint16 window
        ``conv_lo <= x <= conv_hi``: ``[0, floor]`` for plain channels
        (``[1, 0]``, never, when the bound is negative) and ``[ceil,
        0xFFFF]`` for flipped ones; uint16 keeps tap counts up to 8k bits
        exact.  Byte padding bits are zero on both the operand and the
        tap side, so they add no XOR counts.

        Under a byte-LUT kernel set the per-tap tables
        (:func:`repro.vsa.kernels.conv_tables`) are built here once, as a
        resident operand that both conv backends read, so the integrity
        scrubber's digests cover every byte the conv stage reads.
        """
        artifacts = self.artifacts
        if artifacts.kernel is None:
            self._fused_matcher = None
            return
        kernel = artifacts.kernel  # (O, C, k, k)
        o, c, k, _ = kernel.shape
        taps = _pack_bytes(kernel.transpose(0, 2, 3, 1))  # (O, k, k, nb)
        self._kernel_tap_bytes = np.ascontiguousarray(taps.reshape(o, -1))
        n_bits = c * k * k
        half = (n_bits - np.asarray(self._thresholds, dtype=np.float64)) / 2.0
        xor_hi = np.floor(half).astype(np.int64)
        xor_lo = np.ceil(half).astype(np.int64)
        flips = np.asarray(self._flips).astype(bool)
        lo = np.where(flips, np.clip(xor_lo, 0, 0xFFFF), np.where(xor_hi < 0, 1, 0))
        hi = np.where(flips, 0xFFFF, np.clip(xor_hi, 0, 0xFFFF))
        self._conv_lo = lo.astype(np.uint16)
        self._conv_hi = hi.astype(np.uint16)
        if get_kernels().match_impl == FAST_KERNELS.match_impl:
            self._conv_tables = conv_tables(self._kernel_tap_bytes)
        self._bind_conv()

    def _bind_conv(self) -> None:
        """Point the fused conv backends at the resident operands.

        With resident tables, the NumPy matcher gathers from them and the
        compiled kernel (:mod:`repro.vsa.kernels_cc`) computes the fires
        plane straight from the padded DVP byte volume over the same
        tables and window — bit-exact with each other.  The compiled
        kernel is used unless ``REPRO_CC`` disables it, the build fails,
        or it disagrees with the matcher on a seeded volume of this
        engine's shape (a self-test at every bind: build and repair);
        then the engine keeps the matcher and both
        ``kernel_info()`` and :attr:`conv_unavailable_reason` record why.
        Without tables (the legacy kernel set, the reference
        configuration) the set's own word-level matcher runs, and nothing
        is compiled.
        """
        self._cc_conv = None
        tables = getattr(self, "_conv_tables", None)
        if tables is None:
            self._fused_matcher = get_kernels().match_builder(self._kernel_tap_bytes)
            self._cc_reason = "the legacy kernel set keeps its word-level matcher"
            return
        from repro.vsa import kernels_cc

        self._fused_matcher = functools.partial(lut8_counts, tables)
        k = self.artifacts.kernel.shape[2]
        nb = self._kernel_tap_bytes.shape[-1] // (k * k)
        fires_fn = kernels_cc.build_conv_fires(
            tables, self._conv_lo, self._conv_hi, k, nb
        )
        if fires_fn is None:
            self._cc_reason = kernels_cc.cc_info()["cc_conv_unavailable_reason"]
            return
        self._cc_reason = self._conv_self_test(fires_fn, k, nb)
        if self._cc_reason is not None:
            kernels_cc.record_unavailable(self._cc_reason)
            return
        self._cc_conv = fires_fn

    def _conv_self_test(self, fires_fn, k: int, nb: int) -> str | None:
        """Run a compiled fires function and the NumPy matcher over one
        seeded random padded volume of this engine's shape; returns the
        reason to distrust it, or ``None`` when the two agree exactly."""
        h, w = self.input_shape
        volume = np.random.default_rng(0).integers(
            0, 256, size=(1, h + k - 1, w + k - 1, nb), dtype=np.uint8
        )
        try:
            got = fires_fn(volume)
        except Exception as exc:  # noqa: BLE001 — any failure disqualifies it
            return f"self-test failed: compiled conv raised {type(exc).__name__}: {exc}"
        want = self._numpy_fires(volume)
        if got.shape != want.shape:
            wrong = want.size
        else:
            wrong = int(np.count_nonzero(got != want))
        if wrong:
            return (
                f"self-test failed: compiled conv differs from the NumPy "
                f"matcher on {wrong} of {want.size} fires"
            )
        return None

    def _numpy_fires(self, padded: np.ndarray) -> np.ndarray:
        """The ``(B, H*W, O)`` fires plane of a zero-padded DVP byte volume,
        through the NumPy matcher and the XOR-count window."""
        k = self.artifacts.kernel.shape[2]
        h, w = self.input_shape
        windows = sliding_window_view(padded, (k, k), axis=(1, 2))
        operand = windows.transpose(0, 1, 2, 4, 5, 3).reshape(
            padded.shape[0], h * w, -1
        )
        counts = self._fused_matcher(operand)  # (B, P, O) XOR bits
        return (self._conv_lo <= counts) & (counts <= self._conv_hi)

    @property
    def conv_backend(self) -> str:
        """Which BiConv implementation the fused path dispatches to."""
        if getattr(self, "_cc_conv", None) is not None:
            return "cc"
        return "numpy"

    @property
    def conv_unavailable_reason(self) -> str | None:
        """Why the BiConv does not run the compiled kernel (``None`` when
        it does)."""
        if self.conv_backend == "cc":
            return None
        if self.mode != "fused":
            return f"the {self.mode} engine has no compiled conv"
        if self.artifacts.kernel is None:
            return "the model has no conv layer"
        return getattr(self, "_cc_reason", None)

    def _fused_tile(self) -> int:
        """Batch-tile size keeping one tile's *entire* pipeline in budget."""
        kernel = self.artifacts.kernel
        p = self.positions
        if kernel is None:
            per_sample = p * 16
        else:
            o, _, k, _ = kernel.shape
            nb = self._kernel_tap_bytes.shape[-1] // (k * k)
            # operand bytes + uint16 XOR counts + the match gather's uint8
            # plane + the fires plane, per (position, out-channel).
            per_sample = p * (o * 4 + k * k * nb + 16)
        budget = self.conv_tile_mb * (1 << 20)
        return max(1, int(budget // max(per_sample, 1)))

    def _scores_fused(self, levels: np.ndarray) -> np.ndarray:
        """The single-pass pipeline: every stage per tile, then the next tile."""
        levels = np.asarray(levels).reshape((-1,) + self.input_shape)
        b = levels.shape[0]
        registry = get_registry()
        registry.counter("packed.samples").add(b)
        n_classes = self._class_inv.shape[1]
        out = np.empty((b, n_classes), dtype=np.int64)
        kernel = self.artifacts.kernel
        if kernel is not None:
            pad = kernel.shape[2] // 2
        tile = self._fused_tile()
        n_tiles = 0
        for start in range(0, b, tile):
            stop = min(start + tile, b)
            n_tiles += 1
            with stage_timer("packed.dvp"):
                volume_bytes = self._dvp_bytes(levels[start:stop])
            if kernel is not None:
                with stage_timer("packed.biconv"):
                    padded = np.pad(
                        volume_bytes, ((0, 0), (pad, pad), (pad, pad), (0, 0))
                    )
                    if self._cc_conv is not None:
                        fires = self._cc_conv(padded)  # (T, P, O) uint8 0/1
                    else:
                        fires = self._numpy_fires(padded)
                    feature_words = _pack_fires(fires)
            else:
                feature_words = _bytes_to_words(
                    volume_bytes.reshape(stop - start, self.positions, -1)
                )
            with stage_timer("packed.encode"):
                matches = _matches_against_inverted(
                    feature_words, self._feature_inv[None], self._enc_bits
                )
                s = np.where(2 * matches - self._enc_bits >= 0, 1, -1).astype(np.int8)
            with stage_timer("packed.similarity"):
                packed = _bytes_to_words(_pack_bytes(s))
                sims = _matches_against_inverted(
                    packed[:, None, None, :], self._class_inv[None], self._sim_bits
                )
                out[start:stop] = (2 * sims - self._sim_bits).sum(axis=1)
        registry.counter("packed.fused.tiles").add(n_tiles)
        registry.gauge("packed.fused.tile_size").set(tile)
        return out

    # ------------------------------------------------------------------
    # fast-mode stages
    # ------------------------------------------------------------------
    def _dvp_bytes(self, levels: np.ndarray) -> np.ndarray:
        """Packed DVP gather: levels (B, W, L) -> channel bytes (B, W, L, nb)."""
        levels = np.asarray(levels).reshape((-1,) + self.input_shape)
        volume = self._value_bytes_high[levels]
        if self._value_bytes_low is not None:
            volume = np.where(
                self._mask_bool[None, :, :, None],
                volume,
                self._value_bytes_low[levels],
            )
        return volume

    def _conv_tile(self, n_positions: int, out_channels: int) -> int:
        """Batch-tile size keeping the conv match intermediates bounded."""
        # Per sample the match loop holds an XOR word plane (8 B), its
        # uint8 counts, and the uint16 accumulator per (position, channel).
        per_sample = n_positions * out_channels * 11
        budget = max(0.0, self.conv_tile_mb) * (1 << 20)
        return max(1, int(budget // max(per_sample, 1)))

    @stage_timer("packed.biconv")
    def _conv_stage_fast(self, volume_bytes: np.ndarray) -> np.ndarray:
        """Packed BiConv: channel bytes (B, W, L, nb) -> feature words
        (B, P, ceil(O/64)) of the fires."""
        kernel = self.artifacts.kernel
        o, _, k, _ = kernel.shape
        b, h, w, nb = volume_bytes.shape
        pad = k // 2
        # Zero bytes are the all -1 channel vector — the border padding.
        padded = np.pad(volume_bytes, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        windows = sliding_window_view(padded, (k, k), axis=(1, 2))  # (B,H,W,nb,k,k)
        operand = windows.transpose(0, 1, 2, 4, 5, 3).reshape(b, h * w, k * k * nb)
        words = _bytes_to_words(operand)  # (B, P, Wc)
        kernel_inv = self._kernel_operand_inv  # (O, Wc)
        n_words = kernel_inv.shape[-1]
        popcount8 = get_kernels().popcount8
        flips = self._flips[None, None, :]
        fires = np.empty((b, h * w, o), dtype=bool)
        tile = self._conv_tile(h * w, o)
        for start in range(0, b, tile):
            stop = min(start + tile, b)
            # Accumulate raw XNOR matches word by word with the output
            # channel axis innermost — large contiguous ufunc inner loops
            # instead of a length-W_c broadcast reduction.
            acc = np.zeros((stop - start, h * w, o), dtype=np.uint16)
            for wi in range(n_words):
                acc += popcount8(
                    words[start:stop, :, wi, None] ^ kernel_inv[None, None, :, wi]
                )
            fires[start:stop] = np.where(
                flips, acc <= self._conv_match_lo, acc >= self._conv_match_hi
            )
        return _pack_fires(fires)

    @stage_timer("packed.encode")
    def _encode_stage_fast(self, feature_words: np.ndarray) -> np.ndarray:
        """Packed encoding: feature words (B, P, Wf) -> bipolar s (B, P)."""
        matches = _matches_against_inverted(
            feature_words, self._feature_inv[None], self._enc_bits
        )
        accumulated = 2 * matches - self._enc_bits
        return np.where(accumulated >= 0, 1, -1).astype(np.int8)

    @stage_timer("packed.similarity")
    def _similarity_stage_fast(self, s: np.ndarray) -> np.ndarray:
        """Packed soft voting: s (B, P) -> scores (B, n_classes)."""
        packed = _bytes_to_words(_pack_bytes(s))
        matches = _matches_against_inverted(
            packed[:, None, None, :], self._class_inv[None], self._sim_bits
        )  # (B, Theta, C)
        dots = 2 * matches - self._sim_bits
        return dots.sum(axis=1)

    def _encode_fast(self, levels: np.ndarray) -> np.ndarray:
        with stage_timer("packed.dvp"):
            volume_bytes = self._dvp_bytes(levels)
        get_registry().counter("packed.samples").add(volume_bytes.shape[0])
        if self._kernel_packed is not None:
            feature_words = self._conv_stage_fast(volume_bytes)
        else:
            b = volume_bytes.shape[0]
            feature_words = _bytes_to_words(
                volume_bytes.reshape(b, self.positions, -1)
            )
        return self._encode_stage_fast(feature_words)

    # ------------------------------------------------------------------
    # legacy stages (the seed engine, kept as baseline and cross-check)
    # ------------------------------------------------------------------
    @stage_timer("packed.biconv")
    def _conv_stage(self, volume: np.ndarray) -> np.ndarray:
        """Packed BiConv: volume (B, D_H, W, L) int8 -> bipolar (B, O, W, L)."""
        kernel = self.artifacts.kernel
        b, c, h, w = volume.shape
        k = kernel.shape[2]
        pad = k // 2
        padded = np.pad(
            volume, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-1
        )
        windows = sliding_window_view(padded, (k, k), axis=(2, 3))  # (B,C,H,W,k,k)
        blocks = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, h * w, c * k * k)
        packed, dim = pack_bipolar(blocks, validate=False)
        matches = xnor_popcount(
            packed[:, :, None, :], self._kernel_packed[None, None, :, :], dim
        )  # (B, P, O)
        accumulated = 2 * matches - dim
        thresholds = self._thresholds[None, None, :]
        flips = self._flips[None, None, :]
        fires = np.where(flips, accumulated <= thresholds, accumulated >= thresholds)
        bipolar = np.where(fires, 1, -1).astype(np.int8)
        return bipolar.transpose(0, 2, 1).reshape(b, -1, h, w)

    @stage_timer("packed.encode")
    def _encode_stage(self, feature: np.ndarray) -> np.ndarray:
        """Packed encoding: (B, channels, W, L) -> bipolar s (B, P)."""
        b = feature.shape[0]
        flat = feature.reshape(b, self._channels, self.positions)
        packed, dim = pack_bipolar(flat.transpose(0, 2, 1), validate=False)  # (B, P, words)
        matches = xnor_popcount(packed, self._feature_packed[None], dim)
        accumulated = 2 * matches - dim
        return np.where(accumulated >= 0, 1, -1).astype(np.int8)

    @stage_timer("packed.similarity")
    def _similarity_stage(self, s: np.ndarray) -> np.ndarray:
        """Packed soft voting: s (B, P) -> scores (B, n_classes)."""
        packed, dim = pack_bipolar(s, validate=False)
        matches = xnor_popcount(
            packed[:, None, None, :], self._class_packed[None], dim
        )  # (B, Theta, C)
        dots = 2 * matches - dim
        return dots.sum(axis=1)

    def _encode_legacy(self, levels: np.ndarray) -> np.ndarray:
        with stage_timer("packed.dvp"):
            volume = self.artifacts.value_volume(levels)
        get_registry().counter("packed.samples").add(volume.shape[0])
        if self._kernel_packed is not None:
            feature = self._conv_stage(volume)
        else:
            feature = volume
        return self._encode_stage(feature)

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Quantizer levels the ValueBox covers — valid inputs are [0, n)."""
        return self.artifacts.value_high.shape[0]

    def resident_operands(self) -> dict:
        """Every array inference reads at serve time, by stable name.

        Covers both the source artifact arrays and the mode's derived
        packed operands (value-volume bytes, conv operand words, packed
        feature/class vectors, thresholds, fused taps, tables and count
        windows).  This is
        the scrub surface of :class:`repro.runtime.integrity
        .IntegrityScrubber`: golden digests are taken over exactly this
        dict at build time and re-checked on every scrub pass, so a bit
        flip in any resident memory is detectable — and a rebuilt engine
        reproduces the same dict bit for bit (construction is
        deterministic given the artifacts).
        """
        operands: dict = {}
        for name in (
            "mask",
            "value_high",
            "value_low",
            "kernel",
            "feature_vectors",
            "class_vectors",
            "conv_thresholds",
            "conv_flips",
        ):
            array = getattr(self.artifacts, name, None)
            if isinstance(array, np.ndarray):
                operands[f"artifacts.{name}"] = array
        for attr in (
            "_kernel_packed",
            "_thresholds",
            "_flips",
            "_feature_packed",
            "_class_packed",
            "_value_bytes_high",
            "_value_bytes_low",
            "_mask_bool",
            "_feature_inv",
            "_class_inv",
            "_kernel_operand_inv",
            "_conv_match_hi",
            "_conv_match_lo",
            "_kernel_tap_bytes",
            "_conv_tables",
            "_conv_lo",
            "_conv_hi",
        ):
            array = getattr(self, attr, None)
            if isinstance(array, np.ndarray):
                operands[f"engine.{attr.lstrip('_')}"] = array
        return operands

    def sibling(self, mode: str, conv_tile_mb: float | None = None) -> "BitPackedUniVSA":
        """An engine over the *same* artifacts in a different mode.

        The resilience layer's degradation ladder uses this to build the
        seed-exact ``legacy`` fallback engine without re-extracting or
        copying artifacts; ``REPRO_ENGINE`` parity tests guarantee the
        sibling is bit-exact with this engine.
        """
        return BitPackedUniVSA(
            self.artifacts,
            mode=mode,
            conv_tile_mb=self.conv_tile_mb if conv_tile_mb is None else conv_tile_mb,
        )

    def traffic_model(self, batch: int = 256) -> dict:
        """Analytic memory-traffic / op-count model of this mode (roofline).

        Per-sample estimates of what the stage pipeline *touches* in
        intermediate arrays (reads + writes at ufunc granularity, bytes),
        how many 64-bit popcount ops and byte-LUT lookups it issues, and
        the peak intermediate footprint one scheduling unit holds (a
        conv/fused tile, or the whole ``batch`` in legacy mode).  The
        footprint is the roofline's x-axis: a pipeline whose tile
        footprint fits in cache pays DRAM only for its inputs, one that
        does not pays DRAM for every intermediate pass.
        """
        p = self.positions
        theta, n_classes = self._class_packed.shape[:2]
        ws = self._class_packed.shape[-1]
        wf = self._feature_packed.shape[-1]
        kernel = self.artifacts.kernel
        # Encode + similarity: XOR/popcount against the feature words,
        # then pack + XOR/popcount against the class words (per sample).
        tail_bytes = p * wf * 18 + p * 2 + theta * n_classes * ws * 18
        tail_pops = p * wf + theta * n_classes * ws
        if kernel is None:
            model = {
                "bytes_per_sample": float(tail_bytes),
                "popcounts_per_sample": float(tail_pops),
                "lut_lookups_per_sample": 0.0,
                "tile_samples": int(batch),
                "peak_intermediate_mb": batch * p * 18 / (1 << 20),
            }
        else:
            o, c, k, _ = kernel.shape
            nb = -(-c // 8)
            block_bytes = k * k * nb  # packed conv operand bytes per position
            wc = -(-block_bytes // 8)
            if self.mode == "fused":
                # Gather-accumulate: 1 operand byte read + O table-row
                # gathers + O uint16 accumulator read-modify-writes per
                # block byte; no XOR word plane exists at all.
                conv_bytes = 2 * p * block_bytes + p * block_bytes * (1 + 5 * o)
                conv_pops = 0
                lut = p * o * block_bytes
                tile = self._fused_tile()
                peak = tile * p * (o * 4 + block_bytes + 16)
            elif self.mode == "fast":
                # Word loop: per (position, channel, word) an 8-byte XOR
                # temp is written and re-read, popcounted to a uint8, and
                # accumulated into a uint16.
                conv_bytes = 2 * p * block_bytes + p * o * wc * 22
                conv_pops = p * o * wc
                lut = 0
                tile = self._conv_tile(p, o)
                peak = tile * p * o * 11
            else:
                # Legacy materializes the int8 operand block and packs it
                # per call, then runs the same word-loop match broadcast.
                conv_bytes = 2 * p * c * k * k + p * wc * 16 + p * o * wc * 24
                conv_pops = p * o * wc
                lut = 0
                tile = int(batch)
                peak = batch * p * (c * k * k + o * wc * 17)
            model = {
                "bytes_per_sample": float(conv_bytes + tail_bytes),
                "popcounts_per_sample": float(conv_pops + tail_pops),
                "lut_lookups_per_sample": float(lut),
                "tile_samples": int(tile),
                "peak_intermediate_mb": peak / (1 << 20),
            }
        model["mode"] = self.mode
        return model

    def publish_traffic_metrics(self, registry=None, batch: int = 256) -> None:
        """Record the traffic model as ``packed.traffic.*`` gauges."""
        if registry is None:
            registry = get_registry()
        model = self.traffic_model(batch=batch)
        registry.gauge("packed.traffic.bytes_per_sample").set(
            model["bytes_per_sample"]
        )
        registry.gauge("packed.traffic.popcounts_per_sample").set(
            model["popcounts_per_sample"]
        )
        registry.gauge("packed.traffic.lut_lookups_per_sample").set(
            model["lut_lookups_per_sample"]
        )
        registry.gauge("packed.traffic.peak_intermediate_mb").set(
            model["peak_intermediate_mb"]
        )

    def encode(self, levels: np.ndarray) -> np.ndarray:
        """Levels (B, W, L) -> bipolar sample vectors (B, W*L).

        Fused mode reuses the fast encode path here: fusion is a
        *schedule* over bit-identical stages, and a caller asking for
        the intermediate representation wants the whole batch anyway.
        """
        if self.mode in ("fast", "fused"):
            return self._encode_fast(levels)
        return self._encode_legacy(levels)

    def scores(self, levels: np.ndarray) -> np.ndarray:
        """Soft-voting class scores (B, n_classes)."""
        with trace_span("packed.classify"):
            if self.mode == "fused":
                scores = self._scores_fused(levels)
            elif self.mode == "fast":
                scores = self._similarity_stage_fast(self.encode(levels))
            else:
                scores = self._similarity_stage(self.encode(levels))
            record_soft_vote_margins(scores)
            annotate_span(batch=scores.shape[0])
            return scores

    def predict(self, levels: np.ndarray) -> np.ndarray:
        """Predicted labels via the packed datapath."""
        return self.scores(levels).argmax(axis=1)

    def score(self, levels: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy."""
        return float((self.predict(levels) == np.asarray(y)).mean())
