"""Compiled conv-fires kernel: a tiny C hot loop built with gcc at first use.

The fused engine's dominant cost is the BiConv byte-LUT match: for every
(sample, position, out-channel) it sums per-tap XOR popcounts gathered
from 256-entry tables and compares the total against an integer bound.
NumPy executes that as ``taps`` separate fancy-gather + add passes over a
``(T, P, O)`` uint16 plane — memory-bound and allocation-heavy.  The C
kernel below walks the *padded DVP volume bytes* directly: per position
it resolves one table row pointer per tap, then runs a single
vectorizable sum+compare loop over the out channels, writing the fires
plane in place.  No window materialization, no uint16 intermediates.

Design constraints:

* **Compile at first use, never at import.**  The source is generated
  with the tap count baked in as a compile-time constant (the inner
  loops must unroll; a runtime tap count defeats vectorization) and
  compiled with ``gcc -O3 -march=native`` into a per-user cache dir
  under the system temp dir.  The artifact is keyed by a hash of the
  source, the compile flags and the host CPU identity — a
  ``-march=native`` binary found in a temp dir shared with another host
  must not be loaded here — and reused across processes; compilation
  is atomic (temp + rename) so concurrent workers race benignly.
* **The engine owns the operands.**  The tap tables and the inclusive
  XOR-count window ``lo <= acc <= hi`` per channel are the fused
  engine's resident arrays (``BitPackedUniVSA._init_fused``), which its
  NumPy matcher reads too, so the integrity scrubber covers every byte
  this kernel reads.  Every pointer handed to C is checked for dtype,
  shape and contiguity first: at build for the engine's arrays, on each
  call for the volume.
* **Graceful degradation.**  ``REPRO_CC=0`` (or ``off``/``false``/
  ``no``), a missing compiler, or a failed build all surface as
  ``build_conv_fires(...) -> None`` with the reason recorded — callers
  keep the NumPy matcher and :func:`cc_info` reports why.  A kernel that
  builds but disagrees with the NumPy matcher on the engine's load-time
  self-test is dropped the same way (:func:`record_unavailable`).
* ctypes releases the GIL for the call, so thread executors overlap
  compute; the kernel itself is pure and re-entrant.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading

import numpy as np

__all__ = [
    "build_conv_fires",
    "cc_enabled",
    "cc_info",
    "record_unavailable",
    "reset_cc",
]

_ENV_FLAG = "REPRO_CC"
_OFF_VALUES = {"0", "false", "off", "no"}

_C_TEMPLATE = r"""
#include <stdint.h>
#include <stddef.h>

#define TAPS {taps}

void conv_fires(const uint8_t *restrict vol,
                const int64_t *restrict offs,
                const uint8_t *restrict tables,
                const uint16_t *restrict blo,
                const uint16_t *restrict bhi,
                uint8_t *restrict fires,
                int64_t batch, int64_t height, int64_t width,
                int64_t img_stride, int64_t row_stride, int64_t col_stride,
                int64_t o)
{{
    const uint8_t *rows[TAPS];
    for (int64_t bi = 0; bi < batch; ++bi) {{
        for (int64_t i = 0; i < height; ++i) {{
            const uint8_t *base = vol + bi * img_stride + i * row_stride;
            for (int64_t j = 0; j < width; ++j) {{
                const uint8_t *pos = base + j * col_stride;
                for (int t = 0; t < TAPS; ++t)
                    rows[t] = tables + ((size_t)t * 256 + pos[offs[t]]) * (size_t)o;
                for (int64_t c = 0; c < o; ++c) {{
                    unsigned acc = 0;
                    for (int t = 0; t < TAPS; ++t)
                        acc += rows[t][c];
                    *fires++ = (uint8_t)((blo[c] <= acc) & (acc <= bhi[c]));
                }}
            }}
        }}
    }}
}}
"""

_lock = threading.Lock()
_libs: dict[int, ctypes.CDLL | None] = {}
_reasons: dict[int, str] = {}
_global_reason: str | None = None


def cc_enabled() -> bool:
    """Whether the compiled conv backend is allowed by the environment."""
    return os.environ.get(_ENV_FLAG, "1").strip().lower() not in _OFF_VALUES


def reset_cc() -> None:
    """Drop cached libraries/reasons (tests toggling availability)."""
    global _global_reason
    with _lock:
        _libs.clear()
        _reasons.clear()
        _global_reason = None


def record_unavailable(reason: str) -> None:
    """Record why a built kernel is not used (the engine's load-time
    self-test rejected it), for :func:`cc_info`."""
    global _global_reason
    _global_reason = reason


def cc_info() -> dict:
    """Availability snapshot for :func:`repro.vsa.kernels.kernel_info`."""
    compiled = sorted(taps for taps, lib in _libs.items() if lib is not None)
    reason = _global_reason
    if reason is None and _reasons:
        reason = next(iter(_reasons.values()))
    return {
        "cc_conv_enabled": cc_enabled(),
        "cc_conv_compiled_taps": compiled,
        "cc_conv_unavailable_reason": reason,
    }


def _cache_dir() -> str:
    path = os.path.join(
        tempfile.gettempdir(), f"repro-cc-{os.getuid()}"
    )
    os.makedirs(path, mode=0o700, exist_ok=True)
    return path


#: Compile attempts in order: tuned for this CPU, then portable.
_FLAG_SETS = (("-O3", "-march=native", "-funroll-loops"), ("-O3",))

#: ``/proc/cpuinfo`` fields that identify what ``-march=native`` targets
#: (x86 and ARM spellings); per-core and clock fields are left out.
_CPU_FIELDS = {
    "vendor_id", "cpu family", "model", "model name", "stepping", "flags",
    "CPU implementer", "CPU architecture", "CPU variant", "CPU part", "Features",
}


def _host_cpu() -> str:
    """The host CPU identity, from the first processor in /proc/cpuinfo."""
    lines = [platform.machine()]
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if not line.strip():
                    break
                if line.split(":", 1)[0].strip() in _CPU_FIELDS:
                    lines.append(line.strip())
    except OSError:
        lines.append(platform.processor())
    return "\n".join(lines)


def _artifact_name(taps: int, source: str) -> str:
    """The cached library's file name: a hash of everything that decides
    whether a built binary runs correctly here."""
    key = "\0".join([source, repr(_FLAG_SETS), _host_cpu()])
    return f"conv{taps}-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"


def _compile(taps: int) -> ctypes.CDLL:
    source = _C_TEMPLATE.format(taps=taps)
    cache = _cache_dir()
    so_path = os.path.join(cache, _artifact_name(taps, source))
    if not os.path.exists(so_path):
        gcc = shutil.which("gcc") or shutil.which("cc")
        if gcc is None:
            raise RuntimeError("no C compiler (gcc/cc) on PATH")
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=cache)
        with os.fdopen(fd, "w") as fh:
            fh.write(source)
        tmp_so = c_path[:-2] + ".so"
        try:
            last = None
            for flags in _FLAG_SETS:
                cmd = [gcc, *flags, "-shared", "-fPIC", "-o", tmp_so, c_path]
                last = subprocess.run(cmd, capture_output=True, text=True)
                if last.returncode == 0:
                    break
            if last is None or last.returncode != 0:
                stderr = (last.stderr or "").strip() if last else ""
                raise RuntimeError(f"cc build failed: {stderr[:400]}")
            os.replace(tmp_so, so_path)
        finally:
            for leftover in (c_path, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    lib = ctypes.CDLL(so_path)
    fn = lib.conv_fires
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64] * 7
    return lib


def _load(taps: int) -> ctypes.CDLL | None:
    global _global_reason
    with _lock:
        if taps in _libs:
            return _libs[taps]
        try:
            lib = _compile(taps)
        except Exception as exc:  # pragma: no cover - host-dependent
            _libs[taps] = None
            _reasons[taps] = str(exc)
            _global_reason = str(exc)
            return None
        _libs[taps] = lib
        return lib


def _operands_ok(tables, lo, hi, taps: int) -> bool:
    """Whether the engine's operand arrays have the layout the C loop assumes."""
    o = tables.shape[-1]
    return (
        tables.shape == (taps, 256, o)
        and tables.dtype == np.uint8
        and lo.shape == hi.shape == (o,)
        and lo.dtype == hi.dtype == np.uint16
        and all(a.flags.c_contiguous for a in (tables, lo, hi))
    )


def build_conv_fires(tables, lo, hi, k, nb):
    """Build a compiled fires function over one engine's conv operands.

    ``tables`` is the engine's ``(k*k*nb, 256, O)`` uint8 per-tap
    XOR-popcount table (:func:`repro.vsa.kernels.conv_tables`) and
    ``lo``/``hi`` its ``(O,)`` uint16 XOR-count window; a channel fires
    when ``lo <= count <= hi``.  The kernel reads these very arrays, not
    copies, so a flip in resident memory and its repair are both seen.
    Returns ``fires_fn(padded_volume_bytes) -> (B, H*W, O) uint8``
    operating on the zero-padded ``(B, H+k-1, W+k-1, nb)`` uint8 DVP byte
    volume, or ``None`` when the compiled backend is unavailable or the
    operands have another layout (reason recorded in :func:`cc_info`).
    """
    global _global_reason
    if not cc_enabled():
        _global_reason = f"disabled via {_ENV_FLAG}"
        return None
    taps = k * k * nb
    if not _operands_ok(tables, lo, hi, taps):
        _global_reason = (
            f"operand layout mismatch: want ({taps}, 256, O) uint8 tables and "
            "(O,) uint16 bounds, all C-contiguous"
        )
        return None
    o = tables.shape[2]
    lib = _load(taps)
    if lib is None:
        return None
    fn = lib.conv_fires

    offs_cache: dict[int, np.ndarray] = {}

    def _offsets(wp: int) -> np.ndarray:
        offs = offs_cache.get(wp)
        if offs is None:
            row_stride = wp * nb
            kh, kw, cb = np.meshgrid(
                np.arange(k), np.arange(k), np.arange(nb), indexing="ij"
            )
            offs = (kh * row_stride + kw * nb + cb).reshape(-1).astype(np.int64)
            offs = np.ascontiguousarray(offs)
            offs_cache[wp] = offs
        return offs

    def fires_fn(padded: np.ndarray) -> np.ndarray:
        # The C loop trusts these: a wider dtype or another channel-byte
        # count would make it read table rows and volume bytes that do
        # not exist.
        if (
            padded.dtype != np.uint8
            or padded.ndim != 4
            or padded.shape[-1] != nb
            or padded.shape[1] < k
            or padded.shape[2] < k
        ):
            raise ValueError(
                f"conv volume must be (B, H+{k - 1}, W+{k - 1}, {nb}) uint8, "
                f"got {padded.dtype} {padded.shape}"
            )
        padded = np.ascontiguousarray(padded)
        b, hp, wp, _ = padded.shape
        h = hp - (k - 1)
        w = wp - (k - 1)
        offs = _offsets(wp)
        out = np.empty((b, h * w, o), dtype=np.uint8)
        fn(
            padded.ctypes.data_as(ctypes.c_void_p),
            offs.ctypes.data_as(ctypes.c_void_p),
            tables.ctypes.data_as(ctypes.c_void_p),
            lo.ctypes.data_as(ctypes.c_void_p),
            hi.ctypes.data_as(ctypes.c_void_p),
            out.ctypes.data_as(ctypes.c_void_p),
            b,
            h,
            w,
            hp * wp * nb,
            wp * nb,
            nb,
            o,
        )
        return out

    fires_fn.taps = taps  # type: ignore[attr-defined]
    fires_fn.backend = "cc"  # type: ignore[attr-defined]
    return fires_fn
