"""Host speed references for the CPU-bound numbers.

The machines this benchmark runs on share their cores: the same
single-threaded NumPy loop runs anywhere from 1x to 1.9x slower from one
minute to the next.  ``batch-offline`` is pure CPU work, so its raw
samples/s swings with the host by as much, far beyond any useful bound.
The child therefore runs a fixed BiConv-like kernel after every ``run()``
call, on two threads like the runner's default pool, and the benchmark
divides each call's time by the probe's median time around that call over
``NOMINAL_S``: what the run would have measured on a host where the probe
takes ``NOMINAL_S``.  The kernel is NumPy only and lives here, so no
change to the program can move it.

Process start-up drifts the same way, between about 0.35 s and 0.6 s for
the same cold start, in phases lasting a minute or so that an in-process
kernel does not see.  So every cold start is preceded by a start probe:
a fresh interpreter importing NumPy and some of the standard library,
nothing from the repository.  ``setup_s`` scales each cold start by
``START_NOMINAL_S`` over the probe's time.
"""

from __future__ import annotations

import asyncio
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .sut import ROOT, BenchError, hermetic_env

#: The probe's median time on the reference host (2 CPUs, quiet).
NOMINAL_S = 0.0007
#: What the start probe runs, and its time on the reference host.
START_PROBE = "import numpy, json, asyncio, email.parser, http.client, decimal"
START_NOMINAL_S = 0.15
#: Probes (one per call) in the window that scales one call.
LOCAL_WINDOW = 21
_THREADS = 2
#: One thread's share: 48 operand rows against 151 kernel rows (the
#: bci-iii-v model's conv channels) of 72 bytes each.
_POSITIONS, _KERNELS, _BYTES = 48, 151, 72


class HostProbe:
    """A fixed two-thread XOR-popcount kernel shaped like BiConv.

    A probe doing the same kind of work as the engine tracks what slows
    the engine down far better than a memory-streaming one: across runs
    the scaled rate spreads about 2% against 4-5%.
    """

    def __init__(self) -> None:
        if not hasattr(np, "bitwise_count"):
            raise RuntimeError("the host probe needs NumPy >= 2.0 (np.bitwise_count)")
        rng = np.random.default_rng(0)
        self._operands = rng.integers(
            0, 256, (_THREADS, _POSITIONS, 1, _BYTES), dtype=np.uint8
        )
        self._kernels = rng.integers(0, 256, (1, _KERNELS, _BYTES), dtype=np.uint8)
        self._pool = ThreadPoolExecutor(max_workers=_THREADS, thread_name_prefix="hostref")

    def _part(self, operand: np.ndarray) -> int:
        matches = np.bitwise_count(np.bitwise_xor(operand, self._kernels))
        return int(matches.sum(axis=-1, dtype=np.uint16).sum())

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        began = time.perf_counter()
        for future in [self._pool.submit(self._part, p) for p in self._operands]:
            future.result()
        return time.perf_counter() - began

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def speed_factor(probe_s) -> float:
    """How much slower than the reference host this run's host was."""
    return float(np.median(np.asarray(probe_s, dtype=np.float64))) / NOMINAL_S


def local_speed_factors(probe_s, window: int = LOCAL_WINDOW) -> np.ndarray:
    """Per call: the speed factor over the ``window`` probes centred on it.

    Contention changes within a run too, so each call is scaled by the
    probes taken around it; the median over a window (about half a
    second of calls) keeps one disturbed probe from moving a call.
    """
    probes = np.asarray(probe_s, dtype=np.float64)
    half = window // 2
    padded = np.pad(probes, (half, half), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)
    return np.median(windows, axis=1) / NOMINAL_S


async def time_start_probe() -> float:
    """Spawn the start probe once and wait for it; returns its wall time."""
    began = time.perf_counter()
    proc = await asyncio.create_subprocess_exec(
        sys.executable, "-c", START_PROBE,
        cwd=str(ROOT),
        env=hermetic_env(),
        stdin=asyncio.subprocess.DEVNULL,
        stdout=asyncio.subprocess.DEVNULL,
        stderr=asyncio.subprocess.DEVNULL,
    )
    if await proc.wait() != 0:
        raise BenchError(f"the start probe exited with {proc.returncode}")
    return time.perf_counter() - began
