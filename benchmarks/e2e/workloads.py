"""The three workloads and the seeded inputs they send.

Everything here is derived from ``--seed`` alone, with NumPy and nothing
from ``repro``: the program under test receives only the generated
request lines and batches, so no change to the program can alter the
inputs it is measured on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODELS_DIR = Path(__file__).resolve().parent / "models"

#: Measured seconds per run (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 30

#: Distinct samples in a wire workload's request bank.  Every bank sample
#: is checked against the oracle before timing, so the bank is the set of
#: answers the timed run can be checked against.
BANK_SIZE = 64
#: Distinct 256-sample batches ``batch-offline`` cycles through.
OFFLINE_BATCHES = 4
#: Samples per ``run()`` call on ``batch-offline``.
OFFLINE_BATCH = 256
#: Load connections a wire workload opens (one per CPU of the reference
#: 2-CPU machine).
CONNECTIONS = 2
#: Percentiles the tail metric may use, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 97.5, 98.0, 99.0, 99.5, 99.8, 99.9)
#: Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Wire workloads send Poisson arrivals at ``rate`` requests/s for the
    whole run, then allow ``grace_s`` for the last answers; grace ends
    early once every request is answered.  ``batch-offline`` runs
    back-to-back ``run()`` calls for the whole run; its call count
    varies with speed, so its tail percentile is fixed here instead of
    being derived from the count.  It is p95 (about 45 of 900 calls
    beyond it), not p98: a per-call p98 on a shared host is set by host
    stalls and moves 5-10% between runs even after host scaling.
    """

    name: str
    kind: str  # "wire" or "batch"
    task: str
    why: str
    rate: float = 0.0
    grace_s: float = 0.0
    tail_pct: float | None = None

    @property
    def model_path(self) -> Path:
        return MODELS_DIR / f"{self.task}.npz"

    def request_count(self, seconds: float) -> int:
        return max(1, int(round(self.rate * seconds)))

    def tail(self, seconds: float) -> float:
        """The percentile ``tail_ms`` reports at this run length."""
        if self.tail_pct is not None:
            return self.tail_pct
        return tail_percentile(self.request_count(seconds))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wire-light",
            kind="wire",
            task="bci-iii-v",
            why=(
                "bci-iii-v, 10 req/s Poisson, 300 requests, tail p95: well "
                "below capacity, so fixed per-request costs (flush wait, wire, "
                "one-sample compute) set latency"
            ),
            rate=10.0,
            grace_s=2.0,
        ),
        Workload(
            name="wire-large",
            kind="wire",
            task="chb-b",
            why=(
                "chb-b, 5 KB lines, 10 req/s Poisson, 300 requests, tail "
                "p95: as wire-light, but codec, DVP and encode weigh more "
                "and BiConv less"
            ),
            rate=10.0,
            grace_s=2.0,
        ),
        Workload(
            name="batch-offline",
            kind="batch",
            task="bci-iii-v",
            why=(
                "bci-iii-v, back-to-back run() of 256 samples, tail p95, "
                "host-scaled: no wire and no micro-batcher, so runner plus "
                "engine, dominated by BiConv"
            ),
            tail_pct=95.0,
        ),
    )
}


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per input stream of one seed."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def arrivals(count: int, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (s, ascending) of ``count`` open-loop arrivals.

    Given its count, a Poisson process puts its arrivals at independent
    uniform draws over the window, so sorted uniform draws give
    exact-count Poisson arrivals with mean rate ``count / duration_s``.
    """
    if count < 1 or duration_s <= 0:
        raise ValueError("arrivals needs count >= 1 and duration_s > 0")
    return np.sort(rng.uniform(0.0, duration_s, count))


def schedule(workload: Workload, seconds: float) -> np.ndarray:
    """The workload's due offsets at this run length.

    The schedule is drawn once per workload (seeded by its name), not
    from ``--seed``: under queueing, which requests arrive close together
    moves a tail percentile of a few hundred requests by 10-30% from one
    draw to the next, far more than any bound worth enforcing.  With the
    schedule fixed, ``--seed`` draws the request contents.
    """
    return arrivals(
        workload.request_count(seconds), seconds, rng_for(0, f"schedule:{workload.name}")
    )


def bank(rng: np.random.Generator, size: int, shape: tuple, levels: int) -> np.ndarray:
    """``size`` quantized samples of ``shape`` with values in ``[0, levels)``."""
    return rng.integers(0, levels, size=(size,) + tuple(shape), dtype=np.int64)


def offline_batches(seed: int, shape: tuple, levels: int) -> np.ndarray:
    """The ``batch-offline`` inputs: ``(OFFLINE_BATCHES, OFFLINE_BATCH) + shape``."""
    samples = bank(rng_for(seed, "offline"), OFFLINE_BATCHES * OFFLINE_BATCH, shape, levels)
    return samples.reshape((OFFLINE_BATCHES, OFFLINE_BATCH) + tuple(shape))


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ``TAIL_BEYOND`` of
    ``count`` samples beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= TAIL_BEYOND - 1e-9:
            best = pct
    return best
