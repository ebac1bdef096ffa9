"""The batch runner: sharded packed inference that survives failures.

:class:`ResilientBatchRunner` is the runtime's one batch runner.  It
shards a batch of quantized level frames across a thread pool, runs
:class:`repro.core.BitPackedUniVSA` on each shard and reassembles the
scores in input order.  The bit kernels are NumPy ufunc loops and the
compiled conv kernel is a ctypes call, both of which release the GIL, so
shards genuinely overlap while every worker reads the one engine in this
process.  A one-worker runner, or a batch that fits one shard, runs
inline on the calling thread.

Each shard follows a fixed degradation ladder:

1. **Retry** — a shard attempt that raises or times out (``timeout_s``
   result deadline) is retried up to ``max_retries`` times with
   exponential backoff and deterministic jitter.
2. **Fallback** — when the fast engine keeps failing, the shard runs
   inline on the seed-exact ``legacy`` engine
   (:meth:`~repro.core.inference.BitPackedUniVSA.sibling`); engine
   parity tests guarantee the downgrade is bit-exact, so the only cost
   is latency.  The downgrade is recorded per shard.
3. **Quarantine** — invalid samples (NaN/Inf, non-integral, out-of-range
   levels) are detected *before* sharding and excluded instead of
   poisoning a whole shard; a shard that exhausts the ladder likewise
   quarantines its samples rather than aborting the batch.  Quarantined
   rows score zero and predict ``-1``.
4. **Circuit breaker** — ``breaker_threshold`` *consecutive* shard
   failures trip the breaker: remaining shards are skipped and
   :class:`CircuitOpenError` is raised carrying the structured
   :class:`BatchReport`, so a systemic outage fails fast instead of
   grinding through retries.

A plain run — no retry, no fallback, the first failed shard fatal — is
the policy ``RetryPolicy(max_retries=0, fallback=False,
breaker_threshold=1)``, not a second runner.

Every event lands in the observability stack.  Each shard runs under
``stage_timer("batch.shard")``; a ``batch.run`` trace root annotated
with batch size, shard count and worker count wraps the whole call;
``batch.{samples,shards}`` counters and a ``batch.workers`` gauge record
what the pool did.  The ladder adds ``resilience.{retries, fallbacks,
quarantined, timeouts, failed_shards}`` counters,
``resilience.{breaker_open, degraded}`` gauges, and a ``batch.retry``
stage timer whose spans annotate the shard, attempt, and error.  The run
ledger harvests the ``resilience.*`` instruments into every record (see
:func:`repro.obs.ledger.record_run`), so degraded runs are marked in
``benchmarks/results/ledger.jsonl``.

Chaos specs (:mod:`repro.runtime.chaos`, ``REPRO_CHAOS``) plug into the
same shard seam, which is how the whole ladder is exercised end to end
in tests and the CI ``chaos-smoke`` job.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.obs import annotate_span, get_registry, stage_timer, trace_span
from repro.vsa.kernels import get_kernels, using_kernels

from .batch import WorkerPool, resolve_workers
from .chaos import ChaosError, ChaosSpec, chaos_context, chaos_kernels

__all__ = [
    "RetryPolicy",
    "ShardStatus",
    "BatchReport",
    "BatchResult",
    "CircuitOpenError",
    "ResilientBatchRunner",
    "validate_levels",
    "serving_predict_fn",
]

#: Prediction emitted for quarantined / failed samples.
QUARANTINED_LABEL = -1


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the degradation ladder.

    ``max_retries`` counts *extra* pool attempts per shard beyond the
    first; ``timeout_s`` is the per-attempt result deadline (``None``
    disables it).  A timed-out attempt is abandoned, never interrupted —
    a running attempt keeps occupying its worker until it finishes, so a
    timed-out shard can transiently hold two workers; if the abandoned
    attempt completes cleanly during the retry backoff its result is
    collected instead of resubmitting.  Backoff before retry ``k`` is
    ``min(backoff_max_s, backoff_base_s * 2**(k-1))`` scaled by a
    deterministic jitter in [0.5, 1.5).  ``breaker_threshold``
    consecutive shard failures trip the breaker.
    """

    max_retries: int = 2
    timeout_s: float | None = None
    backoff_base_s: float = 0.02
    backoff_max_s: float = 1.0
    fallback: bool = True
    breaker_threshold: int = 5
    validate: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")

    @classmethod
    def from_env(cls, environ=None) -> "RetryPolicy":
        """Policy from ``REPRO_RETRIES`` / ``REPRO_SHARD_TIMEOUT_S`` /
        ``REPRO_BACKOFF_S`` / ``REPRO_BACKOFF_MAX_S`` / ``REPRO_FALLBACK``
        / ``REPRO_BREAKER`` / ``REPRO_VALIDATE`` / ``REPRO_RETRY_SEED``
        (unset keys keep the defaults)."""
        env = os.environ if environ is None else environ

        def _get(key, cast, default):
            raw = env.get(key)
            if raw is None or not str(raw).strip():
                return default
            try:
                return cast(raw)
            except (TypeError, ValueError):
                return default

        # No ``or None`` truthiness here: an explicit "0" deadline is a
        # misconfiguration that must raise in __post_init__, not silently
        # read as "no deadline".
        return cls(
            max_retries=max(0, _get("REPRO_RETRIES", int, cls.max_retries)),
            timeout_s=_get("REPRO_SHARD_TIMEOUT_S", float, None),
            backoff_base_s=_get("REPRO_BACKOFF_S", float, cls.backoff_base_s),
            backoff_max_s=_get("REPRO_BACKOFF_MAX_S", float, cls.backoff_max_s),
            fallback=str(env.get("REPRO_FALLBACK", "1")).strip() not in ("0", "false", "no"),
            breaker_threshold=max(1, _get("REPRO_BREAKER", int, cls.breaker_threshold)),
            validate=str(env.get("REPRO_VALIDATE", "1")).strip() not in ("0", "false", "no"),
            seed=_get("REPRO_RETRY_SEED", int, cls.seed),
        )

    def backoff_s(self, shard: int, attempt: int) -> float:
        """Deterministic jittered backoff before retry ``attempt`` (>= 1)."""
        base = min(self.backoff_max_s, self.backoff_base_s * (2.0 ** max(0, attempt - 1)))
        jitter = np.random.default_rng((self.seed, 104729, shard, attempt)).random()
        return base * (0.5 + jitter)


# ---------------------------------------------------------------------------
# structured reporting
# ---------------------------------------------------------------------------
@dataclass
class ShardStatus:
    """What happened to one shard across the degradation ladder."""

    index: int
    start: int
    stop: int
    status: str = "pending"  # ok | fallback | failed | skipped
    attempts: int = 0
    retries: int = 0
    #: Engine that produced the accepted result: the runner's engine mode
    #: (``fast``, ``fused`` or ``legacy``), or ``seed`` after a fallback.
    engine: str = ""
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def samples(self) -> int:
        """Samples the shard covers (post-quarantine batch coordinates)."""
        return self.stop - self.start

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "span": [self.start, self.stop],
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "engine": self.engine,
            "errors": list(self.errors),
            "wall_s": self.wall_s,
        }


@dataclass
class BatchReport:
    """Structured account of one resilient batch run — every shard, every
    retry, every downgrade, every quarantined sample."""

    batch: int
    shards: list[ShardStatus] = field(default_factory=list)
    quarantined: dict[int, str] = field(default_factory=dict)  # index -> reason
    failed_samples: list[int] = field(default_factory=list)
    breaker_open: bool = False
    chaos: dict = field(default_factory=dict)
    shard_size: int | None = None  # effective samples per shard this run

    @property
    def n_shards(self) -> int:
        """Shards the batch actually split into."""
        return len(self.shards)

    @property
    def retries(self) -> int:
        """Total retries across all shards."""
        return sum(s.retries for s in self.shards)

    @property
    def fallbacks(self) -> int:
        """Shards that downgraded to the seed engine."""
        return sum(1 for s in self.shards if s.status == "fallback")

    @property
    def excluded(self) -> list[int]:
        """Original batch indices with no trustworthy prediction."""
        return sorted(set(self.quarantined) | set(self.failed_samples))

    @property
    def degraded(self) -> bool:
        """True when anything deviated from the clean fast path."""
        return bool(
            self.retries
            or self.fallbacks
            or self.quarantined
            or self.failed_samples
            or self.breaker_open
        )

    @property
    def ok(self) -> bool:
        """True when every sample produced a prediction."""
        return not self.breaker_open and not self.excluded

    def as_dict(self) -> dict:
        return {
            "batch": self.batch,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "breaker_open": self.breaker_open,
            "degraded": self.degraded,
            "quarantined": {str(k): v for k, v in sorted(self.quarantined.items())},
            "failed_samples": sorted(self.failed_samples),
            "chaos": dict(self.chaos),
            "shard_size": self.shard_size,
            "n_shards": self.n_shards,
            "shards": [s.as_dict() for s in self.shards],
        }

    def render(self) -> str:
        """Text table: one row per shard plus a summary header."""
        from repro.utils.tables import render_kv, render_table

        header = render_kv(
            {
                "batch": self.batch,
                "shards": len(self.shards),
                "retries": self.retries,
                "fallbacks": self.fallbacks,
                "quarantined": len(self.quarantined),
                "failed samples": len(self.failed_samples),
                "breaker": "OPEN" if self.breaker_open else "closed",
                "verdict": "degraded" if self.degraded else "clean",
            },
            title="resilient batch report",
        )
        rows = [
            [
                s.index,
                f"[{s.start}, {s.stop})",
                s.status,
                s.attempts,
                s.retries,
                s.engine,
                ";".join(s.errors) or "-",
            ]
            for s in self.shards
        ]
        table = render_table(
            ["shard", "span", "status", "attempts", "retries", "engine", "errors"],
            rows,
            title="shards",
        )
        return header + "\n\n" + table


@dataclass
class BatchResult:
    """Scores + predictions + the report that vouches for them."""

    scores: np.ndarray
    predictions: np.ndarray
    report: BatchReport


class CircuitOpenError(RuntimeError):
    """Raised when the breaker trips; carries the :class:`BatchReport`."""

    def __init__(self, message: str, report: BatchReport) -> None:
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# input validation / quarantine
# ---------------------------------------------------------------------------
def validate_levels(
    levels: np.ndarray, input_shape: tuple[int, int], n_levels: int
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Split a raw batch into servable samples and quarantined ones.

    Returns ``(clean, good_indices, quarantined)`` where ``clean`` is the
    integer level batch of the valid samples (original order preserved),
    ``good_indices`` maps its rows back to the input batch, and
    ``quarantined`` maps bad row indices to a reason (``"non-finite"``,
    ``"non-integral"``, ``"out-of-range"``).  A batch whose trailing
    shape disagrees with ``input_shape`` is a caller bug, not bad data,
    and raises ``ValueError``.
    """
    levels = np.asarray(levels)
    expected = tuple(input_shape)
    if levels.ndim == len(expected):
        levels = levels[None]
    if levels.shape[1:] != expected:
        raise ValueError(
            f"levels batch has per-sample shape {levels.shape[1:]}, "
            f"engine expects {expected}"
        )
    n = levels.shape[0]
    quarantined: dict[int, str] = {}
    if n:
        flat = levels.reshape(n, -1)
        if np.issubdtype(levels.dtype, np.floating):
            finite = np.isfinite(flat).all(axis=1)
            for idx in np.flatnonzero(~finite):
                quarantined[int(idx)] = "non-finite"
            safe = np.where(np.isfinite(flat), flat, 0.0)
            integral = (np.mod(safe, 1.0) == 0.0).all(axis=1)
            for idx in np.flatnonzero(finite & ~integral):
                quarantined[int(idx)] = "non-integral"
            values = safe
        elif np.issubdtype(levels.dtype, np.integer) or levels.dtype == np.bool_:
            values = flat
        else:
            raise TypeError(f"levels dtype {levels.dtype} is not numeric")
        in_range = ((values >= 0) & (values < n_levels)).all(axis=1)
        for idx in np.flatnonzero(~in_range):
            quarantined.setdefault(int(idx), "out-of-range")
    good = np.array(
        [i for i in range(n) if i not in quarantined], dtype=np.intp
    )
    clean = (
        np.ascontiguousarray(levels[good]).astype(np.intp, copy=False)
        if good.size
        else np.zeros((0,) + expected, dtype=np.intp)
    )
    return clean, good, quarantined


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------
class ResilientBatchRunner:
    """Order-preserving sharded execution that survives failures.

    Parameters
    ----------
    engine:
        A :class:`repro.core.BitPackedUniVSA` (any mode).
    shard_size:
        Samples per shard; ``None`` splits the batch into about
        ``2 x workers`` shards (load balancing without tiny shards; a
        single worker gets a single shard — splitting work one thread
        must run serially anyway only adds handoff overhead).
    workers:
        Thread-pool size; ``None`` resolves via
        :func:`~repro.runtime.batch.resolve_workers`.
    policy:
        The degradation ladder's :class:`RetryPolicy` (default
        :meth:`RetryPolicy.from_env`).
    chaos:
        Fault injection at the shard seam (default ``REPRO_CHAOS``).

    ``run`` returns a :class:`BatchResult`; ``scores``/``predict`` return
    its arrays and stash the report on ``last_report``.
    """

    def __init__(
        self,
        engine,
        shard_size: int | None = None,
        workers: int | None = None,
        policy: RetryPolicy | None = None,
        chaos: ChaosSpec | None = None,
    ) -> None:
        self.engine = engine
        self.workers = resolve_workers(workers)
        self.shard_size = shard_size
        self._workerpool = WorkerPool(self._make_pool)
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        self.chaos = chaos if chaos is not None else ChaosSpec.from_env()
        self.last_report: BatchReport | None = None
        self._fallback_engine = None
        self._fallback_lock = threading.Lock()

    @property
    def _pool(self) -> Executor | None:
        return self._workerpool.executor

    # -- sharding ---------------------------------------------------------
    def effective_shard_size(self, n: int) -> int:
        """The shard size a batch of ``n`` samples actually runs with.

        Explicit ``shard_size`` wins; otherwise the batch splits into
        about ``2 x workers`` shards.  The divisor is capped at ``n`` so
        a degenerate batch (``n < workers``) yields ``n`` single-sample
        shards instead of phantom empty ones.  A single-worker runner
        gets one shard — inline execution is equivalent and there is
        nobody to balance load against.
        """
        if n <= 0:
            return 0
        size = self.shard_size
        if size is None:
            target = 1 if self.workers == 1 else self.workers * 2
            size = -(-n // max(1, min(target, n)))
        return max(1, int(size))

    def _shards(self, n: int) -> list[tuple[int, int]]:
        """(start, stop) spans covering ``range(n)`` in order."""
        size = self.effective_shard_size(n)
        if size <= 0:
            return []
        return [(start, min(start + size, n)) for start in range(0, n, size)]

    # -- pool lifecycle ----------------------------------------------------
    def _make_pool(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-batch"
        )

    def replace_engine(self, engine) -> None:
        """Hot-swap a rebuilt engine (the integrity repair path).

        Pool threads read ``self.engine`` at each shard, so the swap
        needs no pool rebuild.  Callers serialize this against in-flight
        batches (the serve layer drains its pipeline to a barrier first).

        The legacy fallback is reset too: a sibling built over the
        corrupted artifacts would re-serve the corruption on the next
        degraded batch, so it is dropped and lazily rebuilt from the
        repaired engine when next needed.
        """
        self.engine = engine
        self._fallback_engine = None

    def close(self) -> None:
        """Shut the worker pool down, joining its threads (idempotent)."""
        self._workerpool.close()

    def __enter__(self) -> "ResilientBatchRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- shard seam -------------------------------------------------------
    def _attempt(self, shard: int, attempt: int, levels: np.ndarray, engine=None):
        """One shard attempt on the calling thread, under chaos."""
        engine = self.engine if engine is None else engine
        with stage_timer("batch.shard"):
            annotate_span(shard=shard, attempt=attempt, samples=len(levels))
            with chaos_context(self.chaos, shard, attempt):
                return engine.scores(levels)

    def _fallback(self):
        """The seed-exact legacy engine, built once on first downgrade.

        Built under a lock: pipelined batches can hit their first
        downgrade concurrently, and two sibling builds would waste the
        packed-table memory twice.
        """
        with self._fallback_lock:
            if self._fallback_engine is None:
                if self.engine.mode == "legacy":
                    self._fallback_engine = self.engine
                else:
                    self._fallback_engine = self.engine.sibling("legacy")
            return self._fallback_engine

    # -- public API -----------------------------------------------------
    def scores(self, levels: np.ndarray) -> np.ndarray:
        """Soft-voting class scores; quarantined rows are all-zero."""
        return self.run(levels).scores

    def predict(self, levels: np.ndarray) -> np.ndarray:
        """Predicted labels; quarantined/failed rows are ``-1``."""
        return self.run(levels).predictions

    def run(self, levels: np.ndarray) -> BatchResult:
        """Execute the batch through the full degradation ladder."""
        levels = np.asarray(levels)
        registry = get_registry()
        policy = self.policy
        if policy.validate:
            clean, good, quarantined = validate_levels(
                levels, self.engine.input_shape, self.engine.n_levels
            )
        else:
            clean = levels.reshape((-1,) + tuple(self.engine.input_shape))
            good = np.arange(clean.shape[0], dtype=np.intp)
            quarantined = {}
        n = int(good.size) + len(quarantined)
        report = BatchReport(
            batch=n,
            quarantined=quarantined,
            chaos=self.chaos.as_dict() if self.chaos.enabled else {},
        )
        if quarantined:
            registry.counter("resilience.quarantined").add(len(quarantined))
        spans = self._shards(clean.shape[0])
        with trace_span("batch.run"):
            annotate_span(
                batch=n,
                shards=len(spans),
                workers=self.workers,
                quarantined=len(quarantined),
                chaos=bool(self.chaos.enabled),
            )
            registry.gauge("batch.workers").set(self.workers)
            registry.counter("batch.samples").add(n)
            registry.counter("batch.shards").add(len(spans))
            if self.chaos.enabled and self.chaos.bitflip_rate > 0.0:
                # The chaos popcount wrapper is a passthrough outside an
                # open chaos context, so a global install is safe: pool
                # threads, inline shards and fallback attempts all share
                # this process's kernel registry.
                with using_kernels(chaos_kernels(get_kernels())):
                    parts = self._execute_shards(clean, spans, report)
            else:
                parts = self._execute_shards(clean, spans, report)
        return self._assemble(good, parts, report)

    # -- execution core -------------------------------------------------
    def _execute_shards(self, clean: np.ndarray, spans, report: BatchReport):
        registry = get_registry()
        statuses = [
            ShardStatus(i, a, b, engine=self.engine.mode)
            for i, (a, b) in enumerate(spans)
        ]
        report.shards = statuses
        report.shard_size = self.effective_shard_size(clean.shape[0]) or None
        parts: list[np.ndarray | None] = [None] * len(spans)
        use_pool = len(spans) > 1 and self.workers > 1
        futures: dict[int, object] = {}
        if use_pool:
            pool = self._workerpool.ensure()
            for status in statuses:
                futures[status.index] = pool.submit(
                    self._attempt, status.index, 0, clean[status.start : status.stop]
                )
        consecutive_failures = 0
        breaker_at: int | None = None
        for status in statuses:
            i = status.index
            if breaker_at is not None:
                status.status = "skipped"
                continue
            shard_levels = clean[status.start : status.stop]
            started = perf_counter()
            while True:
                try:
                    if use_pool:
                        future = futures.get(i)
                        if future is None:
                            # Retry resubmission.
                            future = futures[i] = self._workerpool.ensure().submit(
                                self._attempt, i, status.attempts, shard_levels
                            )
                        scores = future.result(timeout=self.policy.timeout_s)
                    else:
                        scores = self._attempt(i, status.attempts, shard_levels)
                    status.attempts += 1
                    status.status = "ok"
                    parts[i] = scores
                    consecutive_failures = 0
                    break
                except Exception as exc:  # noqa: BLE001 — the ladder sorts them
                    status.attempts += 1
                    status.errors.append(type(exc).__name__)
                    self._count_error(registry, exc)
                    abandoned = None
                    if isinstance(exc, FuturesTimeoutError) and use_pool:
                        # cancel() only stops an attempt that has not
                        # started.  A running attempt cannot be
                        # interrupted: it keeps its worker (and any open
                        # chaos context) busy until it finishes, so a
                        # timed-out shard transiently occupies two
                        # workers and inflates batch.shard timings.
                        future = futures.get(i)
                        if future is not None and not future.cancel():
                            abandoned = future
                    if status.attempts <= self.policy.max_retries:
                        status.retries += 1
                        registry.counter("resilience.retries").add(1)
                        with stage_timer("batch.retry"):
                            annotate_span(
                                shard=i,
                                attempt=status.attempts,
                                error=type(exc).__name__,
                            )
                            time.sleep(self.policy.backoff_s(i, status.attempts))
                            if use_pool and not self._late_result(abandoned):
                                # Cleared so the next pass resubmits (a
                                # timed-out attempt that finished cleanly
                                # during the backoff is collected as-is
                                # instead).
                                futures[i] = None
                        continue
                    if self.policy.fallback:
                        status.engine = "seed"
                        registry.counter("resilience.fallbacks").add(1)
                        try:
                            parts[i] = self._attempt(
                                i, status.attempts, shard_levels, self._fallback()
                            )
                            status.attempts += 1
                            status.status = "fallback"
                            consecutive_failures = 0
                            break
                        except Exception as fallback_exc:  # noqa: BLE001
                            status.attempts += 1
                            status.errors.append(type(fallback_exc).__name__)
                            self._count_error(registry, fallback_exc)
                    status.status = "failed"
                    registry.counter("resilience.failed_shards").add(1)
                    consecutive_failures += 1
                    if consecutive_failures >= self.policy.breaker_threshold:
                        breaker_at = i
                    break
            status.wall_s = perf_counter() - started
        if breaker_at is not None:
            report.breaker_open = True
            registry.gauge("resilience.breaker_open").set(1.0)
            for status in statuses:
                future = futures.get(status.index)
                if future is not None and status.status == "skipped":
                    future.cancel()
        else:
            registry.gauge("resilience.breaker_open").set(0.0)
        return parts

    @staticmethod
    def _late_result(abandoned) -> bool:
        """True when a timed-out attempt finished cleanly during backoff.

        ``futures[i]`` still holds the abandoned future, so the collector
        takes its result on the next loop — one worker-occupancy paid
        instead of two, and no redundant resubmission.
        """
        return (
            abandoned is not None
            and abandoned.done()
            and not abandoned.cancelled()
            and abandoned.exception() is None
        )

    def _count_error(self, registry, exc: Exception) -> None:
        if isinstance(exc, FuturesTimeoutError):
            registry.counter("resilience.timeouts").add(1)
        elif isinstance(exc, ChaosError):
            registry.counter("resilience.chaos_faults").add(1)
        registry.counter("resilience.errors").add(1)

    # -- assembly -------------------------------------------------------
    def _assemble(self, good, parts, report: BatchReport) -> BatchResult:
        registry = get_registry()
        n = report.batch
        n_classes = self.engine.artifacts.n_classes
        computed = [p for p in parts if p is not None]
        dtype = computed[0].dtype if computed else np.int64
        scores = np.zeros((n, n_classes), dtype=dtype)
        known = np.zeros(n, dtype=bool)
        for status, part in zip(report.shards, parts):
            batch_rows = good[status.start : status.stop]
            if part is not None:
                scores[batch_rows] = part
                known[batch_rows] = True
            else:
                report.failed_samples.extend(int(r) for r in batch_rows)
        predictions = np.where(
            known, scores.argmax(axis=1), QUARANTINED_LABEL
        ).astype(np.int64)
        registry.gauge("resilience.degraded").set(1.0 if report.degraded else 0.0)
        self.last_report = report
        if report.breaker_open:
            raise CircuitOpenError(
                f"circuit breaker open after {self.policy.breaker_threshold} "
                "consecutive shard failures",
                report,
            )
        return BatchResult(scores=scores, predictions=predictions, report=report)


# ---------------------------------------------------------------------------
# serving-path prediction for fault sweeps
# ---------------------------------------------------------------------------
def serving_predict_fn(
    mode: str = "fast",
    workers: int | None = None,
    shard_size: int | None = None,
    policy: RetryPolicy | None = None,
    chaos: ChaosSpec | None = None,
):
    """A ``predict_fn`` for :func:`repro.hw.faults.fault_sweep` that runs
    every prediction through the packed serving path.

    Each call builds a :class:`~repro.core.inference.BitPackedUniVSA`
    over the (possibly corrupted) artifacts and serves the batch through
    a :class:`ResilientBatchRunner` — so a fault sweep measures the
    deployed runtime end to end, not the artifact-level reference path.
    """
    from repro.core.inference import BitPackedUniVSA

    def predict(artifacts, levels: np.ndarray) -> np.ndarray:
        engine = BitPackedUniVSA(artifacts, mode=mode)
        with ResilientBatchRunner(
            engine,
            shard_size=shard_size,
            workers=workers,
            policy=policy,
            chaos=chaos,
        ) as runner:
            return runner.run(levels).predictions

    return predict
