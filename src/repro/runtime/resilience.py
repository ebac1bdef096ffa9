"""The batch runner: sharded packed inference that survives failures.

:class:`ResilientBatchRunner` is the runtime's one batch runner.  It
shards a batch of quantized level frames across a worker pool, runs
:class:`repro.core.BitPackedUniVSA` on each shard and reassembles the
scores in input order.  Threads are the default — the bit kernels are
NumPy ufunc loops that release the GIL, so shards genuinely overlap —
with a process-pool option for workloads that want memory isolation.

Process mode is zero-copy in **both** directions by default
(``shm=None`` → ``REPRO_SHM``, see :func:`repro.runtime.shm.resolve_shm`):

* the **request plane** materializes the batch's level array in one
  parent-owned segment per call (reused across same-shape batches via a
  :class:`~repro.runtime.shm.SegmentArena`); workers attach zero-copy
  views by name + span;
* the **result plane** is a parent-allocated ``(B, n_classes)`` segment
  workers *write* at their span offset — the return leg of the pipe
  carries ``(span, wall, telemetry_delta)`` instead of a pickled score
  array (``batch.bytes_pickled_return`` stays 0 in shm mode; the
  non-shm path counts every returned array there);
* the **operand plane** serializes the engine's resident read-only
  operands into one parent-owned segment at pool spin-up; worker
  initializers attach and reconstruct zero-copy views
  (:meth:`BitPackedUniVSA.from_operand_state`) instead of rebuilding the
  engine from pickled artifacts, and ``replace_engine`` repairs become a
  re-publish plus a generation bump that workers detect per shard — no
  pool rebuild.  Where the plane cannot be published, workers bootstrap
  from pickled artifacts instead.

Each shard follows a fixed degradation ladder:

1. **Retry** — a shard attempt that raises, times out (``timeout_s``
   result deadline), or dies with its process worker is retried up to
   ``max_retries`` times with exponential backoff and deterministic
   jitter.  A ``BrokenProcessPool`` additionally replaces the whole
   worker pool (a crashed process poisons its siblings) and resubmits
   every uncollected shard.
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
``stage_timer("batch.shard")`` (a process worker's spans live in its own
process, so process mode observes the worker-reported shard wall time
instead); a ``batch.run`` trace root annotated with batch size, shard
count and worker count wraps the whole call; ``batch.{samples,shards}``
counters and a ``batch.workers`` gauge record what the pool did.  The
ladder adds ``resilience.{retries, fallbacks, quarantined, timeouts,
broken_pools, failed_shards}`` counters, ``resilience.{breaker_open,
degraded}`` gauges, and a ``batch.retry`` stage timer whose spans
annotate the shard, attempt, and error.  The run ledger harvests the
``resilience.*`` instruments into every record (see
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
from concurrent.futures import CancelledError as FuturesCancelledError
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.obs import annotate_span, get_registry, stage_timer, trace_span
from repro.obs.telemetry import (
    drain_pool,
    drain_worker_delta,
    install_worker_telemetry,
    merge_delta,
    worker_telemetry_installed,
)
from repro.vsa.kernels import get_kernels, using_kernels

from .batch import WorkerPool, resolve_workers
from .shm import (
    OperandPlane,
    SegmentArena,
    SharedArray,
    attach_plane,
    attach_view,
    resolve_shm,
)
from .chaos import (
    ChaosError,
    ChaosSpec,
    chaos_context,
    chaos_kernels,
    mark_process_worker,
)

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
    shm_bytes: int = 0  # bytes handed off through shared memory

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
            "shm_bytes": self.shm_bytes,
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
# process-pool plumbing (module level so spawn contexts can pickle it)
# ---------------------------------------------------------------------------
_WORKER_ENGINE = None
_WORKER_CHAOS: ChaosSpec | None = None
_WORKER_PLANE_KEY: tuple | None = None


def _worker_attach_plane(descriptor: tuple) -> None:
    """(Re)build the worker engine over zero-copy views of an operand plane.

    The counter is gated on the initializer telemetry flag so
    observability-off pools never touch a registry.
    """
    global _WORKER_ENGINE, _WORKER_PLANE_KEY
    from repro.core.inference import BitPackedUniVSA

    arrays, meta = attach_plane(descriptor)
    _WORKER_ENGINE = BitPackedUniVSA.from_operand_state(arrays, meta)
    _WORKER_PLANE_KEY = tuple(descriptor)
    if worker_telemetry_installed():
        get_registry().counter("batch.shm.plane_attach").add(1)


def _worker_init(source, chaos: ChaosSpec | None, telemetry: bool = False):
    """Pool initializer: plane-attach or pickled-artifact engine + chaos.

    ``source`` is ``("plane", descriptor)`` — attach the parent-owned
    operand plane and reconstruct zero-copy views — or ``("artifacts",
    (artifacts, mode, conv_tile_mb))`` — the pickled fallback that
    rebuilds the engine in the worker.
    """
    global _WORKER_ENGINE, _WORKER_CHAOS, _WORKER_PLANE_KEY
    from repro.vsa.kernels import publish_kernel_metrics, set_kernels

    mark_process_worker()  # this process may be hard-killed by crash chaos
    kind, payload = source
    if kind == "plane":
        _worker_attach_plane(payload)
    else:
        from repro.core.inference import BitPackedUniVSA

        artifacts, mode, conv_tile_mb = payload
        _WORKER_ENGINE = BitPackedUniVSA(
            artifacts, mode=mode, conv_tile_mb=conv_tile_mb
        )
        _WORKER_PLANE_KEY = None
    _WORKER_CHAOS = chaos
    if chaos is not None and chaos.bitflip_rate > 0.0:
        # chaos_kernels is a no-op on an already-wrapped set, so a fork
        # worker that inherited the parent's chaos install stays
        # single-wrapped.
        set_kernels(chaos_kernels(get_kernels()))
    # After engine + kernel setup: init-time work must stay out of the
    # harvested deltas for process totals to match serial runs.
    install_worker_telemetry(telemetry)
    if worker_telemetry_installed():
        publish_kernel_metrics(get_registry())


def _ensure_worker_engine(plane_descriptor: tuple | None) -> None:
    """Detect an operand-plane generation bump and re-attach."""
    if plane_descriptor is not None and tuple(plane_descriptor) != _WORKER_PLANE_KEY:
        _worker_attach_plane(plane_descriptor)


def _worker_scores(shard: int, attempt: int, levels: np.ndarray):
    start = perf_counter()
    with chaos_context(_WORKER_CHAOS, shard, attempt):
        scores = _WORKER_ENGINE.scores(levels)
    return scores, perf_counter() - start, drain_worker_delta()


def _worker_scores_shm(
    descriptor: tuple,
    shard: int,
    attempt: int,
    span_start: int,
    span_stop: int,
    out_descriptor: tuple | None = None,
    plane: tuple | None = None,
):
    """Shm variant: the shard is a zero-copy view into the parent's segment.

    The attach happens *inside* the chaos context — a crash draw kills
    the worker mid-handoff exactly like a real fault would, and the
    parent's recovery must still unlink and re-share cleanly.  With an
    ``out_descriptor`` the scores land in the parent's result plane at
    the span offset and only the span crosses the pipe back; ``plane``
    lets the worker detect an operand-plane generation bump per shard.
    Worker-side counters are gated on the initializer telemetry flag so
    observability-off pools never touch a registry on this path either.
    """
    start = perf_counter()
    with chaos_context(_WORKER_CHAOS, shard, attempt):
        _ensure_worker_engine(plane)
        levels = attach_view(descriptor, span_start, span_stop)
        if worker_telemetry_installed():
            get_registry().counter("batch.shm.attach").add(1)
        scores = _WORKER_ENGINE.scores(levels)
        if out_descriptor is not None:
            out = attach_view(out_descriptor, span_start, span_stop, writable=True)
            out[...] = scores
            payload = (span_start, span_stop)
        else:
            payload = scores
    return payload, perf_counter() - start, drain_worker_delta()


class _BatchSegments:
    """The shm segments of one in-flight batch (batch-local, not runner
    state — pipelined serving runs several batches concurrently through
    one runner).  ``tainted`` marks segments an abandoned attempt might
    still write to; they are destroyed instead of arena-pooled."""

    __slots__ = ("request", "result", "tainted")

    def __init__(self) -> None:
        self.request: SharedArray | None = None
        self.result: SharedArray | None = None
        self.tainted = False


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
        single thread worker gets a single shard — splitting work one
        thread must run serially anyway only adds handoff overhead).
    workers:
        Pool size; ``None`` resolves via
        :func:`~repro.runtime.batch.resolve_workers`.
    executor:
        ``"thread"`` (default) or ``"process"``.  Process mode bootstraps
        each worker once via the pool initializer — from the shared
        operand plane, else from pickled artifacts (with a fork start
        method the packed tables are then shared copy-on-write).
    mp_context:
        Optional ``multiprocessing`` context for process mode.
    policy:
        The degradation ladder's :class:`RetryPolicy` (default
        :meth:`RetryPolicy.from_env`).
    chaos:
        Fault injection at the shard seam (default ``REPRO_CHAOS``).
    shm:
        Zero-copy shard handoff through shared memory (process executors
        only).  ``None`` defers to ``REPRO_SHM`` (default on); thread
        executors ignore it entirely.

    ``run`` returns a :class:`BatchResult`; ``scores``/``predict`` return
    its arrays and stash the report on ``last_report``.
    """

    def __init__(
        self,
        engine,
        shard_size: int | None = None,
        workers: int | None = None,
        executor: str = "thread",
        mp_context=None,
        policy: RetryPolicy | None = None,
        chaos: ChaosSpec | None = None,
        shm: bool | None = None,
    ) -> None:
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; expected 'thread' or 'process'"
            )
        self.engine = engine
        self.workers = resolve_workers(workers)
        self.shard_size = shard_size
        self.executor_kind = executor
        self.use_shm = resolve_shm(shm, executor)
        # Threads share the parent's engine object already.
        self.use_plane = executor == "process"
        self._mp_context = mp_context
        self._workerpool = WorkerPool(self._make_pool)
        self._plane: OperandPlane | None = None
        self._plane_generation = 0
        self._arena = SegmentArena()
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        self.chaos = chaos if chaos is not None else ChaosSpec.from_env()
        if self.chaos.has_crash and self.executor_kind != "process":
            # A crash draw outside a pool worker is skipped (it must not
            # kill the serving process), so on any other executor the
            # directive could never fire — reject it loudly instead.
            raise ValueError(
                "chaos 'crash' simulates a hard process-worker death and "
                f"requires executor='process' (got {self.executor_kind!r}); "
                "use 'raise' to inject failures on thread executors"
            )
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
        shards instead of phantom empty ones.  A single-worker *thread*
        runner gets one shard — inline execution is equivalent and there
        is nobody to balance load against — but a single-worker process
        runner keeps the 2-shard split: collapsing it to one shard would
        take the inline shortcut and silently skip the pool, and with it
        the isolation and zero-copy handoff the caller asked for.
        """
        if n <= 0:
            return 0
        size = self.shard_size
        if size is None:
            one_shard = self.workers == 1 and self.executor_kind == "thread"
            target = 1 if one_shard else self.workers * 2
            size = -(-n // max(1, min(target, n)))
        return max(1, int(size))

    def _shards(self, n: int) -> list[tuple[int, int]]:
        """(start, stop) spans covering ``range(n)`` in order."""
        size = self.effective_shard_size(n)
        if size <= 0:
            return []
        return [(start, min(start + size, n)) for start in range(0, n, size)]

    def _share_batch(self, levels: np.ndarray, registry) -> SharedArray:
        """Materialize ``levels`` in a parent-owned shm segment (arena)."""
        shared = self._arena.acquire(levels)
        registry.counter("batch.shm.segments").add(1)
        registry.counter("batch.shm.bytes_shared").add(shared.nbytes)
        return shared

    def _share_output(self, n: int, registry) -> SharedArray:
        """The result plane: one ``(n, n_classes)`` segment per batch."""
        n_classes = self.engine.artifacts.n_classes
        out = self._arena.acquire_empty((n, n_classes), np.int64)
        registry.counter("batch.shm.segments").add(1)
        registry.counter("batch.shm.bytes_shared").add(out.nbytes)
        return out

    # -- operand plane lifecycle (parent-owned, generation-tagged) ---------
    def _publish_plane(self) -> OperandPlane:
        """Publish the current engine's operands as a fresh plane."""
        arrays, meta = self.engine.operand_state()
        self._plane_generation += 1
        plane = OperandPlane(arrays, meta, generation=self._plane_generation)
        registry = get_registry()
        registry.counter("batch.shm.plane_published").add(1)
        registry.counter("batch.shm.plane_bytes").add(plane.nbytes)
        registry.gauge("batch.shm.plane_generation").set(self._plane_generation)
        return plane

    def _ensure_plane(self) -> OperandPlane | None:
        if not self.use_plane:
            return None
        if self._plane is None:
            try:
                self._plane = self._publish_plane()
            except Exception:
                # No shm plane on this platform — fall back to pickled
                # artifacts for the life of this runner.
                self.use_plane = False
                return None
        return self._plane

    def _plane_descriptor(self) -> tuple | None:
        return self._plane.descriptor() if self._plane is not None else None

    # -- pool lifecycle ----------------------------------------------------
    def _pool_initializer(self):
        """(initializer, initargs) for process pools.

        Workers bootstrap from the operand plane when it is published,
        else from pickled artifacts.  The trailing initarg is the
        telemetry switch: workers install a recording registry only when
        the parent registry is enabled at pool-build time, so
        observability-off runs keep the zero-overhead path end to end.
        Re-evaluated whenever the pool is (re)built, including crash
        replacement.
        """
        plane = self._ensure_plane()
        if plane is not None:
            source = ("plane", plane.descriptor())
        else:
            source = (
                "artifacts",
                (self.engine.artifacts, self.engine.mode, self.engine.conv_tile_mb),
            )
        return _worker_init, (
            source,
            self.chaos if self.chaos.enabled else None,
            get_registry().enabled,
        )

    def _make_pool(self) -> Executor:
        """Build a fresh worker pool (also the rebuild path after a crash)."""
        if self.executor_kind == "thread":
            return ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-batch"
            )
        import multiprocessing as mp

        context = self._mp_context
        if context is None:
            method = "fork" if "fork" in mp.get_all_start_methods() else None
            context = mp.get_context(method)
        initializer, initargs = self._pool_initializer()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        )

    def _ensure_pool(self) -> Executor:
        return self._workerpool.ensure()

    def _replace_pool(self, stale: Executor | None = None) -> Executor:
        """Discard the (possibly broken) pool and spin up a fresh one.

        A crashed process worker poisons the whole ``ProcessPoolExecutor``
        — every pending future raises ``BrokenProcessPool`` — so recovery
        is a pool replacement, not a worker restart.  ``stale`` makes
        concurrent recoveries idempotent (see :meth:`WorkerPool.replace`).
        """
        return self._workerpool.replace(stale)

    def replace_engine(self, engine) -> None:
        """Hot-swap a rebuilt engine (the integrity repair path).

        With a live operand plane the swap is a re-publish plus a
        generation bump: workers see the new descriptor on their next
        shard and re-attach — no pool rebuild, no worker restart.
        Without a plane, a live process pool is rebuilt so workers
        re-initialize from the new engine's artifacts; a never-used pool
        stays lazy.  Callers serialize this against in-flight batches
        (the serve layer drains its pipeline to a barrier first).

        The legacy fallback is reset too: a sibling built over the
        corrupted artifacts would re-serve the corruption on the next
        degraded batch, so it is dropped and lazily rebuilt from the
        repaired engine when next needed.
        """
        self.engine = engine
        self._fallback_engine = None
        if self._plane is not None:
            old, self._plane = self._plane, None
            self._plane = self._publish_plane()
            old.dispose()
            if self.use_shm:
                # Shm shards carry the plane descriptor, so live workers
                # notice the generation bump on their next task.
                return
            # By-value shards carry no descriptor — rebuild the pool so
            # worker initializers attach the republished plane.
        if self._workerpool.executor is not None:
            self._replace_pool()

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        Process pools are drained first: workers hold metric residue
        recorded since their last shipped delta (e.g. a final task whose
        result the parent already collected), and close is the last
        chance to merge it.  Parent-owned segments (operand plane, arena
        pool) are disposed here — nothing may outlive the runner.
        """
        executor = self._workerpool.executor
        if executor is not None and self.executor_kind == "process":
            drain_pool(executor, get_registry(), self.workers)
        self._workerpool.close()
        if self._plane is not None:
            self._plane.dispose()
            self._plane = None
        self._arena.drain()

    def __enter__(self) -> "ResilientBatchRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- shard seams --------------------------------------------------------
    def _submit(
        self,
        pool,
        shard: int,
        attempt: int,
        levels: np.ndarray,
        span=None,
        segments: _BatchSegments | None = None,
    ):
        if self.executor_kind == "thread":
            return pool.submit(self._thread_shard, shard, attempt, levels)
        if segments is not None and segments.request is not None and span is not None:
            # Descriptors are read at submit time, so segments re-shared
            # by pool recovery are picked up by every subsequent
            # (re)submission automatically.
            out = segments.result
            return pool.submit(
                _worker_scores_shm,
                segments.request.descriptor(),
                shard,
                attempt,
                span[0],
                span[1],
                out.descriptor() if out is not None else None,
                self._plane_descriptor(),
            )
        return pool.submit(_worker_scores, shard, attempt, levels)

    def _thread_shard(self, shard: int, attempt: int, levels: np.ndarray) -> np.ndarray:
        with stage_timer("batch.shard"):
            annotate_span(shard=shard, attempt=attempt, samples=len(levels))
            with chaos_context(self.chaos, shard, attempt):
                return self.engine.scores(levels)

    def _inline_attempt(self, shard: int, attempt: int, levels: np.ndarray, engine=None):
        engine = self.engine if engine is None else engine
        with stage_timer("batch.shard"):
            annotate_span(
                shard=shard, attempt=attempt, samples=len(levels), inline=True
            )
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
                executor=self.executor_kind,
                quarantined=len(quarantined),
                chaos=bool(self.chaos.enabled),
            )
            registry.gauge("batch.workers").set(self.workers)
            registry.counter("batch.samples").add(n)
            registry.counter("batch.shards").add(len(spans))
            if self.chaos.enabled and self.chaos.bitflip_rate > 0.0:
                # The chaos popcount wrapper is a passthrough outside an
                # open chaos context, so a global install is safe.  It is
                # installed for every executor kind: thread workers share
                # this process's kernel registry, and under a process
                # executor the single-shard inline path and the fallback
                # attempts run here too (pool workers install their own
                # copy in _worker_init; chaos_kernels never double-wraps
                # a fork-inherited set).
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
        if not spans:
            return parts
        use_pool = len(spans) > 1 and not (
            self.workers == 1 and self.executor_kind == "thread"
        )
        segments = _BatchSegments()
        if use_pool and self.executor_kind == "process":
            if self.use_shm:
                # Parent-owned request + result planes, one each per
                # batch.  Batch-local, not runner state: pipelined
                # serving interleaves batches through this runner, and
                # each needs its own segments.  Handed back to the arena
                # in the finally no matter how the ladder ends.
                segments.request = self._share_batch(clean, registry)
                segments.result = self._share_output(clean.shape[0], registry)
                report.shm_bytes = segments.request.nbytes + segments.result.nbytes
                # The zero-copy contract, measured not asserted.
                registry.counter("batch.bytes_pickled_return").add(0)
            else:
                registry.counter("batch.bytes_pickled").add(clean.nbytes)
        try:
            return self._collect_shards(
                clean, report, statuses, parts, use_pool, registry, segments
            )
        except BaseException:
            # Shards may still be running; their segments must not be
            # pooled for reuse.
            segments.tainted = True
            raise
        finally:
            if segments.tainted:
                # An abandoned attempt (timeout, breaker skip, unexpected
                # unwind) may still write these segments after the batch
                # ends — destroy the names instead of letting the arena
                # reissue them to a later batch.
                self._arena.discard(segments.request)
                self._arena.discard(segments.result)
            else:
                self._arena.release(segments.request)
                self._arena.release(segments.result)

    def _collect_shards(
        self,
        clean: np.ndarray,
        report: BatchReport,
        statuses,
        parts,
        use_pool,
        registry,
        segments: _BatchSegments,
    ):
        futures: dict[int, object] = {}
        # Which executor each live future was submitted on: recovery
        # passes it as the ``stale`` pool so a concurrent batch that
        # already replaced the broken pool is not punished by having its
        # healthy replacement shut down too (see WorkerPool.replace).
        pools: dict[int, object] = {}
        if use_pool:
            pool = self._ensure_pool()
            try:
                for status in statuses:
                    futures[status.index] = self._submit(
                        pool,
                        status.index,
                        0,
                        clean[status.start : status.stop],
                        span=(status.start, status.stop),
                        segments=segments,
                    )
                    pools[status.index] = pool
            except (BrokenProcessPool, RuntimeError):
                # An already-submitted shard crashed its worker before
                # the batch was even fully enqueued, or a concurrent
                # batch's recovery swapped the pool out from under the
                # enqueue (submit on a shut-down executor raises
                # RuntimeError).  Shards left without a future are
                # submitted lazily by the collector, whose ladder owns
                # pool recovery.
                pass
        consecutive_failures = 0
        shard_hist = registry.histogram("batch.shard")
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
                            # Initial enqueue or retry resubmission.  The
                            # submit happens inside the try so a pool that
                            # broke meanwhile (another worker crashed
                            # during the backoff) feeds the same ladder
                            # instead of escaping it.
                            lazy_pool = self._ensure_pool()
                            future = futures[i] = self._submit(
                                lazy_pool,
                                i,
                                status.attempts,
                                shard_levels,
                                span=(status.start, status.stop),
                                segments=segments,
                            )
                            pools[i] = lazy_pool
                        outcome = future.result(timeout=self.policy.timeout_s)
                        if self.executor_kind == "process":
                            payload, duration, delta = outcome
                            shard_hist.observe(duration)
                            # Each delta ships exactly once per collected
                            # result (workers reset after shipping), so
                            # merging here cannot double-count even when
                            # _recover_pool kept this future across a
                            # pool replacement or _late_result collected
                            # a timed-out attempt.
                            merge_delta(registry, delta)
                            if isinstance(payload, tuple):
                                # Result-plane span: copy the scores out
                                # now — the segments go back to the arena
                                # before assembly runs.
                                a, b = payload
                                scores = np.array(segments.result.view()[a:b])
                            else:
                                registry.counter(
                                    "batch.bytes_pickled_return"
                                ).add(payload.nbytes)
                                scores = payload
                        else:
                            scores = outcome
                    else:
                        scores = self._inline_attempt(i, status.attempts, shard_levels)
                    status.attempts += 1
                    status.status = "ok"
                    parts[i] = scores
                    consecutive_failures = 0
                    break
                except (Exception, FuturesCancelledError) as exc:  # noqa: BLE001 — the ladder sorts them
                    # CancelledError is a BaseException since 3.8 and is
                    # named explicitly: a concurrent batch replacing a
                    # broken pool cancels this batch's pending futures
                    # (shutdown(cancel_futures=True)), and that must feed
                    # the retry ladder, not unwind the whole batch.
                    status.attempts += 1
                    status.errors.append(type(exc).__name__)
                    self._count_error(registry, exc)
                    if isinstance(exc, (BrokenProcessPool, FuturesCancelledError)) and use_pool:
                        self._recover_pool(
                            statuses,
                            futures,
                            clean,
                            parts,
                            registry,
                            current=i,
                            segments=segments,
                            pools=pools,
                        )
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
                            # The uninterruptible attempt may outlive the
                            # batch and write its span late — these
                            # segments must never be reissued.
                            segments.tainted = True
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
                                # Cleared so the next pass resubmits
                                # inside the try (a timed-out attempt
                                # that finished cleanly during the
                                # backoff is collected as-is instead).
                                futures[i] = None
                        continue
                    if self.policy.fallback:
                        status.engine = "seed"
                        registry.counter("resilience.fallbacks").add(1)
                        try:
                            parts[i] = self._inline_attempt(
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
                    if not future.cancel() and not future.done():
                        # Still running — it will write its span after
                        # the batch unwinds.
                        segments.tainted = True
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
        elif isinstance(exc, BrokenProcessPool):
            registry.counter("resilience.broken_pools").add(1)
        elif isinstance(exc, ChaosError):
            registry.counter("resilience.chaos_faults").add(1)
        registry.counter("resilience.errors").add(1)

    def _recover_pool(
        self,
        statuses,
        futures,
        clean,
        parts,
        registry,
        current: int,
        segments: _BatchSegments | None = None,
        pools: dict | None = None,
    ) -> None:
        """Replace a broken process pool and resubmit lost shards.

        Only execution genuinely lost to the breakage is resubmitted: a
        future that already resolved — with a result *or* with a real
        error (say a ``ChaosError`` raised just before the crash) — keeps
        its outcome, and the collector's retry/fallback ladder surfaces
        and accounts for it with proper backoff.  Lost shards go back on
        fresh attempt indices (a retried chaos draw must not replay the
        crash) and count as retries, since their execution produced no
        result.  Shard ``current`` (whose ``result()`` surfaced the
        breakage) is excluded: the collector owns its accounting and
        resubmission.

        Under shm handoff **both** planes are re-shared with fresh names
        first: the dead pool's workers can no longer hold the old
        mappings hostage, and fresh names guarantee resubmitted shards
        never attach to a segment a crashing worker might have been
        mid-write on.  Spans already completed into the old result plane
        are carried over by copy, so their kept futures stay collectable.
        Telemetry counts the re-shares like any other segment, so
        ``batch.shm.segments - 2`` is the recovery count per shm batch.
        """
        # Replace only the pool this batch's broken future was actually
        # submitted on.  Pipelined batches share one pool: if a sibling
        # batch already recovered and installed a fresh executor,
        # replacing unconditionally would shut the healthy replacement
        # down mid-flight and cascade the breakage back to the sibling.
        stale = pools.get(current) if pools is not None else None
        pool = self._replace_pool(stale)
        if segments is not None and segments.request is not None:
            old_request, old_result = segments.request, segments.result
            segments.request = self._share_batch(clean, registry)
            if old_result is not None:
                segments.result = self._share_output(clean.shape[0], registry)
                # A worker that finished before the break already wrote
                # its span; its kept future's payload must still resolve
                # against the new plane.
                segments.result.view()[:] = old_result.view()
            self._arena.discard(old_request)
            self._arena.discard(old_result)
        for status in statuses:
            j = status.index
            if j == current or status.status != "pending" or parts[j] is not None:
                continue
            future = futures.get(j)
            if future is None:
                continue  # never submitted
            if (
                future.done()
                and not future.cancelled()
                and not isinstance(future.exception(), BrokenProcessPool)
            ):
                continue  # a result or a real pre-break error survived
            status.attempts += 1
            status.retries += 1
            status.errors.append("BrokenProcessPool")
            registry.counter("resilience.retries").add(1)
            try:
                futures[j] = self._submit(
                    pool,
                    j,
                    status.attempts,
                    clean[status.start : status.stop],
                    span=(status.start, status.stop),
                    segments=segments,
                )
                if pools is not None:
                    pools[j] = pool
            except (BrokenProcessPool, RuntimeError):
                # The replacement pool broke under us (a just-resubmitted
                # shard crashed already), or a concurrent batch's
                # recovery shut it down between our replace and this
                # submit (RuntimeError: cannot schedule new futures
                # after shutdown).  Swap in the live pool and leave the
                # shard unsubmitted — the collector enqueues it lazily.
                futures[j] = None
                pool = self._replace_pool(pool)

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
    executor: str = "thread",
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
            executor=executor,
            policy=policy,
            chaos=chaos,
        ) as runner:
            return runner.run(levels).predictions

    return predict
