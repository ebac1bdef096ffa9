"""Online serving front-end: work-conserving micro-batching.

The packed datapath earns its 19.2x speedup on *batches*, but production
BCI traffic arrives one sample at a time.  :class:`MicroBatchServer`
closes that gap with adaptive batching that never waits to fill a batch:
concurrent clients ``await submit(sample)`` into a request queue, and a
single flusher coroutine hands pending requests to the pipeline the
moment a slot is free, up to ``ServePolicy.max_batch`` of them at a time.
A lone request therefore leaves at once; a batch grows only while every
slot is busy and arrivals pile up behind it, which is exactly when
coalescing pays (UniVSA's own controller likewise streams inputs instead
of waiting for a batch).  Each flush is counted once, as
``serve.flush.full`` (the batch left with ``max_batch`` samples) or
``serve.flush.partial``.

A lone request on an idle pipeline (one pending, no batch in flight) is
answered inline on the event loop, with no executor hand-off in either
direction (``serve.pipeline.inline``).  Every other flush — more than
one pending, or a batch already in flight — executes on a
:class:`~repro.runtime.resilience.ResilientBatchRunner` via a small
executor with ``ServePolicy.max_inflight`` slots (default 2): while
batch N executes, batch N+1 dispatches into the other slot, so
queue-coalescing and compute overlap instead of serializing.  Fan-out
stays strictly FIFO — each in-flight batch awaits its predecessor's
completion gate before resolving futures, so batch N+1 never answers
before batch N — and with every slot busy the flusher back-pressures
while the queue keeps accepting.  Per-sample scores/labels — including
quarantine sentinels — are fanned back to the right futures in arrival
order.  ``serve.pipeline.*`` instruments (slots / inflight /
inflight_max gauges, dispatched / inline / barriers counters) account
for the overlap.

Overload is handled by admission control, not collapse: past
``max_queue`` queued samples a request is immediately answered with
``status="rejected"`` (load shedding — the SLO-aware choice of Clockwork,
OSDI'20: an answer that would blow the deadline is worth less than a fast
no), and a draining server likewise rejects new arrivals while flushing
what it already accepted.  Every event lands in ``serve.*`` instruments
(requests / accepted / rejected / answered / failed / quarantined
counters, queue-depth gauge, ``serve.latency`` and ``serve.batch``
histograms), which the run ledger harvests into every record.

The server also hosts the *integrity* loop: given an
:class:`~repro.runtime.integrity.IntegrityScrubber`, a periodic
coroutine re-hashes the engine's resident operands at a **pipeline
barrier** — new dispatches are held, in-flight batches are awaited, the
scrub runs on a quiesced executor, then dispatch reopens — so a hot
repair never swaps the engine under an in-flight batch even with
``max_inflight > 1``, and serving continues (the queue keeps accepting
throughout).  The chaos ``corrupt:P`` directive mutates resident engine
memory between micro-batches, so it forces the pipeline down to one
slot (corruption injected concurrently with another executing batch
would break the repair-to-bit-exactness contract the integrity-smoke CI
job asserts); ordinals are assigned at dispatch on the event loop, so
the corruption schedule stays reproducible either way.

:func:`serve_tcp` puts a newline-delimited-JSON TCP front end over the
server for the ``python -m repro serve`` daemon — hardened per
:class:`NetPolicy`: a max line length, per-connection read timeouts
(slow-loris), a connection cap, and ``status="bad_request"`` answers for
malformed/oversized/wrong-shape requests (a client can never crash a
handler).  Network-plane events land in ``serve.net.*`` counters;
:mod:`repro.runtime.loadgen` drives the same server in-process for the
``serve-bench`` latency-vs-load harness.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_registry, snapshot, stage_timer
from repro.obs.slo import SLO, SLOTracker

from .integrity import maybe_corrupt_resident
from .resilience import QUARANTINED_LABEL, CircuitOpenError

__all__ = [
    "NetPolicy",
    "ServePolicy",
    "ServeResponse",
    "MicroBatchServer",
    "serve_tcp",
]


@dataclass(frozen=True)
class ServePolicy:
    """Knobs of the micro-batching front end.

    ``max_batch`` caps samples per micro-batch and ``max_queue`` caps
    queued samples — arrivals beyond it are shed with an explicit
    ``rejected`` response instead of growing an unbounded backlog.
    ``max_inflight`` is the pipeline depth: how many micro-batches may
    execute concurrently.  The flusher sends pending requests as soon as
    one of these slots is free, so batches grow only while all of them
    are busy (responses still fan out strictly FIFO); ``1`` fully
    serializes execution.  ``deadline_ms`` is each request's end-to-end
    latency budget as reported with the policy; it does not time
    flushes — no request is held back waiting for a batch to fill.
    """

    max_batch: int = 64
    deadline_ms: float = 50.0
    max_queue: int = 1024
    max_inflight: int = 2

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")

    @classmethod
    def from_env(cls, environ=None) -> "ServePolicy":
        """Policy from ``REPRO_SERVE_BATCH`` / ``REPRO_SERVE_DEADLINE_MS``
        / ``REPRO_SERVE_QUEUE`` / ``REPRO_SERVE_INFLIGHT`` (unset keys
        keep the defaults)."""
        env = os.environ if environ is None else environ

        def _get(key, cast, default):
            raw = env.get(key)
            if raw is None or not str(raw).strip():
                return default
            try:
                return cast(raw)
            except (TypeError, ValueError):
                return default

        return cls(
            max_batch=_get("REPRO_SERVE_BATCH", int, cls.max_batch),
            deadline_ms=_get("REPRO_SERVE_DEADLINE_MS", float, cls.deadline_ms),
            max_queue=_get("REPRO_SERVE_QUEUE", int, cls.max_queue),
            max_inflight=max(1, _get("REPRO_SERVE_INFLIGHT", int, cls.max_inflight)),
        )


@dataclass(frozen=True)
class NetPolicy:
    """Limits of the TCP front end (garbage / slow-loris hardening).

    ``max_line_bytes`` bounds one request line (an over-long line is
    answered ``bad_request`` and the connection dropped — mid-line there
    is no newline to resync on).  ``read_timeout_s`` caps how long a
    connection may sit between lines (0 disables); a client trickling
    bytes forever is cut off instead of pinning a handler.
    ``max_connections`` caps concurrently open connections — excess ones
    get a single ``{"status": "rejected"}`` line and a close, the same
    explicit-shed philosophy as the admission-controlled queue.
    """

    max_line_bytes: int = 1 << 20
    read_timeout_s: float = 30.0
    max_connections: int = 128

    def __post_init__(self) -> None:
        if self.max_line_bytes < 64:
            raise ValueError("max_line_bytes must be >= 64")
        if self.read_timeout_s < 0:
            raise ValueError("read_timeout_s must be >= 0 (0 disables)")
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")

    @classmethod
    def from_env(cls, environ=None) -> "NetPolicy":
        """Policy from ``REPRO_SERVE_MAX_LINE`` / ``REPRO_SERVE_READ_TIMEOUT_S``
        / ``REPRO_SERVE_MAX_CONNS`` (unset keys keep the defaults)."""
        env = os.environ if environ is None else environ

        def _get(key, cast, default):
            raw = env.get(key)
            if raw is None or not str(raw).strip():
                return default
            try:
                return cast(raw)
            except (TypeError, ValueError):
                return default

        return cls(
            max_line_bytes=_get("REPRO_SERVE_MAX_LINE", int, cls.max_line_bytes),
            read_timeout_s=_get(
                "REPRO_SERVE_READ_TIMEOUT_S", float, cls.read_timeout_s
            ),
            max_connections=_get("REPRO_SERVE_MAX_CONNS", int, cls.max_connections),
        )


@dataclass(frozen=True)
class ServeResponse:
    """One answered request.

    ``status`` is ``"ok"`` (served), ``"quarantined"`` (invalid input,
    sentinel label), ``"failed"`` (the serving ladder exhausted itself),
    or ``"rejected"`` (shed by admission control before queuing).
    ``latency_s`` is queue + execution time (0 for rejected requests) and
    ``batch_size`` the micro-batch the sample rode in.
    """

    status: str
    label: int
    scores: np.ndarray | None
    latency_s: float
    batch_size: int = 0
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _resolve_scrub_interval(value: float | None) -> float:
    """Scrub period: explicit value, else ``REPRO_SCRUB_INTERVAL_S``,
    else 5 s.  Only consulted when a scrubber is attached; <= 0 disables
    the periodic loop (on-demand ``scrub()`` still works)."""
    if value is not None:
        return float(value)
    raw = os.environ.get("REPRO_SCRUB_INTERVAL_S")
    if raw is None or not raw.strip():
        return 5.0
    try:
        return float(raw)
    except ValueError:
        return 5.0


@dataclass
class _Request:
    """One queued sample awaiting its micro-batch."""

    levels: np.ndarray
    arrival: float
    future: asyncio.Future = field(repr=False)


class MicroBatchServer:
    """Coalesces concurrent single-sample submissions into micro-batches.

    Built over a :class:`~repro.runtime.resilience.ResilientBatchRunner`
    (whose retry/fallback/quarantine ladder and chaos seam the serve path
    inherits wholesale).  Use as an async context manager::

        with ResilientBatchRunner(engine) as runner:
            async with MicroBatchServer(runner, policy) as server:
                response = await server.submit(sample)

    ``submit`` must be called from the event loop that ``start``-ed the
    server.  The runner's lifecycle belongs to the caller.
    """

    def __init__(
        self,
        runner,
        policy: ServePolicy | None = None,
        slo: SLO | SLOTracker | None = None,
        scrubber=None,
        scrub_interval_s: float | None = None,
    ) -> None:
        self.runner = runner
        self.policy = policy if policy is not None else ServePolicy.from_env()
        if isinstance(slo, SLOTracker):
            self.slo = slo
        else:
            self.slo = SLOTracker(slo if slo is not None else SLO.from_env())
        self.scrubber = scrubber
        self.scrub_interval_s = _resolve_scrub_interval(scrub_interval_s)
        self._pending: list[_Request] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._flusher: asyncio.Task | None = None
        self._scrub_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._closing = False
        self._inflight = 0
        self._batches_started = 0
        self._slots = 1
        self._inflight_tasks: list[asyncio.Task] = []
        self._fanout_gate: asyncio.Future | None = None
        self._dispatch_open: asyncio.Event | None = None
        self._peak_inflight = 0

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "MicroBatchServer":
        """Spawn the flusher; idempotent ``drain`` is the counterpart."""
        if self._flusher is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._closing = False
        # Pipeline depth: micro-batches overlap across these executor
        # slots (each batch still fans out across the runner's own
        # worker pool inside run()).  The corrupt:P chaos directive
        # mutates resident engine memory between batches, which must
        # never race another executing batch — it forces depth 1.
        corrupt = getattr(getattr(self.runner, "chaos", None), "corrupt_rate", 0.0)
        self._slots = 1 if corrupt else self.policy.max_inflight
        self._inflight_tasks = []
        self._fanout_gate = None
        self._peak_inflight = 0
        self._dispatch_open = asyncio.Event()
        self._dispatch_open.set()
        registry = get_registry()
        registry.gauge("serve.pipeline.slots").set(self._slots)
        registry.gauge("serve.pipeline.inflight").set(0.0)
        self._executor = ThreadPoolExecutor(
            max_workers=self._slots, thread_name_prefix="repro-serve"
        )
        self._flusher = self._loop.create_task(self._flush_loop())
        if self.scrubber is not None and self.scrub_interval_s > 0:
            self._scrub_task = self._loop.create_task(self._scrub_loop())
        return self

    async def drain(self) -> None:
        """Graceful shutdown: reject new arrivals, answer everything
        already accepted and in flight, then stop the flusher
        (idempotent)."""
        if self._flusher is None:
            return
        self._closing = True
        self._wake.set()
        flusher, self._flusher = self._flusher, None
        await flusher
        # The flusher dispatched its tail batches; answer them all.
        while self._inflight_tasks:
            await asyncio.gather(
                *list(self._inflight_tasks), return_exceptions=True
            )
        if self._scrub_task is not None:
            task, self._scrub_task = self._scrub_task, None
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        executor, self._executor = self._executor, None
        executor.shutdown(wait=True)
        registry = get_registry()
        registry.gauge("serve.queue_depth").set(0.0)
        registry.gauge("serve.pipeline.inflight").set(0.0)

    async def __aenter__(self) -> "MicroBatchServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.drain()

    # -- request intake -------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Samples currently queued (not yet flushed into a batch)."""
        return len(self._pending)

    async def submit(self, levels: np.ndarray) -> ServeResponse:
        """Serve one sample; resolves when its micro-batch answers.

        Accepts one sample shaped ``input_shape`` (or ``(1,) + shape``).
        An over-loaded or draining server answers immediately with
        ``status="rejected"`` — shedding is an explicit response, never an
        exception.
        """
        if self._flusher is None:
            raise RuntimeError("server is not started")
        levels = np.asarray(levels)
        expected = tuple(self.runner.engine.input_shape)
        if levels.shape == (1,) + expected:
            levels = levels[0]
        elif levels.shape != expected:
            raise ValueError(
                f"submit expects one sample shaped {expected} "
                f"(got {levels.shape}); use submit_many for bursts"
            )
        registry = get_registry()
        registry.counter("serve.requests").add(1)
        if self._closing or len(self._pending) >= self.policy.max_queue:
            registry.counter("serve.rejected").add(1)
            # A shed request is a server-side SLO violation: the client
            # asked for a valid prediction and did not get one.
            self.slo.record(0.0, ok=False)
            return ServeResponse(
                status="rejected",
                label=QUARANTINED_LABEL,
                scores=None,
                latency_s=0.0,
                reason="draining" if self._closing else "queue-full",
            )
        registry.counter("serve.accepted").add(1)
        request = _Request(
            levels=levels,
            arrival=self._loop.time(),
            future=self._loop.create_future(),
        )
        self._pending.append(request)
        registry.gauge("serve.queue_depth").set(len(self._pending))
        self._wake.set()
        return await request.future

    async def submit_many(self, levels: np.ndarray) -> list[ServeResponse]:
        """Serve a small burst ``(k,) + input_shape``; per-sample admission."""
        levels = np.asarray(levels)
        expected = tuple(self.runner.engine.input_shape)
        if levels.ndim != len(expected) + 1 or levels.shape[1:] != expected:
            raise ValueError(
                f"submit_many expects (k,) + {expected} (got {levels.shape})"
            )
        return list(
            await asyncio.gather(*(self.submit(sample) for sample in levels))
        )

    # -- the flusher ----------------------------------------------------
    async def _flush_loop(self) -> None:
        """Work-conserving dispatch: while requests are pending, wait
        only for an open window and a free slot, then send up to
        ``max_batch`` of them — or, for a lone request with nothing in
        flight, answer it inline."""
        max_batch = self.policy.max_batch
        while True:
            if not self._pending:
                if self._closing:
                    break
                await self._wake.wait()
                self._wake.clear()
                continue
            await self._slot_free()
            # Only this loop takes from _pending, so it is still
            # non-empty; and no await from here to task creation, so a
            # barrier cannot close the window under this dispatch.
            batch = self._pending[:max_batch]
            del self._pending[:max_batch]
            registry = get_registry()
            trigger = "full" if len(batch) == max_batch else "partial"
            registry.counter(f"serve.flush.{trigger}").add(1)
            registry.gauge("serve.queue_depth").set(len(self._pending))
            if len(batch) == 1 and not self._pending and not self._inflight_tasks:
                self._run_inline(batch)
            else:
                self._dispatch(batch)

    def _run_inline(self, batch: list[_Request]) -> None:
        """Answer a lone request on an idle pipeline right here, on the
        event loop: with nothing to coalesce or overlap it with, the two
        executor hand-offs would be pure latency.  It runs the same
        ``_run_batch`` (chaos seam, ``serve.batch`` timer, the runner's
        whole ladder) under the next dispatch ordinal; nothing is in
        flight to fan out ahead of it.  The loop is held for the call,
        so arrivals meanwhile queue up and leave together through a
        slot."""
        ordinal = self._batches_started
        self._batches_started += 1
        get_registry().counter("serve.pipeline.inline").add(1)
        levels = self._admit(batch)
        try:
            result = self._run_batch(levels, ordinal)
        except Exception as exc:  # noqa: BLE001 — must not kill the daemon
            self._fail_batch(batch, self._failure_reason(exc))
        else:
            self._fan_out(batch, result)
        finally:
            self._release(batch)

    async def _slot_free(self) -> None:
        """Return once the dispatch window is open (a scrub barrier
        closes it) and a pipeline slot is free (back-pressure past
        ``max_inflight``)."""
        while True:
            await self._dispatch_open.wait()
            if len(self._inflight_tasks) < self._slots:
                return
            # Every slot is busy: arrivals keep queueing (up to
            # max_queue) until the oldest in-flight batch answers — then
            # re-check the window, which may have closed meanwhile.
            await asyncio.wait(
                list(self._inflight_tasks), return_when=asyncio.FIRST_COMPLETED
            )

    def _dispatch(self, batch: list[_Request]) -> None:
        """Launch one micro-batch into a free pipeline slot, as a task
        chained to its predecessor's fan-out gate.  The ordinal is
        assigned here, on the event loop, so the execution *schedule*
        (which batch is Nth) is deterministic even though completion
        order is not.
        """
        registry = get_registry()
        ordinal = self._batches_started
        self._batches_started += 1
        prev_gate = self._fanout_gate
        gate = self._loop.create_future()
        self._fanout_gate = gate
        task = self._loop.create_task(
            self._execute(batch, ordinal, prev_gate, gate)
        )
        self._inflight_tasks.append(task)
        depth = len(self._inflight_tasks)
        self._peak_inflight = max(self._peak_inflight, depth)
        registry.counter("serve.pipeline.dispatched").add(1)
        registry.gauge("serve.pipeline.inflight").set(depth)
        registry.gauge("serve.pipeline.inflight_max").set(self._peak_inflight)

    async def _execute(
        self,
        batch: list[_Request],
        ordinal: int,
        prev_gate: asyncio.Future | None,
        gate: asyncio.Future,
    ) -> None:
        levels = self._admit(batch)
        result = None
        failure = None
        try:
            try:
                result = await self._loop.run_in_executor(
                    self._executor, self._run_batch, levels, ordinal
                )
            except Exception as exc:  # noqa: BLE001 — must not kill the daemon
                failure = self._failure_reason(exc)
            if prev_gate is not None:
                # FIFO fan-out: batch N+1 never answers before batch N,
                # even when it finishes computing first.
                await prev_gate
            if failure is not None:
                self._fail_batch(batch, failure)
            else:
                self._fan_out(batch, result)
        finally:
            self._release(batch)
            if not gate.done():
                gate.set_result(None)
            task = asyncio.current_task()
            if task in self._inflight_tasks:
                self._inflight_tasks.remove(task)
            get_registry().gauge("serve.pipeline.inflight").set(
                len(self._inflight_tasks)
            )

    def _admit(self, batch: list[_Request]) -> np.ndarray:
        """Count one executing micro-batch; returns its stacked levels."""
        registry = get_registry()
        registry.counter("serve.batches").add(1)
        registry.counter("serve.batched_samples").add(len(batch))
        self._inflight += len(batch)
        registry.gauge("serve.inflight").set(self._inflight)
        return np.stack([request.levels for request in batch])

    def _release(self, batch: list[_Request]) -> None:
        self._inflight = max(0, self._inflight - len(batch))
        get_registry().gauge("serve.inflight").set(self._inflight)

    @staticmethod
    def _failure_reason(exc: Exception) -> str:
        """The ``failed`` answer's reason for a batch whose run raised."""
        if isinstance(exc, CircuitOpenError):
            get_registry().counter("serve.breaker_trips").add(1)
            return "circuit-open"
        return type(exc).__name__

    def _fan_out(self, batch: list[_Request], result) -> None:
        """Resolve every request future of one completed micro-batch."""
        registry = get_registry()
        report = result.report
        failed_rows = set(report.failed_samples)
        now = self._loop.time()
        latency_hist = registry.histogram("serve.latency")
        for row, request in enumerate(batch):
            latency = now - request.arrival
            if row in report.quarantined:
                status, reason = "quarantined", report.quarantined[row]
                registry.counter("serve.quarantined").add(1)
                # Invalid input is a *client* error — it must not burn
                # the server's error budget.
                self.slo.record_client_error()
            elif row in failed_rows:
                status, reason = "failed", "shard-failed"
                registry.counter("serve.failed").add(1)
                self.slo.record(latency, ok=False)
            else:
                status, reason = "ok", ""
                registry.counter("serve.answered").add(1)
                self.slo.record(latency, ok=True)
            latency_hist.observe(latency)
            self._resolve(
                request,
                ServeResponse(
                    status=status,
                    label=int(result.predictions[row]),
                    scores=result.scores[row],
                    latency_s=latency,
                    batch_size=len(batch),
                    reason=reason,
                ),
            )
        self.slo.publish(registry)

    def _run_batch(self, levels: np.ndarray, ordinal: int):
        """One resilient batch under a serve span, on a pipeline slot or
        inline on the event loop."""
        with stage_timer("serve.batch"):
            chaos = getattr(self.runner, "chaos", None)
            if chaos is not None and getattr(chaos, "corrupt_rate", 0.0):
                # The corrupt:P chaos seam: between batches, flip bits in
                # the engine's resident memory.  Indexed by the dispatch
                # ordinal (corrupt chaos pins the pipeline to one slot
                # and an inline batch runs only with none in flight, so
                # the ordinal is the execution order) for reproducible
                # corruption.
                maybe_corrupt_resident(self.runner.engine, chaos, ordinal)
            return self.runner.run(levels)

    # -- integrity scrubbing --------------------------------------------
    async def _pipeline_barrier(self) -> None:
        """Quiesce the pipeline: close the dispatch window, then wait
        out every in-flight batch.  The caller MUST reopen the window
        (``self._dispatch_open.set()``) in a ``finally``."""
        get_registry().counter("serve.pipeline.barriers").add(1)
        self._dispatch_open.clear()
        while self._inflight_tasks:
            await asyncio.gather(
                *list(self._inflight_tasks), return_exceptions=True
            )

    async def _scrub_barriered(self):
        """One scrub pass at a pipeline barrier (the only safe place: a
        hot repair swaps the engine, which must never happen under an
        in-flight batch).  Dispatch reopens no matter how the scrub
        ends; the queue keeps accepting throughout."""
        try:
            await self._pipeline_barrier()
            return await self._loop.run_in_executor(
                self._executor, self.scrubber.scrub
            )
        finally:
            self._dispatch_open.set()

    async def _scrub_loop(self) -> None:
        """Periodic scrub at a pipeline barrier."""
        while not self._closing:
            await asyncio.sleep(self.scrub_interval_s)
            if self._executor is None:
                return
            try:
                await self._scrub_barriered()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 — scrubbing must not kill serving
                get_registry().counter("integrity.scrub_errors").add(1)

    async def scrub(self):
        """On-demand scrub pass; returns the
        :class:`~repro.runtime.integrity.ScrubReport`.

        Runs at a pipeline barrier — in-flight batches are awaited
        first, so a repair never swaps the engine under one — and
        serving continues (the queue keeps accepting).
        """
        if self.scrubber is None:
            raise RuntimeError("server has no scrubber configured")
        if self._executor is None:
            return self.scrubber.scrub()
        return await self._scrub_barriered()

    def _fail_batch(self, batch: list[_Request], reason: str) -> None:
        registry = get_registry()
        now = self._loop.time()
        for request in batch:
            registry.counter("serve.failed").add(1)
            self.slo.record(now - request.arrival, ok=False)
            self._resolve(
                request,
                ServeResponse(
                    status="failed",
                    label=QUARANTINED_LABEL,
                    scores=None,
                    latency_s=now - request.arrival,
                    batch_size=len(batch),
                    reason=reason,
                ),
            )
        self.slo.publish(registry)

    @staticmethod
    def _resolve(request: _Request, response: ServeResponse) -> None:
        if not request.future.done():  # a cancelled client still drains
            request.future.set_result(response)

    # -- admin plane ----------------------------------------------------
    @property
    def inflight(self) -> int:
        """Samples across all currently-executing micro-batches."""
        return self._inflight

    @property
    def inflight_batches(self) -> int:
        """Micro-batches currently in the pipeline (0 when idle)."""
        return len(self._inflight_tasks)

    def admin_snapshot(self) -> dict:
        """Live operational state for the admin endpoint / ``repro top``.

        Queue depth, in-flight batch size, the serving policy, the engine
        the runner serves with (mode, conv backend and, off the compiled
        kernel, why), the SLO error-budget state, and the active
        registry's full counter / gauge / stage-summary snapshot, which
        includes the pool threads' ``packed.*`` stage time.
        """
        registry = get_registry()
        state = snapshot(registry)
        engine = self.runner.engine
        out = {
            "queue_depth": self.queue_depth,
            "inflight": self._inflight,
            "draining": self._closing,
            "engine": {
                "mode": getattr(engine, "mode", None),
                "conv_backend": getattr(engine, "conv_backend", None),
                "cc_conv_unavailable_reason": getattr(
                    engine, "conv_unavailable_reason", None
                ),
            },
            "policy": {
                "max_batch": self.policy.max_batch,
                "deadline_ms": self.policy.deadline_ms,
                "max_queue": self.policy.max_queue,
                "max_inflight": self.policy.max_inflight,
            },
            "pipeline": {
                "slots": self._slots,
                "inflight_batches": len(self._inflight_tasks),
                "inflight_max": self._peak_inflight,
            },
            "slo": self.slo.state(),
            "counters": state["counters"],
            "gauges": state["gauges"],
            "stages": state["stages"],
        }
        if self.scrubber is not None:
            out["integrity"] = self.scrubber.status()
        return out


# ---------------------------------------------------------------------------
# TCP front end (newline-delimited JSON)
# ---------------------------------------------------------------------------
def _admin_response(server: MicroBatchServer, payload: dict) -> dict:
    """Answer one ``{"op": ...}`` admin request (no queueing, no batch)."""
    op = payload.get("op")
    if op == "metrics":
        if payload.get("format") == "prom":
            from repro.obs.export import to_prometheus

            return {
                "status": "ok",
                "op": "metrics",
                "format": "prom",
                "prom": to_prometheus(get_registry()),
            }
        out = server.admin_snapshot()
        out.update({"status": "ok", "op": "metrics"})
        return out
    if op == "health":
        slo_state = server.slo.state()
        draining = server._closing
        healthy = not draining and slo_state["budget_remaining"] > 0.0
        out = {
            "status": "ok",
            "op": "health",
            "healthy": healthy,
            "draining": draining,
            "queue_depth": server.queue_depth,
            "inflight": server.inflight,
            "budget_remaining": slo_state["budget_remaining"],
            "burn_rate_fast": slo_state["burn_rate_fast"],
            "burn_rate_slow": slo_state["burn_rate_slow"],
        }
        if server.scrubber is not None:
            last = server.scrubber.last_report
            out["scrub_clean"] = True if last is None else bool(
                last.clean or last.repaired
            )
        return out
    return {"status": "error", "reason": f"unknown admin op {op!r}"}


async def serve_tcp(
    server: MicroBatchServer,
    host: str = "127.0.0.1",
    port: int = 8765,
    net: NetPolicy | None = None,
):
    """Put a hardened newline-delimited-JSON TCP front end over ``server``.

    Protocol: one request object per line, ``{"levels": [[...]]}`` (a
    single quantized sample shaped like the engine's input; add
    ``"scores": true`` for the per-class score vector), answered with one
    response line carrying ``status`` / ``label`` / ``latency_ms`` /
    ``batch_size``.

    The front end never lets a client crash a handler: malformed JSON,
    non-object payloads, non-numeric or wrong-shape ``levels``, and
    over-long lines are all answered ``status="bad_request"`` with a
    ``reason`` (and counted as *client* errors, so they never burn the
    server's SLO budget); only genuine server-side failures answer
    ``status="error"``.  :class:`NetPolicy` bounds the line length
    (oversized lines are answered then the connection dropped — mid-line
    there is no newline to resync on), idle time between lines
    (slow-loris timeout), and concurrently open connections (excess ones
    are told ``status="rejected"`` and closed).  Every network-plane
    event lands in ``serve.net.*`` counters, which the run ledger
    harvests.

    Lines carrying ``"op"`` instead of ``"levels"`` are *admin* requests
    answered inline, without touching the request queue:

    * ``{"op": "metrics"}`` — full operational snapshot (queue depth,
      in-flight batch, flush counters, per-stage p50/p95/p99, SLO
      error-budget state, scrubber state); add
      ``"format": "prom"`` for Prometheus text exposition in ``"prom"``.
    * ``{"op": "health"}`` — cheap liveness probe with queue depth and
      budget burn.
    * ``{"op": "scrub"}`` — run one on-demand integrity scrub (detect +
      hot-repair) and return its report.

    Returns the listening :class:`asyncio.Server`; the caller owns its
    lifecycle.
    """
    net = net if net is not None else NetPolicy.from_env()
    open_connections = 0

    def _bad_request(reason: str) -> dict:
        get_registry().counter("serve.net.bad_requests").add(1)
        # A request the server could not even parse is a *client* error —
        # it must not burn the server's error budget.
        server.slo.record_client_error()
        return {"status": "bad_request", "reason": reason}

    async def _answer(raw: bytes) -> dict:
        registry = get_registry()
        registry.counter("serve.net.requests").add(1)
        try:
            payload = json.loads(raw)
        except (ValueError, UnicodeDecodeError) as exc:
            return _bad_request(f"malformed JSON: {exc}")
        if not isinstance(payload, dict):
            return _bad_request("request must be a JSON object")
        if "op" in payload:
            try:
                if payload.get("op") == "scrub":
                    report = await server.scrub()
                    out = report.as_dict()
                    out.update({"status": "ok", "op": "scrub"})
                    return out
                return _admin_response(server, payload)
            except Exception as exc:  # noqa: BLE001 — answer, don't hang up
                registry.counter("serve.net.errors").add(1)
                return {"status": "error", "reason": f"{type(exc).__name__}: {exc}"}
        if "levels" not in payload:
            return _bad_request("request must carry 'levels' or 'op'")
        try:
            levels = np.asarray(payload["levels"])
        except Exception as exc:  # noqa: BLE001 — ragged nests and worse
            return _bad_request(f"levels is not array-like: {exc}")
        if levels.dtype == object or not np.issubdtype(levels.dtype, np.number):
            return _bad_request("levels must be a numeric array")
        try:
            response = await server.submit(levels)
        except ValueError as exc:
            return _bad_request(str(exc))
        except Exception as exc:  # noqa: BLE001 — answer, don't hang up
            registry.counter("serve.net.errors").add(1)
            return {"status": "error", "reason": f"{type(exc).__name__}: {exc}"}
        out = {
            "status": response.status,
            "label": response.label,
            "latency_ms": response.latency_s * 1e3,
            "batch_size": response.batch_size,
        }
        if response.reason:
            out["reason"] = response.reason
        if payload.get("scores") and response.scores is not None:
            out["scores"] = np.asarray(response.scores).tolist()
        return out

    async def _serve_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = get_registry()
        timeout = net.read_timeout_s or None
        while True:
            try:
                line = await asyncio.wait_for(reader.readuntil(b"\n"), timeout)
            except asyncio.TimeoutError:
                # Slow-loris: a connection trickling (or sending nothing)
                # between lines is cut off, freeing the handler.
                registry.counter("serve.net.timeouts").add(1)
                return
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    # Mid-request disconnect: bytes but no newline.
                    registry.counter("serve.net.disconnects").add(1)
                return
            except asyncio.LimitOverrunError:
                registry.counter("serve.net.oversized").add(1)
                out = _bad_request(f"line exceeds {net.max_line_bytes} bytes")
                with contextlib.suppress(ConnectionError, OSError):
                    writer.write((json.dumps(out) + "\n").encode("utf-8"))
                    await writer.drain()
                return
            except (ConnectionResetError, OSError):
                registry.counter("serve.net.disconnects").add(1)
                return
            out = await _answer(line)
            try:
                writer.write((json.dumps(out) + "\n").encode("utf-8"))
                await writer.drain()
            except (ConnectionResetError, OSError):
                registry.counter("serve.net.disconnects").add(1)
                return

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        nonlocal open_connections
        registry = get_registry()
        registry.counter("serve.net.connections").add(1)
        if open_connections >= net.max_connections:
            registry.counter("serve.net.rejected_connections").add(1)
            with contextlib.suppress(ConnectionError, OSError):
                writer.write(
                    (
                        json.dumps(
                            {"status": "rejected", "reason": "connection-limit"}
                        )
                        + "\n"
                    ).encode("utf-8")
                )
                await writer.drain()
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            return
        open_connections += 1
        registry.gauge("serve.net.open").set(open_connections)
        try:
            await _serve_connection(reader, writer)
        finally:
            open_connections -= 1
            registry.gauge("serve.net.open").set(open_connections)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    return await asyncio.start_server(
        handle, host, port, limit=net.max_line_bytes
    )
