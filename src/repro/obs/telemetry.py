"""Cross-process metric harvest: worker registries, deltas, merge.

Everything executed inside a process-pool worker lives in another
process, so the parent's :class:`~repro.obs.registry.MetricsRegistry`
never sees it — the worker-side ``packed.*`` stage timers, kernel
gauges, and chaos events were a blind spot.  This module closes it with
a small, explicit protocol:

1. **Install** — the pool initializer calls
   :func:`install_worker_telemetry` *after* engine construction, so each
   worker records into its own private registry (and, optionally, a
   deterministically sampled tracer) without capturing one-time init
   work that a serial run would not record either.
2. **Ship** — after each task the worker calls
   :func:`drain_worker_delta`, which snapshots its registry **and resets
   it**, and piggybacks the serialized delta on the task's result tuple.
   Reset-after-ship means every delta is shipped at most once: a future
   whose result is discarded (timeout, broken pool, cancelled sibling)
   simply loses its delta, and nothing is ever double-counted.
3. **Merge** — the parent calls :func:`merge_delta` on each collected
   result: counters sum, histogram reservoirs merge (count/total exact,
   samples re-offered), and gauges land *tagged per worker pid*
   (``kernels.popcount_native.w1234``) because summing last-write-wins
   values across processes is meaningless.
4. **Drain on close** — a :class:`concurrent.futures.ProcessPoolExecutor`
   cannot address individual workers, so :func:`drain_pool` submits a
   batch of no-op :func:`drain_task` jobs and merges whatever comes
   back.  A worker that picks up two drains returns an empty second
   delta (reset-after-ship is idempotent); a worker that picks up none
   loses its residue, matching the lost-future semantics above.

The co-design search engine's process pool (``search/engine.py``) is
the protocol's one user; the merge rules are pinned by
``tests/obs/test_telemetry.py``.
"""

from __future__ import annotations

import os
from collections import deque

from .registry import MetricsRegistry, NullRegistry, get_registry, set_registry
from .trace import Tracer, set_tracer, trace_to_dict

__all__ = [
    "WORKER_GAUGE_SEP",
    "install_worker_telemetry",
    "worker_telemetry_installed",
    "registry_delta",
    "drain_worker_delta",
    "merge_delta",
    "drain_task",
    "drain_pool",
    "recent_worker_traces",
    "worker_trace_rate",
]

#: Gauge names merge as ``f"{name}{WORKER_GAUGE_SEP}{pid}"``.
WORKER_GAUGE_SEP = ".w"

#: Max worker-shipped traces retained parent-side (oldest dropped).
MAX_WORKER_TRACES = 256

#: Max traces shipped per delta (bounds pickle size under high rates).
_TRACES_PER_DELTA = 8

# Worker-side state: the private registry/tracer installed by the pool
# initializer.  ``None`` in the parent and in workers whose pool was
# built while observability was off.
_worker_registry: MetricsRegistry | None = None
_worker_tracer: Tracer | None = None

# Parent-side: traces shipped up from workers, newest last.
_worker_traces: deque = deque(maxlen=MAX_WORKER_TRACES)


def worker_trace_rate(environ=None) -> float:
    """Sampling rate for worker-side tracers (``REPRO_WORKER_TRACE_RATE``,
    default 0.0 = tracing off in workers)."""
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_WORKER_TRACE_RATE")
    if raw is None or not str(raw).strip():
        return 0.0
    try:
        return min(1.0, max(0.0, float(raw)))
    except (TypeError, ValueError):
        return 0.0


def install_worker_telemetry(
    enabled: bool = True, trace_sample_rate: float | None = None
) -> None:
    """Install a private recording registry (and sampled tracer) here.

    Called from pool-worker initializers, *after* engine construction so
    init-time work stays out of the deltas — that is what keeps merged
    process-run totals identical to serial/thread runs.  With
    ``enabled=False`` (the pool was built while the parent registry was
    the null registry) nothing is installed and the worker keeps the
    zero-overhead path.
    """
    global _worker_registry, _worker_tracer
    if not enabled:
        _worker_registry = None
        _worker_tracer = None
        return
    registry = MetricsRegistry()
    set_registry(registry)
    _worker_registry = registry
    rate = worker_trace_rate() if trace_sample_rate is None else trace_sample_rate
    if rate > 0.0:
        tracer = Tracer(sample_rate=rate)
        set_tracer(tracer)
        _worker_tracer = tracer
    else:
        _worker_tracer = None


def worker_telemetry_installed() -> bool:
    """True inside a worker that has a recording registry installed."""
    return _worker_registry is not None


def registry_delta(
    registry: MetricsRegistry | NullRegistry, *, reset: bool = False
) -> dict:
    """Serializable snapshot of ``registry``'s full state.

    With ``reset=True`` the registry is cleared after the snapshot
    (ship-and-reset).  The two steps are not atomic — a recording that
    lands between them is lost — which is fine in pool workers, where
    tasks run one at a time on the worker's only thread.
    """
    counters = {name: c.value for name, c in registry.counters().items()}
    gauges = {name: g.value for name, g in registry.gauges().items()}
    histograms = {
        name: {
            "samples": h.samples(),
            "count": h.count,
            "total_s": h.total_seconds,
        }
        for name, h in registry.histograms().items()
    }
    if reset:
        registry.reset()
    return {
        "pid": os.getpid(),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def drain_worker_delta() -> dict | None:
    """Ship-and-reset this worker's accumulated metrics (and traces).

    Returns ``None`` when no worker telemetry is installed, so the
    piggyback slot on result tuples costs nothing when observability is
    off.
    """
    registry = _worker_registry
    if registry is None:
        return None
    delta = registry_delta(registry, reset=True)
    tracer = _worker_tracer
    if tracer is not None:
        traces = tracer.to_dicts()
        if traces:
            delta["traces"] = traces[-_TRACES_PER_DELTA:]
        tracer.reset()
    return delta


def merge_delta(
    registry: MetricsRegistry | NullRegistry, delta: dict | None
) -> bool:
    """Fold one worker delta into ``registry``.

    Counters sum; histograms merge exactly on count/total and by
    reservoir re-offer on samples; gauges are written under a
    per-worker-pid suffix (never summed).  Worker traces are parked in
    the parent-side buffer (:func:`recent_worker_traces`).  Returns True
    when anything was merged.
    """
    if delta is None or not getattr(registry, "enabled", False):
        return False
    merged = False
    for name, value in delta.get("counters", {}).items():
        if value:
            registry.counter(name).add(int(value))
            merged = True
    pid = delta.get("pid")
    tag = f"{WORKER_GAUGE_SEP}{pid}" if pid is not None else ""
    for name, value in delta.get("gauges", {}).items():
        registry.gauge(name + tag).set(value)
        merged = True
    for name, entry in delta.get("histograms", {}).items():
        count = int(entry.get("count", 0))
        if count:
            registry.histogram(name).merge_samples(
                entry.get("samples", []), count, float(entry.get("total_s", 0.0))
            )
            merged = True
    for trace in delta.get("traces", ()):
        trace = dict(trace)
        if pid is not None:
            trace["worker_pid"] = pid
        _worker_traces.append(trace)
        merged = True
    return merged


def recent_worker_traces() -> list[dict]:
    """Traces shipped up from workers, oldest first (bounded buffer)."""
    return list(_worker_traces)


def drain_task(_index: int = 0) -> dict | None:
    """Picklable pool task shipping this worker's outstanding delta."""
    return drain_worker_delta()


def drain_pool(
    executor, registry, n_tasks: int, timeout_s: float = 5.0
) -> int:
    """Best-effort drain of a process pool's workers into ``registry``.

    ``ProcessPoolExecutor`` cannot address individual workers, so this
    submits ``n_tasks`` (usually the pool width) drain jobs and merges
    whatever returns within ``timeout_s``.  Duplicate drains are
    harmless (the second returns an empty delta); a worker that picks up
    no drain keeps its residue, which is then lost with the pool — the
    same at-most-once semantics as every other delta.  Returns the
    number of non-empty deltas merged; a broken or closed pool drains
    zero, never raises.
    """
    if not getattr(registry, "enabled", False) or n_tasks <= 0:
        return 0
    merged = 0
    try:
        futures = [executor.submit(drain_task, i) for i in range(n_tasks)]
    except Exception:  # noqa: BLE001 — closed/broken pool: nothing to drain
        return 0
    for future in futures:
        try:
            delta = future.result(timeout=timeout_s)
        except Exception:  # noqa: BLE001 — crashed/hung worker loses its residue
            continue
        if merge_delta(registry, delta):
            merged += 1
    return merged
