"""Worker-pool primitives shared by the batch runner and the search engine.

:func:`resolve_workers` turns an explicit count, ``REPRO_WORKERS`` or the
CPU count into a pool size, and :class:`WorkerPool` owns one lazily built
executor with crash replacement.  The batch runner's thread pool
(:class:`repro.runtime.resilience.ResilientBatchRunner`) and the co-design
search engine's process pool (:mod:`repro.search.engine`) both build on
it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Executor

__all__ = ["WorkerPool", "resolve_workers"]


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit > ``REPRO_WORKERS`` > ``os.cpu_count()``."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


class WorkerPool:
    """Lazily-built executor with crash replacement.

    Wraps a zero-argument ``factory`` returning a fresh
    :class:`concurrent.futures.Executor`.  The executor is built on first
    :meth:`ensure`, discarded wholesale by :meth:`replace` (the search
    engine's recovery path after a crashed process worker poisons its
    pool), and torn down by :meth:`close`.

    All lifecycle transitions are serialized by an internal lock:
    pipelined serving runs several batches concurrently through one
    runner, and two of them must never build two executors.
    """

    def __init__(self, factory) -> None:
        self._factory = factory
        self._executor: Executor | None = None
        self._lock = threading.Lock()

    @property
    def executor(self) -> Executor | None:
        """The live executor, or ``None`` before first use / after close."""
        return self._executor

    def ensure(self) -> Executor:
        """Build the executor on first use; return the live one after."""
        with self._lock:
            if self._executor is None:
                self._executor = self._factory()
            return self._executor

    def replace(self) -> Executor:
        """Discard the (possibly broken) executor and build a fresh one.

        ``shutdown`` on a broken pool only reaps what is left; it never
        blocks on lost work, so replacement is safe mid-batch.
        """
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            self._executor = self._factory()
            return self._executor

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

