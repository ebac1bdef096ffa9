"""Zero-copy shard handoff over POSIX shared memory.

Process executors previously pickled every shard's level array across
the pool boundary — for a batch of B samples split into S shards that is
B samples serialized, copied through a pipe, and deserialized, *per
batch*.  :class:`SharedArray` replaces the payload with a name: the
parent materializes the batch **once** in a
:mod:`multiprocessing.shared_memory` segment and submits ``(descriptor,
start, stop)`` tuples; workers attach by name and slice a zero-copy
read-only view.  The pipe now carries ~100 bytes per shard regardless of
batch size.

The same segment machinery now serves three planes:

* the **request plane** — the batch's level array, read-only to workers;
* the **result plane** — a parent-allocated ``(B, n_classes)`` score
  segment each worker *writes* at its span offset
  (``attach_view(..., writable=True)``), so the return leg pickles a
  span tuple instead of an array;
* the **operand plane** (:class:`OperandPlane`) — the packed engine's
  resident read-only operands serialized once at pool spin-up; worker
  initializers attach and reconstruct views instead of rebuilding the
  engine from pickled artifacts.  ``replace_engine()`` repairs become a
  re-publish plus a generation bump that workers detect per shard.

Ownership is strictly parent-side:

* the parent (the :class:`~repro.runtime.resilience.ResilientBatchRunner`
  that built the segment) is the only unlinker —
  :meth:`SharedArray.dispose` closes *and* unlinks, and the runner calls
  it in a ``finally`` so no segment outlives its batch, even when a
  shard raises;
* workers only ever attach and close.  Attached handles are kept in a
  small per-process LRU (:func:`attach_view`) because serving reuses one
  segment for many shards.  On Linux the attach maps the ``/dev/shm``
  file directly (read-only mmap; ``PROT_WRITE`` added only for the
  result plane), which keeps :mod:`multiprocessing.resource_tracker`
  entirely out of the workers — crucial under a fork start method, where
  workers *share* the parent's tracker and an attach-side
  register/unregister would corrupt the parent's own registration.
  Elsewhere the fallback attaches through
  :class:`~multiprocessing.shared_memory.SharedMemory` and unregisters
  the borrowed handle (``track=False`` exists only on Python 3.13+; on a
  spawn start method the worker's private tracker would otherwise unlink
  the parent's live segment at worker exit);
* a crashed worker cannot leak: the kernel frees the mapping with the
  process, and the name is the parent's to unlink.  ``BrokenProcessPool``
  recovery disposes the old segments and re-shares both planes
  (:meth:`ResilientBatchRunner._recover_pool`), so resubmitted shards
  never attach to a name a dead pool might have corrupted mid-write.

:class:`SegmentArena` amortizes segment churn: consecutive batches of
identical shape reuse a disposed-into-the-arena segment (same name, data
overwritten in place — worker attach caches stay valid because the
mapping is the same tmpfs file) instead of a create/unlink pair per
batch.  Recovery calls :meth:`SegmentArena.discard` so a name a dead
pool may have been writing is never reissued.

Segment names carry the :data:`SHM_PREFIX` prefix plus the owning PID,
so :func:`leaked_segments` can enumerate ``/dev/shm`` and CI can assert
the count is zero after a chaos bench — the lifecycle test, not a hope.
"""

from __future__ import annotations

import os
import mmap
import pickle
import secrets
import struct
import threading
from collections import OrderedDict
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = [
    "SHM_PREFIX",
    "OperandPlane",
    "SegmentArena",
    "SharedArray",
    "attach_plane",
    "attach_view",
    "evict_attachments",
    "leaked_segments",
    "resolve_shm",
]

#: Every segment this module creates is named ``repro-shm-<pid>-<nonce>``.
SHM_PREFIX = "repro-shm"

#: Attached-segment handles cached per worker process (LRU).  A serving
#: worker touches up to three live segments per batch (request plane,
#: result plane, operand plane); pipelined serving doubles the batch
#: planes, recovery re-shares them under fresh names, and micro-batches
#: of varying sizes each get their own arena segments — so the working
#: set of names is much larger than one batch's.  Eviction is safe
#: (views pin their mapping; see :func:`attach_view`) but costs a
#: re-mmap, so the cache is sized to make it rare.
_ATTACH_CACHE_SIZE = 16

_attached: "OrderedDict[tuple[str, bool], _Attachment]" = OrderedDict()


class _Attachment:
    """A worker-side handle on a parent-owned segment.

    Read-only by default; ``writable=True`` maps with ``PROT_WRITE`` for
    the result plane (workers write disjoint row spans in place).
    """

    def __init__(self, name: str, writable: bool = False) -> None:
        path = f"/dev/shm/{name}"
        self._shm: shared_memory.SharedMemory | None = None
        self._mmap: mmap.mmap | None = None
        if os.path.exists(path):
            # Tracker-free attach: map the tmpfs file directly.
            fd = os.open(path, os.O_RDWR if writable else os.O_RDONLY)
            try:
                prot = mmap.PROT_READ | (mmap.PROT_WRITE if writable else 0)
                self._mmap = mmap.mmap(fd, 0, prot=prot)
            finally:
                os.close(fd)
            self.buf: memoryview = memoryview(self._mmap)
        else:  # pragma: no cover — non-Linux fallback
            self._shm = shared_memory.SharedMemory(name=name)
            # The tracker assumes whoever opens a segment owns it and
            # unlinks leftovers at interpreter exit.  This handle is
            # borrowed — unregister so a worker exiting mid-serve cannot
            # destroy the parent's live segment (``track=False`` is the
            # 3.13+ spelling of the same intent).
            try:
                resource_tracker.unregister(self._shm._name, "shared_memory")
            except Exception:
                pass
            self.buf = self._shm.buf

    def close(self) -> None:
        # Views handed out by attach_view/attach_plane are built with
        # np.frombuffer, which registers a buffer export on the mmap —
        # so closing under a live view raises BufferError and the
        # mapping survives until the last view dies (np.ndarray(buffer=)
        # would NOT pin it: the munmap would succeed and the view would
        # read unmapped — or worse, recycled — memory).
        try:
            if self._shm is not None:
                self._shm.close()
            elif self._mmap is not None:
                self.buf.release()
                self._mmap.close()
        except BufferError:  # a live ndarray still aliases the map
            pass


def resolve_shm(flag: bool | None, executor_kind: str) -> bool:
    """Whether a runner should hand shards off via shared memory.

    Thread executors share the parent's address space already, so shm
    only ever applies to process pools.  ``None`` defers to the
    ``REPRO_SHM`` environment switch (default on).
    """
    if executor_kind != "process":
        return False
    if flag is None:
        env = os.environ.get("REPRO_SHM", "1").strip().lower()
        return env not in ("0", "false", "no", "off")
    return bool(flag)


def _fresh_name() -> str:
    return f"{SHM_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


class SharedArray:
    """A parent-owned ndarray materialized in a shared-memory segment.

    ``SharedArray(array)`` copies ``array`` into a fresh segment (the one
    copy the handoff pays, amortized over every shard and retry of the
    batch); :meth:`allocate` creates an uninitialized segment the result
    plane's workers fill in place.  :meth:`descriptor` is the picklable
    handle workers attach with; :meth:`dispose` is idempotent and must be
    called exactly once per batch lifetime by the owner (or the segment
    handed back to a :class:`SegmentArena` for reuse).
    """

    def __init__(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes), name=_fresh_name()
        )
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self._shm.buf)
        view[...] = array
        self.name = self._shm.name
        self.shape = array.shape
        self.dtype = array.dtype
        self.nbytes = int(array.nbytes)

    @classmethod
    def allocate(cls, shape: tuple, dtype) -> "SharedArray":
        """A zero-initialized segment of the given shape (result plane)."""
        self = cls.__new__(cls)
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, nbytes), name=_fresh_name()
        )
        self.name = self._shm.name
        self.shape = shape
        self.dtype = dtype
        self.nbytes = nbytes
        return self

    def write(self, array: np.ndarray) -> None:
        """Overwrite the segment's contents in place (arena reuse)."""
        array = np.asarray(array)
        if array.shape != self.shape or array.dtype != self.dtype:
            raise ValueError(
                f"shape/dtype mismatch: segment holds {self.shape}/{self.dtype}, "
                f"got {array.shape}/{array.dtype}"
            )
        self.view()[...] = array

    def descriptor(self) -> tuple:
        """Picklable ``(name, shape, dtype_str)`` handle for workers."""
        return (self.name, self.shape, self.dtype.str)

    def view(self) -> np.ndarray:
        """The parent's own zero-copy view of the segment."""
        return np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)

    def dispose(self) -> None:
        """Close and unlink the segment (idempotent, owner-only)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    @property
    def disposed(self) -> bool:
        return self._shm is None

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.dispose()

    def __del__(self) -> None:  # last-resort leak guard, not the contract
        try:
            self.dispose()
        except Exception:
            pass


class SegmentArena:
    """Parent-side segment reuse across consecutive same-shape batches.

    Serving runs thousands of identically-shaped batches; creating and
    unlinking a tmpfs file per batch is measurable syscall churn and
    defeats the workers' attach cache (every batch is a new name to map).
    The arena keeps disposed-into-it segments on a per-``(shape, dtype)``
    free list and hands them back with their data overwritten in place —
    same name, same file, so a worker's cached mapping stays valid.

    Thread-safe: pipelined serving acquires from multiple executor slots
    concurrently.  :meth:`discard` destroys a segment instead of pooling
    it — recovery uses it so a name a dead pool may have been writing is
    never reissued.  :meth:`drain` disposes everything (runner close).
    """

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = int(capacity)
        self._free: dict[tuple, list[SharedArray]] = {}
        self._lock = threading.Lock()
        self.reused = 0
        self.allocated = 0

    def _key(self, shape: tuple, dtype) -> tuple:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def _pop(self, key: tuple) -> SharedArray | None:
        with self._lock:
            pool = self._free.get(key)
            if pool:
                return pool.pop()
        return None

    def acquire(self, array: np.ndarray) -> SharedArray:
        """A segment holding a copy of ``array`` (reused when possible)."""
        array = np.ascontiguousarray(array)
        segment = self._pop(self._key(array.shape, array.dtype))
        if segment is not None:
            segment.write(array)
            self.reused += 1
            return segment
        self.allocated += 1
        return SharedArray(array)

    def acquire_empty(self, shape: tuple, dtype) -> SharedArray:
        """An output segment of the given shape (contents unspecified)."""
        segment = self._pop(self._key(shape, dtype))
        if segment is not None:
            self.reused += 1
            return segment
        self.allocated += 1
        return SharedArray.allocate(shape, dtype)

    def release(self, segment: SharedArray | None) -> None:
        """Return a segment to the free list (or dispose past capacity)."""
        if segment is None or segment.disposed:
            return
        key = self._key(segment.shape, segment.dtype)
        with self._lock:
            pool = self._free.setdefault(key, [])
            total = sum(len(p) for p in self._free.values())
            if total < self.capacity:
                pool.append(segment)
                return
        segment.dispose()

    def discard(self, segment: SharedArray | None) -> None:
        """Destroy a segment outright — never reissue its name."""
        if segment is not None:
            segment.dispose()

    def drain(self) -> None:
        """Dispose every pooled segment (owner teardown)."""
        with self._lock:
            pools, self._free = list(self._free.values()), {}
        for pool in pools:
            for segment in pool:
                segment.dispose()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(p) for p in self._free.values())


def _align64(n: int) -> int:
    return (n + 63) & ~63


class OperandPlane:
    """The packed engine's resident operands in one parent-owned segment.

    Layout: ``[u64 header length][pickled header][64-byte-aligned array
    data]``.  The header carries a small metadata dict plus the array
    table ``(name, offset, shape, dtype_str)``; array *data* is raw bytes
    at stable offsets, so workers reconstruct zero-copy read-only views
    with :func:`attach_plane` instead of unpickling tens of megabytes of
    operands per worker.  ``generation`` increments on every re-publish
    (``replace_engine()`` repairs); shard submissions carry the
    descriptor, and workers rebuild their cached engine when the
    generation they see changes.
    """

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        meta: dict | None = None,
        generation: int = 1,
    ) -> None:
        entries = []
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            entries.append((name, offset, arr.shape, arr.dtype.str, arr))
            offset = _align64(offset + max(1, arr.nbytes))
        header = pickle.dumps(
            {
                "meta": dict(meta or {}),
                "table": [(n, off, shape, dt) for n, off, shape, dt, _ in entries],
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        data_start = _align64(8 + len(header))
        total = data_start + max(1, offset)
        self._shm = shared_memory.SharedMemory(
            create=True, size=total, name=_fresh_name()
        )
        buf = self._shm.buf
        buf[:8] = struct.pack("<Q", len(header))
        buf[8 : 8 + len(header)] = header
        for name, off, _shape, _dt, arr in entries:
            dest = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=buf, offset=data_start + off
            )
            dest[...] = arr
        self.name = self._shm.name
        self.generation = int(generation)
        self.nbytes = int(total)

    def descriptor(self) -> tuple:
        """Picklable ``(name, generation)`` handle for worker shards."""
        return (self.name, self.generation)

    def dispose(self) -> None:
        """Close and unlink the segment (idempotent, owner-only)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def __del__(self) -> None:  # last-resort leak guard, not the contract
        try:
            self.dispose()
        except Exception:
            pass


def attach_plane(descriptor: tuple) -> tuple[dict[str, np.ndarray], dict]:
    """A worker's zero-copy read-only view of an operand plane.

    Returns ``(arrays, meta)``; every array aliases the shared segment
    and is marked non-writable.  The attachment goes through the same
    per-process LRU as shard views.
    """
    name, _generation = descriptor
    shm = _attach(name)
    (header_len,) = struct.unpack("<Q", bytes(shm.buf[:8]))
    header = pickle.loads(bytes(shm.buf[8 : 8 + header_len]))
    data_start = _align64(8 + header_len)
    arrays: dict[str, np.ndarray] = {}
    for arr_name, off, shape, dtype_str in header["table"]:
        shape = tuple(shape)
        dtype = np.dtype(dtype_str)
        # frombuffer, not np.ndarray(buffer=...): the export pins the
        # mapping for the life of the engine's operand views, so an LRU
        # eviction of this attachment cannot munmap under the engine.
        arr = np.frombuffer(
            shm.buf,
            dtype=dtype,
            count=int(np.prod(shape, dtype=np.int64)),
            offset=data_start + off,
        ).reshape(shape)
        arr.flags.writeable = False
        arrays[arr_name] = arr
    return arrays, header["meta"]


def _attach(name: str, writable: bool = False) -> _Attachment:
    """Attach to a segment by name, with a small per-process cache."""
    key = (name, writable)
    cached = _attached.get(key)
    if cached is not None:
        _attached.move_to_end(key)
        return cached
    attachment = _Attachment(name, writable=writable)
    _attached[key] = attachment
    while len(_attached) > _ATTACH_CACHE_SIZE:
        _, stale = _attached.popitem(last=False)
        stale.close()
    return attachment


def attach_view(
    descriptor: tuple, start: int, stop: int, writable: bool = False
) -> np.ndarray:
    """A worker's zero-copy view of rows ``[start, stop)``.

    Read-only by default — marked non-writable so an engine bug cannot
    corrupt shards other workers are reading.  ``writable=True`` maps the
    result plane, where each worker owns a disjoint row span.
    """
    name, shape, dtype_str = descriptor
    shm = _attach(name, writable=writable)
    shape = tuple(shape)
    dtype = np.dtype(dtype_str)
    # np.frombuffer (unlike np.ndarray(buffer=...)) registers a buffer
    # export on the mapping, so the view keeps the pages alive even if
    # the attachment is evicted from the LRU while the view is in use.
    count = int(np.prod(shape, dtype=np.int64))
    full = np.frombuffer(shm.buf, dtype=dtype, count=count).reshape(shape)
    view = full[start:stop]
    if not writable:
        view.flags.writeable = False
    return view


def evict_attachments() -> None:
    """Close every cached attachment (test isolation / worker teardown)."""
    while _attached:
        _, shm = _attached.popitem(last=False)
        shm.close()


def attached_names() -> list[str]:
    """Names currently held in the attach cache (tests/diagnostics)."""
    return [name for name, _writable in _attached.keys()]


def leaked_segments() -> list[str]:
    """Names of ``/dev/shm`` entries this module's prefix ever created.

    Empty on platforms without a ``/dev/shm`` filesystem — the leak
    check is then vacuous rather than wrong.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(SHM_PREFIX))
