"""Artifact integrity and self-healing repair for the serving path.

The resilience layer defends *execution* (retries, fallbacks, breakers);
this module defends the *model state itself*, in three rings:

1. **Checksummed artifact store.**  :func:`save_archive` writes an
   ``.npz`` with an embedded versioned manifest — per-array sha256 (over
   dtype + shape + bytes), config hash, format version — atomically:
   temp file in the destination directory, fsync, ``os.replace``.  A
   crash mid-write leaves the previous archive intact, never a torn one.
   :func:`load_archive_arrays` verifies every digest on the way in and
   raises a typed :class:`ArtifactCorruptionError` naming the damaged
   array (``verify=False`` is the forensic escape hatch).  ``python -m
   repro verify-artifacts`` fronts :func:`verify_archive`.

2. **In-memory scrubbing with hot repair.**  A deployed
   :class:`~repro.core.inference.BitPackedUniVSA` keeps its operands
   resident for hours — value-volume bytes, conv operand words, packed
   class vectors, thresholds — and a single-event upset in any of them
   silently skews every later answer.  :class:`IntegrityScrubber` takes
   golden digests over those operands at build time; each
   :meth:`~IntegrityScrubber.scrub` re-hashes and, on mismatch, repairs
   by rebuilding the engine from a verified source (the on-disk archive,
   or a pristine in-memory copy retained at construction) and hot-swaps
   it into the live runner — serving continues, no restart.  The
   soft-vote margin mean of the corrupted window is published so the
   ledger quantifies the quality dip the Θ-way voting redundancy
   absorbed (the graceful-degradation property the paper's Eq. 4
   provides).

3. **Chaos seams.**  :func:`maybe_corrupt_resident` implements the
   ``corrupt:P`` directive (between micro-batches, with probability
   ``P``, flip a handful of bits in one resident operand);
   :func:`damage_archive` implements ``truncate`` (tear the just-saved
   archive).  Both draw from the reproducible
   ``np.random.default_rng((seed, domain, index))`` chaos grammar.

Everything lands in ``integrity.*`` instruments (scrubs, mismatches,
repairs, corrupt bits, margin gauges) which the run ledger harvests into
every record.
"""

from __future__ import annotations

import json
import hashlib
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs import MARGIN_HISTOGRAM, get_registry
from repro.obs.ledger import config_hash

from .chaos import ChaosSpec

__all__ = [
    "ARCHIVE_FORMAT_VERSION",
    "MANIFEST_KEY",
    "ArtifactCorruptionError",
    "IntegrityScrubber",
    "ScrubReport",
    "array_digest",
    "build_manifest",
    "corrupt_stored_array",
    "damage_archive",
    "flip_resident_bits",
    "load_archive_arrays",
    "maybe_corrupt_resident",
    "resident_digests",
    "save_archive",
    "verify_archive",
    "verify_manifest",
]

#: Bumped whenever the archive layout changes incompatibly.
ARCHIVE_FORMAT_VERSION = 1

#: npz entry holding the JSON manifest (as uint8 bytes) — the archive is
#: self-contained, no sidecar file to lose or mismatch.
MANIFEST_KEY = "__manifest__"

#: rng stream domains, so corrupt / damage draws never collide with the
#: shard-attempt streams of :mod:`repro.runtime.chaos`.
_CORRUPT_DOMAIN = 0xC0BB
_DAMAGE_DOMAIN = 0xDA4A


class ArtifactCorruptionError(RuntimeError):
    """A checksummed artifact failed verification.

    ``array`` names the damaged entry (``None`` when the archive itself
    is unreadable — e.g. a torn write the zip layer rejects).  Digest
    failures can be bypassed with ``load(verify=False)`` for forensics;
    an unreadable archive cannot.
    """

    def __init__(self, reason: str, *, path=None, array: str | None = None) -> None:
        self.reason = reason
        self.path = None if path is None else str(path)
        self.array = array
        parts = [reason]
        if array is not None:
            parts.append(f"array={array!r}")
        if path is not None:
            parts.append(f"path={self.path}")
        super().__init__("; ".join(parts))


# ---------------------------------------------------------------------------
# digests and manifests
# ---------------------------------------------------------------------------
def array_digest(array: np.ndarray) -> str:
    """sha256 over an array's dtype, shape, and raw bytes.

    Dtype and shape are folded in so a reinterpretation (same bytes,
    different view) never passes as the original.
    """
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode("ascii"))
    digest.update(repr(tuple(array.shape)).encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()


def build_manifest(arrays: dict, config=None) -> dict:
    """The versioned integrity manifest for a dict of named arrays."""
    return {
        "format_version": ARCHIVE_FORMAT_VERSION,
        "config_hash": None if config is None else config_hash(config),
        "arrays": {
            name: {
                "sha256": array_digest(np.asarray(array)),
                "dtype": np.asarray(array).dtype.str,
                "shape": list(np.asarray(array).shape),
            }
            for name, array in sorted(arrays.items())
        },
    }


def verify_manifest(arrays: dict, manifest: dict, path=None) -> None:
    """Check ``arrays`` against ``manifest``; raise naming the bad array."""
    version = manifest.get("format_version")
    if version != ARCHIVE_FORMAT_VERSION:
        raise ArtifactCorruptionError(
            f"unsupported manifest format_version {version!r} "
            f"(this build reads {ARCHIVE_FORMAT_VERSION})",
            path=path,
        )
    declared = manifest.get("arrays")
    if not isinstance(declared, dict) or not declared:
        raise ArtifactCorruptionError(
            "manifest declares no arrays", path=path, array=MANIFEST_KEY
        )
    missing = sorted(set(declared) - set(arrays))
    if missing:
        raise ArtifactCorruptionError(
            "archive is missing a declared array", path=path, array=missing[0]
        )
    extra = sorted(set(arrays) - set(declared))
    if extra:
        raise ArtifactCorruptionError(
            "archive carries an undeclared array", path=path, array=extra[0]
        )
    for name in sorted(declared):
        expected = declared[name].get("sha256")
        actual = array_digest(arrays[name])
        if actual != expected:
            raise ArtifactCorruptionError(
                f"digest mismatch (manifest {str(expected)[:12]}…, "
                f"stored {actual[:12]}…)",
                path=path,
                array=name,
            )


# ---------------------------------------------------------------------------
# atomic checksummed archive I/O
# ---------------------------------------------------------------------------
def _final_path(path) -> Path:
    """Replicate ``np.savez``'s suffix rule so old call sites keep their
    on-disk names: a path without ``.npz`` gets it appended."""
    text = str(path)
    return Path(text if text.endswith(".npz") else text + ".npz")


def save_archive(path, arrays: dict, config=None) -> Path:
    """Atomically write a checksummed ``.npz``; returns the final path.

    The manifest is embedded under :data:`MANIFEST_KEY`.  The write goes
    to a temp file in the destination directory, is fsync'd, then
    renamed over the target — so readers only ever see the previous
    complete archive or the new complete archive, never a torn one.

    Honors the chaos ``truncate`` directive (``REPRO_CHAOS=truncate``):
    after the atomic rename the archive is deliberately damaged, which
    is how recovery-from-torn-store paths are exercised end to end.
    """
    final = _final_path(path)
    payload = dict(arrays)
    manifest = build_manifest(arrays, config=config)
    payload[MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    directory = final.parent if str(final.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=str(directory), prefix=final.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, final)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    try:
        # Make the rename itself durable (best effort — not every
        # filesystem lets a directory be fsync'd).
        dir_fd = os.open(str(directory), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    spec = ChaosSpec.from_env()
    if spec.truncate:
        damage_archive(final, seed=spec.seed)
    return final


def load_archive_arrays(path, verify: bool = True) -> dict:
    """Read every array out of a checksummed archive.

    With ``verify=True`` (the default) the embedded manifest is checked
    and any damage raises :class:`ArtifactCorruptionError` naming the
    bad array; an archive the zip layer cannot even open (torn write)
    raises the same typed error with ``array=None``.  ``verify=False``
    skips manifest checks entirely — including for pre-manifest
    archives, which otherwise fail with a typed "no manifest" error.
    """
    try:
        with np.load(str(path), allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, KeyError, OSError, EOFError) as exc:
        raise ArtifactCorruptionError(
            f"unreadable archive ({type(exc).__name__}: {exc}); "
            "likely a torn or truncated write",
            path=path,
        ) from exc
    manifest_raw = arrays.pop(MANIFEST_KEY, None)
    if not verify:
        return arrays
    if manifest_raw is None:
        raise ArtifactCorruptionError(
            "archive carries no integrity manifest (pre-manifest format?); "
            "pass verify=False to load it unchecked",
            path=path,
        )
    try:
        manifest = json.loads(bytes(bytearray(manifest_raw)))
    except (TypeError, ValueError) as exc:
        raise ArtifactCorruptionError(
            f"undecodable manifest ({exc})", path=path, array=MANIFEST_KEY
        ) from exc
    verify_manifest(arrays, manifest, path=path)
    return arrays


def verify_archive(path) -> dict:
    """Full verification report for ``repro verify-artifacts``.

    Raises :class:`ArtifactCorruptionError` on any damage; on success
    returns ``{"path", "format_version", "config_hash", "arrays": {name:
    {"sha256", "dtype", "shape"}}, "ok": True}``.
    """
    arrays = load_archive_arrays(path, verify=True)
    manifest = build_manifest(arrays)
    return {
        "path": str(path),
        "format_version": ARCHIVE_FORMAT_VERSION,
        "config_hash": _stored_config_hash(path),
        "arrays": manifest["arrays"],
        "ok": True,
    }


def _stored_config_hash(path) -> str | None:
    try:
        with np.load(str(path), allow_pickle=False) as archive:
            raw = archive[MANIFEST_KEY]
        return json.loads(bytes(bytearray(raw))).get("config_hash")
    except Exception:  # noqa: BLE001 — the hash is advisory in the report
        return None


# ---------------------------------------------------------------------------
# deliberate damage (chaos truncate / tests / CI)
# ---------------------------------------------------------------------------
def damage_archive(path, seed: int = 0, mode: str = "truncate") -> None:
    """Deterministically damage a saved archive.

    ``mode="truncate"`` cuts the file mid-zip — the torn-write failure
    the atomic rename otherwise makes impossible.  ``mode="flip"`` XORs
    one byte in place, keeping the length.  Both reproduce exactly under
    ``seed`` (the chaos grammar's promise).
    """
    path = Path(str(path))
    data = path.read_bytes()
    if not data:
        return
    rng = np.random.default_rng((seed, _DAMAGE_DOMAIN))
    if mode == "truncate":
        keep = max(1, int(len(data) * float(rng.uniform(0.3, 0.7))))
        path.write_bytes(data[:keep])
    elif mode == "flip":
        damaged = bytearray(data)
        position = int(rng.integers(len(damaged)))
        damaged[position] ^= 1 << int(rng.integers(8))
        path.write_bytes(bytes(damaged))
    else:
        raise ValueError(f"unknown damage mode {mode!r}; expected truncate/flip")


def corrupt_stored_array(path, name: str | None = None, seed: int = 0) -> str:
    """Flip one element of one stored array, keeping the stale manifest.

    Produces a *readable* archive whose digest check fails on exactly the
    returned array name — the precise failure ``verify-artifacts`` and
    the regression tests assert on (vs :func:`damage_archive`, which
    makes the whole zip unreadable).
    """
    with np.load(str(path), allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files}
    rng = np.random.default_rng((seed, _DAMAGE_DOMAIN, 1))
    candidates = sorted(key for key in payload if key != MANIFEST_KEY)
    if name is None:
        name = candidates[int(rng.integers(len(candidates)))]
    elif name not in payload:
        raise KeyError(f"archive has no array {name!r}")
    target = payload[name] = payload[name].copy()
    flat = target.reshape(-1)
    position = int(rng.integers(flat.size))
    if flat.dtype == np.bool_:
        flat[position] = ~flat[position]
    elif np.issubdtype(flat.dtype, np.integer):
        flat[position] = np.bitwise_xor(flat[position], flat.dtype.type(1))
    else:
        flat[position] = flat[position] + 1.0
    np.savez(str(path), **payload)
    return name


# ---------------------------------------------------------------------------
# resident-memory corruption (chaos corrupt:P) and golden digests
# ---------------------------------------------------------------------------
def resident_digests(engine) -> dict:
    """Golden digests over every resident operand of a packed engine."""
    return {
        name: array_digest(array)
        for name, array in engine.resident_operands().items()
    }


def _corruptible_operands(engine) -> dict:
    """Resident operands eligible for bit flips: integer/bool memories,
    deduplicated by identity (thresholds alias their artifact arrays)."""
    out: dict[str, np.ndarray] = {}
    seen: set[int] = set()
    for name, array in engine.resident_operands().items():
        if array.dtype.kind not in "bui" or array.size == 0:
            continue
        if id(array) in seen:
            continue
        seen.add(id(array))
        out[name] = array
    return out


def _flip_bits_in(array: np.ndarray, rng: np.random.Generator, n_flips: int) -> int:
    """XOR ``n_flips`` random bit positions of ``array``'s raw bytes."""
    if n_flips <= 0:
        return 0
    buffer = array if array.flags.c_contiguous else np.ascontiguousarray(array)
    flat = buffer.reshape(-1).view(np.uint8)
    positions = rng.integers(0, flat.size * 8, size=n_flips)
    masks = (1 << (positions % 8)).astype(np.uint8)
    np.bitwise_xor.at(flat, positions // 8, masks)
    if buffer is not array:
        array[...] = buffer
    return n_flips


def flip_resident_bits(
    engine,
    rng: np.random.Generator,
    n_flips: int | None = None,
    rate: float | None = None,
) -> dict:
    """Flip bits of the engine's resident operands *in place*.

    Exactly one dose selector: ``n_flips`` concentrates that many flips
    in one randomly chosen operand (the chaos ``corrupt`` shape — a
    localized upset burst), while ``rate`` flips at a per-bit rate
    across *every* corruptible operand (the ``fault_sweep`` shape).
    Returns ``{operand name: flips applied}``.
    """
    if (n_flips is None) == (rate is None):
        raise ValueError("pass exactly one of n_flips or rate")
    targets = _corruptible_operands(engine)
    if not targets:
        return {}
    applied: dict[str, int] = {}
    if rate is not None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        for name in sorted(targets):
            array = targets[name]
            count = _flip_bits_in(array, rng, int(round(rate * array.nbytes * 8)))
            if count:
                applied[name] = count
    else:
        names = sorted(targets)
        name = names[int(rng.integers(len(names)))]
        count = _flip_bits_in(targets[name], rng, int(n_flips))
        if count:
            applied[name] = count
    return applied


def maybe_corrupt_resident(engine, spec: ChaosSpec, batch_index: int) -> dict:
    """The chaos ``corrupt:P`` seam, fired between micro-batches.

    With probability ``spec.corrupt_rate``, flips 1–32 bits in one
    resident operand.  Every draw comes from ``default_rng((seed,
    domain, batch_index))`` so a chaos serving run corrupts the same
    memory at the same batches under a fixed seed.  Returns the applied
    flips (empty when the draw passes).
    """
    if spec is None or not spec.corrupt_rate:
        return {}
    rng = np.random.default_rng((spec.seed, _CORRUPT_DOMAIN, batch_index))
    if rng.random() >= spec.corrupt_rate:
        return {}
    applied = flip_resident_bits(engine, rng, n_flips=int(rng.integers(1, 33)))
    registry = get_registry()
    registry.counter("integrity.corruptions").add(1)
    registry.counter("integrity.corrupt_bits").add(sum(applied.values()))
    return applied


# ---------------------------------------------------------------------------
# the scrubber
# ---------------------------------------------------------------------------
@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    scanned: int
    corrupted: list
    repaired: bool
    repair_source: str = ""
    margin_window_mean: float | None = None
    wall_s: float = 0.0
    error: str = ""

    @property
    def clean(self) -> bool:
        """True when every resident operand matched its golden digest."""
        return not self.corrupted

    def as_dict(self) -> dict:
        """JSON-friendly view (admin endpoint / CI assertions)."""
        return {
            "scanned": self.scanned,
            "corrupted": list(self.corrupted),
            "clean": self.clean,
            "repaired": self.repaired,
            "repair_source": self.repair_source,
            "margin_window_mean": self.margin_window_mean,
            "wall_s": self.wall_s,
            "error": self.error,
        }


class IntegrityScrubber:
    """Golden-digest scrubbing with hot repair for a live engine.

    ``target`` is either a bare :class:`~repro.core.inference
    .BitPackedUniVSA` or a runner exposing ``.engine`` and
    ``.replace_engine`` (:class:`~repro.runtime.resilience
    .ResilientBatchRunner`) — with a runner, a repair hot-swaps the
    rebuilt engine into live serving (legacy fallback reset) without
    dropping a single accepted request.

    ``source`` selects where a repair gets truth from: a path repairs
    from the verified on-disk archive (``UniVSAArtifacts.load(...,
    verify=True)``); ``None`` retains a pristine deep copy of the
    artifact arrays at construction and repairs from memory.  Either
    way the rebuilt engine must reproduce the golden digests exactly —
    a source that drifted from the deployed model is refused rather
    than silently swapped in.
    """

    def __init__(self, target, source=None) -> None:
        self._runner = target if hasattr(target, "replace_engine") else None
        engine = target.engine if self._runner is not None else target
        self._engine = engine
        self._mode = engine.mode
        self._conv_tile_mb = engine.conv_tile_mb
        self.source = None if source is None else Path(str(source))
        self._pristine = (
            _copy_artifact_arrays(engine.artifacts) if self.source is None else None
        )
        self.golden = resident_digests(engine)
        self._margin_mark = self._margin_snapshot()
        self.last_report: ScrubReport | None = None

    @property
    def engine(self):
        """The live engine (tracks hot swaps through the runner)."""
        return self._runner.engine if self._runner is not None else self._engine

    # -- scrub pass -----------------------------------------------------
    def scrub(self) -> ScrubReport:
        """Re-hash every resident operand; detect, repair, and report.

        Callers serialize scrubs against batch execution themselves (the
        serve layer runs both on its single batch-executor thread), so a
        repair never swaps an engine out from under an in-flight batch.
        """
        registry = get_registry()
        registry.counter("integrity.scrubs").add(1)
        start = time.perf_counter()
        current = resident_digests(self.engine)
        corrupted = sorted(
            name
            for name, digest in self.golden.items()
            if current.get(name) != digest
        )
        window_mean = self._margin_window_mean()
        repaired = False
        repair_source = ""
        error = ""
        if corrupted:
            registry.counter("integrity.mismatches").add(1)
            registry.counter("integrity.corrupt_arrays").add(len(corrupted))
            if window_mean is not None:
                # Mean soft-vote margin of the answers produced since the
                # previous scrub — i.e. during the corrupted window.  The
                # dip vs integrity.margin_window_mean is how much quality
                # the Θ-way voting redundancy absorbed before repair.
                registry.gauge("integrity.margin_corrupt_window").set(window_mean)
            try:
                repair_source = self._repair()
                repaired = True
                registry.counter("integrity.repairs").add(1)
            except Exception as exc:  # noqa: BLE001 — scrubbing must not kill serving
                error = f"{type(exc).__name__}: {exc}"
                registry.counter("integrity.repair_failures").add(1)
        elif window_mean is not None:
            registry.gauge("integrity.margin_window_mean").set(window_mean)
        self._margin_mark = self._margin_snapshot()
        report = ScrubReport(
            scanned=len(self.golden),
            corrupted=corrupted,
            repaired=repaired,
            repair_source=repair_source,
            margin_window_mean=window_mean,
            wall_s=time.perf_counter() - start,
            error=error,
        )
        self.last_report = report
        return report

    def _repair(self) -> str:
        """Rebuild the engine from the verified source and hot-swap it."""
        from repro.core.export import UniVSAArtifacts
        from repro.core.inference import BitPackedUniVSA

        if self.source is not None:
            artifacts = UniVSAArtifacts.load(self.source, verify=True)
            kind = f"disk:{self.source}"
        else:
            artifacts = _copy_artifact_arrays(self._pristine)
            kind = "memory"
        engine = BitPackedUniVSA(
            artifacts, mode=self._mode, conv_tile_mb=self._conv_tile_mb
        )
        if resident_digests(engine) != self.golden:
            raise ArtifactCorruptionError(
                "repair source does not reproduce the golden operand digests "
                "(different model, or the source itself decayed)",
                path=self.source,
            )
        if self._runner is not None:
            self._runner.replace_engine(engine)
        self._engine = engine
        return kind

    # -- margin bookkeeping ---------------------------------------------
    @staticmethod
    def _margin_snapshot() -> tuple:
        registry = get_registry()
        if not registry.enabled:
            return (0, 0.0)
        summary = registry.histogram(MARGIN_HISTOGRAM).summary()
        return (int(summary.get("count", 0)), float(summary.get("total", 0.0)))

    def _margin_window_mean(self) -> float | None:
        count, total = self._margin_snapshot()
        mark_count, mark_total = self._margin_mark
        if count <= mark_count:
            return None
        return (total - mark_total) / (count - mark_count)

    # -- admin plane ----------------------------------------------------
    def status(self) -> dict:
        """Live scrubber state for the serve admin endpoint."""
        return {
            "arrays": len(self.golden),
            "source": "memory" if self.source is None else str(self.source),
            "last": None if self.last_report is None else self.last_report.as_dict(),
        }


def _copy_artifact_arrays(artifacts):
    """Shallow-copy artifacts with every array deep-copied.

    The pristine master and the live engine must never alias: a flip in
    resident memory may hit an artifact array directly, and repairing
    from an aliased copy would faithfully restore the corruption.
    """
    import copy

    clone = copy.copy(artifacts)
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
        array = getattr(artifacts, name)
        if array is not None:
            setattr(clone, name, np.array(array, copy=True))
    return clone
