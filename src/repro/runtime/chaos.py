"""Chaos fault injection for the serving path.

The resilience layer (:mod:`repro.runtime.resilience`) claims the batch
runtime survives worker exceptions, latency spikes, and transient
packed-word corruption.  This module is the harness that makes
those claims testable: a :class:`ChaosSpec` describes a fault workload
(``REPRO_CHAOS="raise:0.05,delay:10ms,bitflip:1e-4"``) and the runner
opens a :func:`chaos_context` around every shard attempt, which

* raises :class:`ChaosError` with probability ``raise``,
* sleeps ``delay`` before the shard computes, and
* flips packed words at the kernel seam at per-bit rate ``bitflip``
  while the shard computes (single-event-upset semantics, the transient
  sibling of :func:`repro.hw.faults.inject_bit_flips`'s stored-memory
  corruption).

Two further directives target the *state* plane rather than shard
execution, and are consumed by :mod:`repro.runtime.integrity`:
``corrupt:P`` flips bits in the engine's resident operand memory between
micro-batches (the serve layer's scrub/repair loop is what recovers),
and ``truncate`` damages every archive ``UniVSAArtifacts.save`` writes
(exercising the torn-store detection of the checksummed loader).

Every decision is drawn from ``np.random.default_rng((seed, shard,
attempt))`` — deterministic per shard *attempt* regardless of thread
scheduling, so a retried shard re-rolls its fate and a chaos run
is exactly reproducible under a fixed seed.

Bit flips are injected by swapping in a wrapped :class:`KernelSet`
(:func:`chaos_kernels`) whose ``popcount8`` consults a thread-local
:class:`ShardChaos`; outside a chaos context the wrapper is a
passthrough, so concurrent non-chaos work on other threads is never
corrupted.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.vsa.kernels import WORD_BITS, KernelSet, get_kernels, wrap_kernels

__all__ = [
    "ChaosError",
    "ChaosSpec",
    "ShardChaos",
    "chaos_context",
    "chaos_kernels",
    "flip_words",
    "parse_chaos",
]


class ChaosError(RuntimeError):
    """The exception the ``raise`` chaos directive injects."""


def _parse_duration(text: str) -> float:
    """``"10ms"`` / ``"0.5s"`` / ``"250us"`` / bare seconds -> seconds."""
    text = text.strip().lower()
    for suffix, scale in (("us", 1e-6), ("ms", 1e-3), ("s", 1.0)):
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * scale
    return float(text)


@dataclass(frozen=True)
class ChaosSpec:
    """One parsed chaos workload.

    ``raise_rate`` / ``bitflip_rate`` are probabilities (per shard
    attempt; per bit for ``bitflip``); ``delay_s`` is a fixed latency
    added to every shard attempt.  The ``*_on`` sets pin faults to exact
    ``(shard, attempt)`` pairs — the surgical injection the regression
    tests use ("fail the middle shard's first attempt").
    """

    raise_rate: float = 0.0
    delay_s: float = 0.0
    bitflip_rate: float = 0.0
    seed: int = 0
    raise_on: frozenset = field(default_factory=frozenset)
    delay_on: frozenset = field(default_factory=frozenset)
    corrupt_rate: float = 0.0
    truncate: bool = False

    def __post_init__(self) -> None:
        for name in ("raise_rate", "bitflip_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_s < 0.0:
            raise ValueError(f"delay must be >= 0, got {self.delay_s}")

    @property
    def enabled(self) -> bool:
        """True when any fault can fire."""
        return bool(
            self.raise_rate
            or self.delay_s
            or self.bitflip_rate
            or self.corrupt_rate
            or self.truncate
            or self.raise_on
            or self.delay_on
        )

    @property
    def targeted(self) -> bool:
        """True when faults are pinned to explicit (shard, attempt) pairs."""
        return bool(self.raise_on or self.delay_on)

    def as_dict(self) -> dict:
        """JSON-friendly view (reports / ledger records)."""
        return {
            "raise": self.raise_rate,
            "delay_s": self.delay_s,
            "bitflip": self.bitflip_rate,
            "corrupt": self.corrupt_rate,
            "truncate": self.truncate,
            "seed": self.seed,
            "targeted": self.targeted,
        }

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str | None, seed: int = 0) -> "ChaosSpec":
        """Parse the ``REPRO_CHAOS`` grammar.

        Comma-separated ``directive:value`` pairs; directives are
        ``raise`` (probability), ``delay`` (duration, e.g. ``10ms``),
        ``bitflip`` (per-bit rate), ``corrupt`` (probability per micro-batch of flipping bits in resident
        artifact memory — see :mod:`repro.runtime.integrity`),
        ``truncate`` (bare flag: damage archives as they are saved), and
        ``seed`` (overrides the ``seed`` argument).  Empty/None parses
        disabled.
        """
        if not text or not text.strip():
            return cls(seed=seed)
        values: dict = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                if part.lower() == "truncate":
                    values["truncate"] = True
                    continue
                raise ValueError(
                    f"bad chaos directive {part!r}; expected 'name:value'"
                )
            name, _, raw = part.partition(":")
            name = name.strip().lower()
            if name == "raise":
                values["raise_rate"] = float(raw)
            elif name == "delay":
                values["delay_s"] = _parse_duration(raw)
            elif name == "bitflip":
                values["bitflip_rate"] = float(raw)
            elif name == "corrupt":
                values["corrupt_rate"] = float(raw)
            elif name == "truncate":
                values["truncate"] = raw.strip().lower() in ("1", "true", "yes", "on")
            elif name == "seed":
                values["seed"] = int(raw)
            else:
                raise ValueError(
                    f"unknown chaos directive {name!r}; expected "
                    "raise/delay/bitflip/corrupt/truncate/seed"
                )
        values.setdefault("seed", seed)
        return cls(**values)

    @classmethod
    def from_env(cls, environ=None) -> "ChaosSpec":
        """Spec from ``REPRO_CHAOS`` / ``REPRO_CHAOS_SEED`` (disabled default)."""
        env = os.environ if environ is None else environ
        seed = 0
        raw_seed = env.get("REPRO_CHAOS_SEED")
        if raw_seed:
            try:
                seed = int(raw_seed)
            except ValueError:
                pass
        return cls.parse(env.get("REPRO_CHAOS"), seed=seed)


def parse_chaos(text: str | None, seed: int = 0) -> ChaosSpec:
    """Module-level alias for :meth:`ChaosSpec.parse`."""
    return ChaosSpec.parse(text, seed=seed)


# ---------------------------------------------------------------------------
# per-shard-attempt fault state
# ---------------------------------------------------------------------------
class ShardChaos:
    """The chaos decisions for one (shard, attempt) execution."""

    __slots__ = ("spec", "shard", "attempt", "rng")

    def __init__(self, spec: ChaosSpec, shard: int, attempt: int) -> None:
        self.spec = spec
        self.shard = shard
        self.attempt = attempt
        self.rng = np.random.default_rng((spec.seed, shard, attempt))

    def fire_entry_faults(self) -> None:
        """Delay, then raise, at shard entry.

        One rng drives every probabilistic draw, in a fixed order, so the
        decision sequence is a pure function of (seed, shard, attempt).
        """
        spec = self.spec
        key = (self.shard, self.attempt)
        if key in spec.delay_on or spec.delay_s:
            time.sleep(spec.delay_s if spec.delay_s else 0.05)
        if key in spec.raise_on or (
            spec.raise_rate and self.rng.random() < spec.raise_rate
        ):
            raise ChaosError(
                f"injected failure (shard={self.shard}, attempt={self.attempt})"
            )

    def flip(self, words: np.ndarray) -> np.ndarray:
        """Transient bit flips on packed words at the configured rate."""
        return flip_words(words, self.spec.bitflip_rate, self.rng)


def flip_words(words: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Flip bits of uint64 ``words`` at per-bit ``rate``; returns a copy.

    Flip positions are drawn with replacement from a binomial count — at
    the SEU-scale rates chaos uses (<= 1e-3) collisions are negligible
    and the cost stays O(size + flips) instead of O(size * 64).
    """
    if rate <= 0.0:
        return words
    out = np.ascontiguousarray(words, dtype=np.uint64).copy()
    flat = out.reshape(-1)
    n_bits = flat.size * WORD_BITS
    n_flips = int(rng.binomial(n_bits, min(rate, 1.0)))
    if n_flips:
        positions = rng.integers(0, n_bits, size=n_flips)
        masks = np.uint64(1) << (positions % WORD_BITS).astype(np.uint64)
        np.bitwise_xor.at(flat, positions // WORD_BITS, masks)
    return out


_chaos_local = threading.local()


def active_shard_chaos() -> ShardChaos | None:
    """The :class:`ShardChaos` of the current thread's open context."""
    return getattr(_chaos_local, "state", None)


class chaos_context:
    """Install per-shard chaos for the ``with`` body (current thread).

    Entry fires the delay/raise faults; while the body runs the
    thread-local state makes :func:`chaos_kernels` wrappers flip packed
    words.  A disabled spec costs one attribute write.
    """

    __slots__ = ("state", "_previous")

    def __init__(self, spec: ChaosSpec | None, shard: int, attempt: int) -> None:
        self.state = (
            ShardChaos(spec, shard, attempt) if spec is not None and spec.enabled else None
        )

    def __enter__(self) -> "chaos_context":
        self._previous = getattr(_chaos_local, "state", None)
        _chaos_local.state = self.state
        if self.state is not None:
            try:
                self.state.fire_entry_faults()
            except BaseException:
                # __exit__ never runs when __enter__ raises; restore the
                # previous state here or the injected fault leaks chaos
                # into every later block on this thread.
                _chaos_local.state = self._previous
                raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _chaos_local.state = self._previous
        return False


# ---------------------------------------------------------------------------
# the kernel seam
# ---------------------------------------------------------------------------
def chaos_kernels(base: KernelSet | None = None) -> KernelSet:
    """A kernel set whose popcount flips bits under an open chaos context.

    Wraps ``base`` (default: the active set) so that every popcount input
    — the XOR'd operand words of the conv/encode/similarity stages — is
    corrupted at the context's ``bitflip`` rate first.  Without an open
    context the wrapper forwards untouched, so installing it globally is
    safe around concurrent non-chaos work.  An already-wrapped set is
    returned as-is: wrapping twice would double the effective flip
    rate.
    """
    if base is None:
        base = get_kernels()
    if base.name.endswith("+chaos"):
        return base

    inner = base.popcount8

    def popcount8(words: np.ndarray) -> np.ndarray:
        state = getattr(_chaos_local, "state", None)
        if state is not None and state.spec.bitflip_rate > 0.0:
            words = state.flip(words)
        return inner(words)

    return wrap_kernels(base, popcount8=popcount8, suffix="+chaos")
