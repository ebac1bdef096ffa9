"""Service-level objectives and rolling-window error-budget accounting.

An :class:`SLO` states what "healthy" means for the serving path — a p99
latency target and an availability target over a rolling window.  An
:class:`SLOTracker` consumes one event per served request and answers
the operational questions: how much of the window's error budget is
gone, and how fast is it burning right now?

The accounting follows the standard error-budget formulation: with an
availability objective ``a``, the budget is the ``1 - a`` fraction of
requests allowed to be *bad* (failed, shed, or slower than the p99
target) inside the window.  ``budget_consumed`` is the fraction of that
allowance already used; a **burn rate** over a horizon is the bad-request
rate divided by ``1 - a``, so burn 1.0 means "spending the budget
exactly as fast as the window replenishes it" and burn 10 means the
budget dies in a tenth of the window.  Two horizons are tracked — a
fast one (minutes, pages on sudden outages) and a slow one (tens of
minutes, catches smoldering degradation) — mirroring multi-window
burn-rate alerting.

Events are counted in one-second buckets on a ring that spans the
window, so recording is O(1), a horizon query sums at most one bucket
per second of horizon, and memory is fixed by the window length instead
of growing with the request rate; windows and horizons resolve to whole
seconds.

Quarantined requests are *client* errors (the input was invalid); they
are excluded from availability and tallied separately, so a client
sending NaNs cannot burn the server's error budget.

``SLOTracker.publish`` mirrors the current state into ``slo.*`` gauges
on a metrics registry, which is how budget state reaches the serve
admin endpoint, ``repro top``, and (via the ``slo.`` ledger harvest)
``repro obs compare``'s ``--max-budget-burn`` gate.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass

__all__ = ["SLO", "SLOTracker", "SLO_NAMESPACE"]

#: Gauge namespace :meth:`SLOTracker.publish` writes and the run ledger
#: harvests into every record's metrics.
SLO_NAMESPACE = "slo."

#: Width of one accounting bucket, in seconds.
_BUCKET_S = 1.0


@dataclass(frozen=True)
class SLO:
    """Latency / availability objectives over a rolling window.

    ``p99_ms`` is the per-request latency target: a request slower than
    this is *bad* even when it answered correctly.  ``availability`` is
    the fraction of requests that must be good inside ``window_s``.
    ``fast_burn_s`` / ``slow_burn_s`` are the trailing horizons burn
    rates are computed over.
    """

    p99_ms: float = 50.0
    availability: float = 0.999
    window_s: float = 3600.0
    fast_burn_s: float = 60.0
    slow_burn_s: float = 600.0

    def __post_init__(self) -> None:
        if self.p99_ms <= 0:
            raise ValueError("p99_ms must be positive")
        if not 0.0 < self.availability < 1.0:
            raise ValueError("availability must be in (0, 1)")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if not 0.0 < self.fast_burn_s <= self.window_s:
            raise ValueError("fast_burn_s must be in (0, window_s]")
        if not 0.0 < self.slow_burn_s <= self.window_s:
            raise ValueError("slow_burn_s must be in (0, window_s]")

    @property
    def budget_fraction(self) -> float:
        """The fraction of requests allowed to be bad (``1 - availability``)."""
        return 1.0 - self.availability

    @classmethod
    def from_env(cls, environ=None) -> "SLO":
        """Objectives from ``REPRO_SLO_P99_MS`` / ``REPRO_SLO_AVAILABILITY``
        / ``REPRO_SLO_WINDOW_S`` / ``REPRO_SLO_FAST_S`` / ``REPRO_SLO_SLOW_S``
        (unset keys keep the defaults)."""
        env = os.environ if environ is None else environ

        def _get(key, default):
            raw = env.get(key)
            if raw is None or not str(raw).strip():
                return default
            try:
                return float(raw)
            except (TypeError, ValueError):
                return default

        return cls(
            p99_ms=_get("REPRO_SLO_P99_MS", cls.p99_ms),
            availability=_get("REPRO_SLO_AVAILABILITY", cls.availability),
            window_s=_get("REPRO_SLO_WINDOW_S", cls.window_s),
            fast_burn_s=_get("REPRO_SLO_FAST_S", cls.fast_burn_s),
            slow_burn_s=_get("REPRO_SLO_SLOW_S", cls.slow_burn_s),
        )

    def as_dict(self) -> dict:
        """JSON-serializable view of the objectives."""
        return {
            "p99_ms": self.p99_ms,
            "availability": self.availability,
            "window_s": self.window_s,
            "fast_burn_s": self.fast_burn_s,
            "slow_burn_s": self.slow_burn_s,
        }


class SLOTracker:
    """Rolling-window error-budget accountant (thread-safe).

    ``clock`` is injectable (monotonic seconds) so tests drive the
    window deterministically.
    """

    def __init__(self, slo: SLO | None = None, clock=time.monotonic) -> None:
        self.slo = slo if slo is not None else SLO.from_env()
        self._clock = clock
        self._lock = threading.Lock()
        n_buckets = max(1, math.ceil(self.slo.window_s / _BUCKET_S))
        # Per-bucket event counts; absolute bucket k lives at k % n_buckets.
        self._bucket_total = [0] * n_buckets
        self._bucket_bad = [0] * n_buckets
        self._head: int | None = None  # newest bucket seen
        # Window counts (maintained incrementally as buckets expire).
        self._total = 0
        self._bad = 0
        # Lifetime tallies (never pruned).
        self._latency_breaches = 0
        self._failures = 0
        self._client_errors = 0

    # -- recording ------------------------------------------------------
    def record(
        self, latency_s: float, ok: bool = True, now: float | None = None
    ) -> bool:
        """Account one served request; returns True when it was *bad*.

        A request is bad when it failed/was shed (``ok=False``) or when
        it answered slower than the p99 target.
        """
        now = self._clock() if now is None else now
        bad = (not ok) or (latency_s * 1000.0 > self.slo.p99_ms)
        with self._lock:
            slot = self._advance_locked(now) % len(self._bucket_total)
            self._bucket_total[slot] += 1
            self._total += 1
            if bad:
                self._bucket_bad[slot] += 1
                self._bad += 1
                if not ok:
                    self._failures += 1
                else:
                    self._latency_breaches += 1
        return bad

    def record_client_error(self) -> None:
        """Tally a quarantined/invalid request — never budget-relevant."""
        with self._lock:
            self._client_errors += 1

    def _advance_locked(self, now: float) -> int:
        """Expire the buckets that left the window by ``now``; returns
        the current bucket (never older than the newest one seen)."""
        current = math.floor(now / _BUCKET_S)
        head = self._head
        if head is not None:
            if current <= head:
                return head
            n_buckets = len(self._bucket_total)
            for k in range(head + 1, min(current, head + n_buckets) + 1):
                slot = k % n_buckets
                self._total -= self._bucket_total[slot]
                self._bad -= self._bucket_bad[slot]
                self._bucket_total[slot] = self._bucket_bad[slot] = 0
        self._head = current
        return current

    # -- queries --------------------------------------------------------
    def _horizon_counts_locked(self, horizon_s: float, head: int):
        """(total, bad) over the newest ``horizon_s`` seconds of buckets."""
        n_buckets = len(self._bucket_total)
        width = max(1, math.ceil(horizon_s / _BUCKET_S))
        if width >= n_buckets:
            return self._total, self._bad
        start = (head - width + 1) % n_buckets
        stop = head % n_buckets + 1
        if start < stop:
            return (
                sum(self._bucket_total[start:stop]),
                sum(self._bucket_bad[start:stop]),
            )
        return (
            sum(self._bucket_total[start:]) + sum(self._bucket_total[:stop]),
            sum(self._bucket_bad[start:]) + sum(self._bucket_bad[:stop]),
        )

    def burn_rate(
        self, horizon_s: float | None = None, now: float | None = None
    ) -> float:
        """Bad-request rate over the horizon, in budget units.

        1.0 = consuming the error budget exactly as fast as the window
        replenishes it; 0.0 = no bad requests (or no traffic at all).
        """
        now = self._clock() if now is None else now
        horizon = self.slo.window_s if horizon_s is None else horizon_s
        with self._lock:
            head = self._advance_locked(now)
            total, bad = self._horizon_counts_locked(horizon, head)
        if total == 0:
            return 0.0
        return (bad / total) / self.slo.budget_fraction

    def budget_consumed(self, now: float | None = None) -> float:
        """Fraction of the window's error budget already spent.

        Above 1.0 the SLO is violated for the current window.  0.0 with
        no traffic — an idle service burns nothing.
        """
        now = self._clock() if now is None else now
        with self._lock:
            self._advance_locked(now)
            total, bad = self._total, self._bad
        if total == 0:
            return 0.0
        allowed = total * self.slo.budget_fraction
        return bad / allowed

    def budget_remaining(self, now: float | None = None) -> float:
        """``1 - budget_consumed`` (negative when overdrawn)."""
        return 1.0 - self.budget_consumed(now)

    def state(self, now: float | None = None) -> dict:
        """Everything an admin endpoint wants, as one JSON-ready dict."""
        now = self._clock() if now is None else now
        with self._lock:
            head = self._advance_locked(now)
            total, bad = self._total, self._bad
            breaches = self._latency_breaches
            failures = self._failures
            client_errors = self._client_errors
            fast = self._horizon_counts_locked(self.slo.fast_burn_s, head)
            slow = self._horizon_counts_locked(self.slo.slow_burn_s, head)
        budget = self.slo.budget_fraction

        def _burn(counts):
            horizon_total, horizon_bad = counts
            if horizon_total == 0:
                return 0.0
            return (horizon_bad / horizon_total) / budget

        consumed = (bad / (total * budget)) if total else 0.0
        return {
            "objective": self.slo.as_dict(),
            "events": total,
            "bad_events": bad,
            "latency_breaches": breaches,
            "failures": failures,
            "client_errors": client_errors,
            "budget_consumed": consumed,
            "budget_remaining": 1.0 - consumed,
            "burn_rate_fast": _burn(fast),
            "burn_rate_slow": _burn(slow),
        }

    def publish(self, registry, now: float | None = None) -> dict:
        """Mirror the current state into ``slo.*`` gauges on ``registry``.

        The ledger harvests the ``slo.`` namespace into every record, so
        publishing right before ``record_run`` is what puts budget state
        in the ledger.  Returns the state dict it published.
        """
        state = self.state(now)
        registry.gauge("slo.events").set(state["events"])
        registry.gauge("slo.bad_events").set(state["bad_events"])
        registry.gauge("slo.latency_breaches").set(state["latency_breaches"])
        registry.gauge("slo.failures").set(state["failures"])
        registry.gauge("slo.client_errors").set(state["client_errors"])
        registry.gauge("slo.budget_consumed").set(state["budget_consumed"])
        registry.gauge("slo.budget_remaining").set(state["budget_remaining"])
        registry.gauge("slo.burn_rate_fast").set(state["burn_rate_fast"])
        registry.gauge("slo.burn_rate_slow").set(state["burn_rate_slow"])
        registry.gauge("slo.objective.p99_ms").set(state["objective"]["p99_ms"])
        registry.gauge("slo.objective.availability").set(
            state["objective"]["availability"]
        )
        return state

    def reset(self) -> None:
        """Drop all events and tallies (between benches)."""
        with self._lock:
            self._bucket_total = [0] * len(self._bucket_total)
            self._bucket_bad = [0] * len(self._bucket_bad)
            self._head = None
            self._total = self._bad = 0
            self._latency_breaches = self._failures = self._client_errors = 0
