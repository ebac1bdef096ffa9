"""SLOTracker's per-second bucket ring against a brute-force reference."""

import math

import numpy as np
import pytest

from repro.obs.slo import SLO, SLOTracker
from tests.obs.test_slo import FakeClock

SLO_100S = SLO(
    p99_ms=10.0, availability=0.9, window_s=100.0, fast_burn_s=10.0, slow_burn_s=50.0
)


def _reference(events, now, horizon_s):
    """(total, bad) over the whole seconds ``(now - horizon_s, now]``."""
    current = math.floor(now)
    picked = [bad for second, bad in events if second > current - horizon_s]
    return len(picked), sum(picked)


def _burn(counts):
    total, bad = counts
    return (bad / total) / SLO_100S.budget_fraction if total else 0.0


def test_ring_matches_brute_force_across_many_windows():
    rng = np.random.default_rng(0)
    clock = FakeClock()
    tracker = SLOTracker(SLO_100S, clock=clock)
    events = []
    checked = 0
    for _ in range(3000):
        # ~450 s of traffic: the ring wraps four times over
        clock.t += rng.exponential(0.15)
        ok = bool(rng.random() > 0.2)
        slow = bool(rng.random() < 0.1)
        tracker.record(0.050 if slow else 0.001, ok=ok)
        events.append((math.floor(clock.t), (not ok) or slow))
        if rng.random() < 0.05:
            checked += 1
            state = tracker.state()
            total, bad = _reference(events, clock.t, SLO_100S.window_s)
            assert (state["events"], state["bad_events"]) == (total, bad)
            fast = _reference(events, clock.t, SLO_100S.fast_burn_s)
            slow_h = _reference(events, clock.t, SLO_100S.slow_burn_s)
            assert state["burn_rate_fast"] == pytest.approx(_burn(fast))
            assert state["burn_rate_slow"] == pytest.approx(_burn(slow_h))
    assert checked > 50


def test_idle_gap_longer_than_the_window_empties_it():
    clock = FakeClock(5.0)
    tracker = SLOTracker(SLO_100S, clock=clock)
    for _ in range(20):
        tracker.record(0.001, ok=False)
    clock.t += 10 * SLO_100S.window_s
    tracker.record(0.001)
    state = tracker.state()
    assert state["events"] == 1 and state["bad_events"] == 0
    assert state["burn_rate_fast"] == 0.0
    assert state["failures"] == 20  # lifetime tallies survive
