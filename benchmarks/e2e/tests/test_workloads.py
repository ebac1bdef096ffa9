"""Seeded inputs: arrivals, request banks, the tail rule, and the
agreement between the code and ``BENCHMARK.json``."""

import json

import numpy as np
import pytest

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.sut import ROOT
from benchmarks.e2e.workloads import (
    RUN_SECONDS,
    TAIL_BEYOND,
    TAIL_LADDER,
    WORKLOADS,
    arrivals,
    bank,
    offline_batches,
    rng_for,
    schedule,
    tail_percentile,
)


def test_arrivals_are_deterministic_per_seed():
    a = arrivals(500, 10.0, rng_for(3, "arrivals"))
    b = arrivals(500, 10.0, rng_for(3, "arrivals"))
    c = arrivals(500, 10.0, rng_for(4, "arrivals"))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_arrivals_have_exact_count_and_mean_rate():
    offsets = arrivals(2000, 10.0, rng_for(0, "arrivals"))
    assert offsets.shape == (2000,)
    assert np.all(np.diff(offsets) >= 0)
    assert offsets[0] >= 0.0 and offsets[-1] <= 10.0
    assert len(offsets) / 10.0 == pytest.approx(200.0)


def test_poisson_gaps_are_exponential():
    gaps = np.diff(arrivals(20000, 1000.0, rng_for(0, "arrivals")))
    assert gaps.mean() == pytest.approx(0.05, rel=0.03)
    # An exponential's coefficient of variation is 1; a grid's would be 0.
    assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.05)


def test_schedule_is_fixed_and_contents_follow_the_seed():
    workload = WORKLOADS["wire-light"]
    np.testing.assert_array_equal(
        schedule(workload, RUN_SECONDS), schedule(workload, RUN_SECONDS)
    )
    one = bank(rng_for(1, "bank"), 8, (16, 6), 256)
    np.testing.assert_array_equal(one, bank(rng_for(1, "bank"), 8, (16, 6), 256))
    assert not np.array_equal(one, bank(rng_for(2, "bank"), 8, (16, 6), 256))
    assert one.min() >= 0 and one.max() < 256
    batches = offline_batches(1, (16, 6), 256)
    assert batches.shape == (4, 256, 16, 6)


@pytest.mark.parametrize(
    "count, pct", [(40, 75.0), (100, 90.0), (400, 97.5), (600, 98.0), (2000, 99.5), (10**5, 99.9)]
)
def test_tail_percentile_keeps_ten_samples_beyond(count, pct):
    assert tail_percentile(count) == pct
    assert count * (1 - pct / 100) >= TAIL_BEYOND - 1e-9
    higher = [p for p in TAIL_LADDER if p > pct]
    if higher:
        assert count * (1 - higher[0] / 100) < TAIL_BEYOND


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == [
            (m.name, m.unit, m.better) for m in metrics
        ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for workload in WORKLOADS.values():
        assert f"tail p{workload.tail(RUN_SECONDS):g}" in workload.why
        assert workload.model_path.is_file()
