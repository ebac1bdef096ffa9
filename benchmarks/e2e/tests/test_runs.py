"""Short runs against the real system: every workload measures, and a
tampered oracle stops a run before any metric is printed."""

import json

import numpy as np
import pytest

from benchmarks.e2e import bench
from benchmarks.e2e.__main__ import main
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.sut import CorrectnessError
from benchmarks.e2e.workloads import WORKLOADS

SECONDS = 2.0


@pytest.fixture(autouse=True)
def fewer_cold_starts(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_STARTS", 2)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_untraced(name):
    outcome = bench.run_workload(WORKLOADS[name], seed=0, seconds=SECONDS, traced=False)
    assert list(outcome.metrics) == [m.name for m in END_TO_END]
    assert outcome.failed == 0 and outcome.attempted > 0
    assert all(v > 0 for v in outcome.metrics.values())
    assert outcome.metrics["ok_frac"] == 1.0
    assert len(outcome.setup_samples) == 2


@pytest.mark.parametrize("name", ["wire-light", "batch-offline"])
def test_smoke_traced(name):
    outcome = bench.run_workload(WORKLOADS[name], seed=0, seconds=SECONDS, traced=True)
    metrics = outcome.metrics
    assert list(metrics) == [m.name for m in PER_LAYER]
    assert metrics["integrity.mismatches"] == 0
    assert sum(metrics[f"packed.{s}.share"] for s in ("dvp", "biconv", "encode", "similarity")) == (
        pytest.approx(1.0)
    )
    if WORKLOADS[name].kind == "wire":
        assert metrics["client.sent"] == outcome.attempted
        assert metrics["serve.batch_size_mean"] >= 1.0
        assert len(outcome.spans) == outcome.attempted
    else:
        assert metrics["host.speed_factor"] > 0


def _tamper(monkeypatch, call: int, row: int):
    """Make the ``call``-th oracle answer wrong in one score of ``row``."""
    real = bench.oracle_scores
    calls = []

    def tampered(artifacts, levels):
        scores = real(artifacts, levels)
        if len(calls) == call:
            scores = scores.copy()
            scores[row, 0] += 1
        calls.append(1)
        return scores

    monkeypatch.setattr(bench, "oracle_scores", tampered)


@pytest.mark.parametrize(
    "name, call, row",
    [
        ("wire-light", 0, 0),  # caught at the first cold start
        ("wire-light", 0, 63),  # caught by the bank check before timing
        ("batch-offline", 0, 5),  # caught at the first cold start
        ("batch-offline", 3, 5),  # caught by the batch check after timing
    ],
)
def test_tampered_oracle_stops_the_run(monkeypatch, name, call, row):
    _tamper(monkeypatch, call, row)
    with pytest.raises(CorrectnessError):
        bench.run_workload(WORKLOADS[name], seed=0, seconds=1.0, traced=False)


def test_a_failed_gate_prints_no_metrics(monkeypatch, capsys):
    _tamper(monkeypatch, 0, 0)
    assert main(["run", "--workload", "wire-light", "--seconds", "1"]) == 1
    out = capsys.readouterr()
    assert "CorrectnessError" in out.err
    for line in out.out.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_run_prints_one_summary_line_last(capsys):
    assert main(["run", "--workload", "wire-light", "--seconds", "1"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == {
        m.name: m.unit for m in END_TO_END
    }
    assert np.isfinite([v["value"] for v in summary["metrics"].values()]).all()
