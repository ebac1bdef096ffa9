"""Verdicts of ``compare`` against the bounds."""

import json

import pytest

from benchmarks.e2e.__main__ import main
from benchmarks.e2e.compare import compare, verdict


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([100, 101, 99, 100], [101, 100, 102, 100], "higher", "unchanged"),
        ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "regressed"),
        ([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "lower", "regressed"),
        ([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], "lower", "improved"),
        # Spread wider than the bound: no verdict either way...
        ([10, 14, 7, 12, 9], [11, 15, 8, 13, 10], "lower", "unresolved"),
        # ...unless every new run beats every old one.
        ([10, 14, 7, 12, 9], [5, 6, 5.5, 6.5, 6], "lower", "improved"),
    ],
)
def test_verdicts(a, b, better, expected):
    assert verdict(a, b, bound=0.1, better=better) == expected


def _record(path, workload, values):
    runs = [
        {
            "workload": workload,
            "traced": False,
            "metrics": {"p50_ms": {"value": v, "unit": "ms"}},
        }
        for v in values
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_reads_records_and_flags_regressions(tmp_path, capsys):
    a = _record(tmp_path / "a.json", "wire-light", [50.0, 50.2, 49.9])
    same = _record(tmp_path / "same.json", "wire-light", [50.1, 49.8, 50.0])
    slow = _record(tmp_path / "slow.json", "wire-light", [70.0, 70.5, 69.8])
    rows, regressed = compare([a], [same])
    assert [(r["metric"], r["verdict"]) for r in rows] == [("p50_ms", "unchanged")]
    assert not regressed
    assert main(["compare", str(a), "--", str(slow)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert main(["compare", str(a), str(same)]) == 2
