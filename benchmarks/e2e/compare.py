"""``compare A.json... -- B.json...``: two sets of runs against the bounds.

For every workload and end-to-end metric it prints each set's median and
quartiles and a verdict against the bound ``BENCHMARK.json`` fixes for
that metric:

* ``regressed``: B's median is worse than A's by more than the bound;
* ``improved``: B's median is better than A's by more than the bound;
* ``unresolved``: either set's inter-quartile spread, as a share of its
  median, exceeds the bound (unless every B run beats every A run);
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

from .stats import quartiles, relative_spread
from .sut import ROOT


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_runs(paths) -> dict[str, dict[str, list[float]]]:
    """``workload -> metric -> values`` over the untraced runs in ``paths``."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        for run in record["runs"]:
            if run["traced"]:
                continue
            metrics = out.setdefault(run["workload"], {})
            for name, entry in run["metrics"].items():
                metrics.setdefault(name, []).append(float(entry["value"]))
    return out


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """The verdict for one metric; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    med_a = quartiles(a)[1]
    worse = sign * (quartiles(b)[1] - med_a) / abs(med_a) if med_a else 0.0
    if max(relative_spread(a), relative_spread(b)) > bound:
        every_b_better = all(sign * (x - y) < 0 for x in b for y in a)
        return "improved" if every_b_better else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(a_paths, b_paths, spec: dict | None = None) -> tuple[list[dict], bool]:
    """Rows of the comparison, and whether any metric regressed."""
    spec = spec if spec is not None else load_spec()
    a_runs, b_runs = load_runs(a_paths), load_runs(b_paths)
    rows = []
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in spec["end_to_end"]:
            a = a_runs[workload].get(metric["name"])
            b = b_runs[workload].get(metric["name"])
            if not a or not b:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "n": (len(a), len(b)),
                    "verdict": verdict(a, b, metric["bound"], metric["better"]),
                }
            )
    return rows, any(row["verdict"] == "regressed" for row in rows)


def render(rows: list[dict]) -> str:
    def q(values) -> str:
        q1, med, q3 = values
        return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"

    header = ("workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "bound", "verdict")
    table = [header] + [
        (
            r["workload"], r["metric"], r["unit"], q(r["a"]), q(r["b"]),
            f"{r['bound']:g}", r["verdict"],
        )
        for r in rows
    ]
    widths = [max(len(str(row[i])) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    )
