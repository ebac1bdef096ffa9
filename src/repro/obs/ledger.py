"""Persistent run ledger + perf/accuracy regression gate.

Every benchmark / profile / training / search run appends one JSON line
to a ledger (``benchmarks/results/ledger.jsonl`` by convention): the
configuration and its hash, the git revision, the budget knobs from the
environment, the accuracy metrics, the per-stage latency breakdown from
the active metrics registry, and a soft-vote margin summary.  The ledger
is what turns individual runs into a *trajectory*: ``write_trajectories``
folds it into one ``BENCH_<task>.json`` per task, and ``compare_records``
diffs a run against a baseline with per-metric thresholds — accuracy may
not drop by more than ``max_accuracy_drop``, and no stage's p95 latency
may exceed the baseline's by more than ``max_p95_regression`` (a ratio:
0.5 means 50% slower fails).  ``python -m repro obs compare`` drives the
comparison and exits nonzero on regression, which is what CI gates on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from .export import stage_breakdown
from .registry import MetricsRegistry, NullRegistry

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "MARGIN_HISTOGRAM",
    "FUSED_NAMESPACE",
    "INTEGRITY_NAMESPACE",
    "RESILIENCE_NAMESPACE",
    "SEARCH_NAMESPACE",
    "SERVE_NAMESPACE",
    "SLO_NAMESPACE",
    "TRAFFIC_NAMESPACE",
    "RunRecord",
    "Ledger",
    "config_hash",
    "git_rev",
    "budget_env",
    "record_run",
    "MetricCheck",
    "ComparisonReport",
    "compare_records",
    "write_trajectories",
]

DEFAULT_LEDGER_PATH = Path("benchmarks") / "results" / "ledger.jsonl"

#: Histogram the datapaths record top1-top2 soft-vote score gaps into.
#: Deliberately outside the ``packed.``/``artifacts.`` namespaces so the
#: stage share computation never counts it as wall time.
MARGIN_HISTOGRAM = "quality.soft_vote_margin"

#: Histogram namespaces whose entries are stage *latencies* (and may
#: therefore be gated on p95 by the comparator).
STAGE_NAMESPACES = (
    "packed",
    "artifacts",
    "stream",
    "hwsim",
    "train",
    "search",
    "ldc",
    "batch",
    "serve",
)

#: Counter/gauge namespace the resilience layer records failure handling
#: into.  Harvested verbatim into every record's metrics, so a degraded
#: run (retries, engine fallbacks, quarantined samples, an open breaker)
#: is marked in the ledger without the caller threading the counts
#: through by hand.
RESILIENCE_NAMESPACE = "resilience."

#: Counter/gauge namespace the co-design search engine records into
#: (``search.cache.{hit,miss}``, ``search.workers``, ``search.retries``,
#: ...).  Harvested the same way, so every ``kind="search"`` ledger
#: record carries its worker count and cache economics.
SEARCH_NAMESPACE = "search."

#: Counter/gauge namespace the micro-batching serve front end records
#: into (``serve.{requests,accepted,rejected,answered,failed,
#: quarantined}``, ``serve.flush.*``, ``serve.queue_depth``, ...).
#: Harvested the same way, so a ``task="serve"`` ledger record carries
#: its admission-control accounting — shed requests included — without
#: the bench threading the counts through by hand.
SERVE_NAMESPACE = "serve."

#: Counter/gauge namespace the fused single-pass datapath records into
#: (``packed.fused.{tiles,tile_size}`` and the published analytic
#: roofline gauges ``packed.traffic.*``).  Harvested so data-movement
#: regressions are gateable next to throughput.
FUSED_NAMESPACE = "packed.fused."
TRAFFIC_NAMESPACE = "packed.traffic."

#: Gauge namespace :meth:`repro.obs.slo.SLOTracker.publish` mirrors the
#: error-budget state into (``slo.budget_consumed``, ``slo.burn_rate_*``,
#: ``slo.objective.*``, ...).  Harvested into every record, which is what
#: lets ``repro obs compare --max-budget-burn`` gate a run on how much
#: SLO budget it burned.
SLO_NAMESPACE = "slo."

#: Counter/gauge namespace the artifact-integrity layer records into
#: (``integrity.{scrubs,mismatches,repairs,repair_failures,corruptions,
#: corrupt_bits}`` plus the soft-vote margin-window gauges).  Harvested
#: into every record, so a serving run shows how often resident memory
#: decayed, how often the scrubber healed it, and what the corruption
#: cost in decision margin.
INTEGRITY_NAMESPACE = "integrity."


def config_hash(config) -> str:
    """Stable short hash of a run configuration.

    Accepts a dataclass (e.g. ``UniVSAConfig``), a mapping, or any
    JSON-serializable value; identical configurations hash identically
    across processes and sessions.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    else:
        payload = config
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def git_rev() -> str:
    """Current short git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def budget_env() -> dict[str, str]:
    """The ``REPRO_*`` budget knobs present in the environment."""
    return {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_")
    }


@dataclass
class RunRecord:
    """One ledger line: everything needed to compare runs later."""

    kind: str  # "bench" | "profile" | "train" | "search"
    task: str
    timestamp: float
    run_id: str
    git_rev: str
    config: dict = field(default_factory=dict)
    config_hash: str = ""
    env: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    margin: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-serializable view (one ledger line)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """Inverse of :meth:`as_dict`; tolerant of missing optional keys."""
        return cls(
            kind=payload.get("kind", "unknown"),
            task=payload.get("task", "unknown"),
            timestamp=float(payload.get("timestamp", 0.0)),
            run_id=payload.get("run_id", ""),
            git_rev=payload.get("git_rev", "unknown"),
            config=payload.get("config", {}) or {},
            config_hash=payload.get("config_hash", ""),
            env=payload.get("env", {}) or {},
            metrics=payload.get("metrics", {}) or {},
            stages=payload.get("stages", {}) or {},
            margin=payload.get("margin", {}) or {},
        )


class Ledger:
    """Append-only JSONL store of :class:`RunRecord` lines."""

    def __init__(self, path: str | os.PathLike = DEFAULT_LEDGER_PATH) -> None:
        self.path = Path(path)

    def append(self, record: RunRecord) -> RunRecord:
        """Append one record (creating parent directories as needed)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
        return record

    def read(self) -> list[RunRecord]:
        """All records, oldest first (missing file reads as empty)."""
        if not self.path.exists():
            return []
        records = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(RunRecord.from_dict(json.loads(line)))
        return records

    def latest(
        self, task: str | None = None, kind: str | None = None, offset: int = 0
    ) -> RunRecord | None:
        """Newest matching record; ``offset=1`` is the one before it."""
        matches = [
            r
            for r in self.read()
            if (task is None or r.task == task) and (kind is None or r.kind == kind)
        ]
        if len(matches) <= offset:
            return None
        return matches[-1 - offset]

    def tasks(self) -> list[str]:
        """Distinct task names, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.read():
            seen.setdefault(record.task, None)
        return list(seen)


def _stage_summaries(registry: MetricsRegistry | NullRegistry) -> dict:
    stages: dict = {}
    for namespace in STAGE_NAMESPACES:
        stages.update(stage_breakdown(registry, prefix=namespace + "."))
    return stages


def record_run(
    kind: str,
    task: str,
    *,
    config=None,
    metrics: dict | None = None,
    registry: MetricsRegistry | NullRegistry | None = None,
    ledger_path: str | os.PathLike | None = None,
    timestamp: float | None = None,
) -> RunRecord:
    """Build one :class:`RunRecord` and append it to the ledger.

    ``config`` may be a dataclass or dict; ``registry`` contributes the
    per-stage latency breakdown and the soft-vote margin summary.  Pass
    ``ledger_path=None`` for the default ``benchmarks/results/ledger.jsonl``.
    """
    now = time.time() if timestamp is None else timestamp
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config_payload = dataclasses.asdict(config)
    else:
        config_payload = dict(config) if config else {}
    stages: dict = {}
    margin: dict = {}
    all_metrics = dict(metrics or {})
    if registry is not None and registry.enabled:
        stages = _stage_summaries(registry)
        margin_hist = registry.histograms().get(MARGIN_HISTOGRAM)
        if margin_hist is not None:
            margin = margin_hist.summary()
        harvested = dict(registry.counter_values(RESILIENCE_NAMESPACE))
        harvested.update(registry.gauge_values(RESILIENCE_NAMESPACE))
        harvested.update(registry.counter_values(SEARCH_NAMESPACE))
        harvested.update(registry.gauge_values(SEARCH_NAMESPACE))
        harvested.update(registry.counter_values(SERVE_NAMESPACE))
        harvested.update(registry.gauge_values(SERVE_NAMESPACE))
        harvested.update(registry.counter_values(SLO_NAMESPACE))
        harvested.update(registry.gauge_values(SLO_NAMESPACE))
        harvested.update(registry.counter_values(INTEGRITY_NAMESPACE))
        harvested.update(registry.gauge_values(INTEGRITY_NAMESPACE))
        harvested.update(registry.counter_values(FUSED_NAMESPACE))
        harvested.update(registry.gauge_values(FUSED_NAMESPACE))
        harvested.update(registry.gauge_values(TRAFFIC_NAMESPACE))
        for name, value in harvested.items():
            all_metrics.setdefault(name, value)
    record = RunRecord(
        kind=kind,
        task=task,
        timestamp=now,
        run_id=f"{kind}-{task}-{int(now * 1000)}",
        git_rev=git_rev(),
        config=config_payload,
        config_hash=config_hash(config_payload),
        env=budget_env(),
        metrics=all_metrics,
        stages=stages,
        margin=margin,
    )
    ledger = Ledger(DEFAULT_LEDGER_PATH if ledger_path is None else ledger_path)
    ledger.append(record)
    return record


# ---------------------------------------------------------------------------
# comparison (the regression gate)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MetricCheck:
    """One thresholded comparison between a run and its baseline."""

    name: str
    kind: str  # "accuracy" (higher is better) | "p95" (lower is better)
    current: float
    baseline: float
    limit: float  # the worst acceptable current value
    ok: bool


@dataclass
class ComparisonReport:
    """All checks of one run-vs-baseline comparison."""

    current_id: str
    baseline_id: str
    checks: list[MetricCheck] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        """True when any check failed."""
        return any(not check.ok for check in self.checks)

    def failures(self) -> list[MetricCheck]:
        """The failing checks."""
        return [check for check in self.checks if not check.ok]

    def render(self) -> str:
        """Text table of every check."""
        from repro.utils.tables import render_table

        rows = []
        for check in self.checks:
            scale = 1e3 if check.kind == "p95" else 1.0
            unit = " ms" if check.kind == "p95" else ""
            rows.append(
                [
                    check.name,
                    check.kind,
                    f"{check.current * scale:.4f}{unit}",
                    f"{check.baseline * scale:.4f}{unit}",
                    f"{check.limit * scale:.4f}{unit}",
                    "ok" if check.ok else "REGRESSED",
                ]
            )
        title = (
            f"run {self.current_id} vs baseline {self.baseline_id} — "
            + ("REGRESSED" if self.regressed else "ok")
        )
        return render_table(
            ["metric", "kind", "current", "baseline", "limit", "verdict"],
            rows,
            title=title,
        )


def compare_records(
    current: RunRecord,
    baseline: RunRecord,
    max_accuracy_drop: float = 0.02,
    max_p95_regression: float = 0.5,
    max_throughput_drop: float = 0.5,
    max_budget_burn: float | None = None,
) -> ComparisonReport:
    """Threshold-diff ``current`` against ``baseline``.

    Accuracy-style metrics (names containing ``accuracy``) fail when they
    drop more than ``max_accuracy_drop`` below the baseline.  Rate-style
    metrics (names containing ``per_s`` or ``throughput``; higher is
    better) fail when ``current < baseline * (1 - max_throughput_drop)``.
    Stage p95 latencies fail when
    ``current > baseline * (1 + max_p95_regression)``.  Metrics present
    on only one side are skipped — a baseline can gate accuracy alone by
    omitting ``stages``.

    With ``max_budget_burn`` set, the run's harvested SLO state
    (``slo.budget_consumed``, see :data:`SLO_NAMESPACE`) is gated as an
    *absolute* threshold on the current record alone — no baseline value
    needed, because the budget objective is stated by the SLO itself.
    """
    report = ComparisonReport(
        current_id=current.run_id or "current",
        baseline_id=baseline.run_id or "baseline",
    )
    for name in sorted(baseline.metrics):
        if "accuracy" not in name or name not in current.metrics:
            continue
        base = float(baseline.metrics[name])
        cur = float(current.metrics[name])
        limit = base - max_accuracy_drop
        report.checks.append(
            MetricCheck(name, "accuracy", cur, base, limit, cur >= limit - 1e-12)
        )
    for name in sorted(baseline.metrics):
        if ("per_s" not in name and "throughput" not in name) or (
            name not in current.metrics
        ):
            continue
        base = float(baseline.metrics[name])
        if base <= 0.0:
            continue
        cur = float(current.metrics[name])
        limit = base * (1.0 - max_throughput_drop)
        report.checks.append(
            MetricCheck(name, "throughput", cur, base, limit, cur >= limit - 1e-12)
        )
    for stage in sorted(baseline.stages):
        if stage not in current.stages:
            continue
        base = float(baseline.stages[stage].get("p95_s", 0.0))
        cur = float(current.stages[stage].get("p95_s", 0.0))
        if base <= 0.0:
            continue
        limit = base * (1.0 + max_p95_regression)
        report.checks.append(
            MetricCheck(stage, "p95", cur, base, limit, cur <= limit + 1e-12)
        )
    if max_budget_burn is not None:
        name = "slo.budget_consumed"
        cur = float(current.metrics.get(name, 0.0))
        base = float(baseline.metrics.get(name, 0.0))
        report.checks.append(
            MetricCheck(
                name, "budget", cur, base, max_budget_burn,
                cur <= max_budget_burn + 1e-12,
            )
        )
    return report


# ---------------------------------------------------------------------------
# trajectories (BENCH_<task>.json)
# ---------------------------------------------------------------------------
def _trajectory_point(record: RunRecord) -> dict:
    return {
        "timestamp": record.timestamp,
        "run_id": record.run_id,
        "kind": record.kind,
        "git_rev": record.git_rev,
        "config_hash": record.config_hash,
        "metrics": record.metrics,
        "p95_s": {name: entry.get("p95_s", 0.0) for name, entry in record.stages.items()},
        "margin_mean": record.margin.get("mean_s", 0.0),
    }


def write_trajectories(
    ledger: Ledger, out_dir: str | os.PathLike, task: str | None = None
) -> list[Path]:
    """Fold the ledger into one ``BENCH_<task>.json`` per task.

    Each trajectory file holds every recorded point for the task, oldest
    first, plus the latest point duplicated under ``"latest"`` for cheap
    dashboard reads.  Returns the paths written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_task: dict[str, list[RunRecord]] = {}
    for record in ledger.read():
        if task is not None and record.task != task:
            continue
        by_task.setdefault(record.task, []).append(record)
    written = []
    for name, records in by_task.items():
        points = [_trajectory_point(r) for r in records]
        path = out / f"BENCH_{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"task": name, "n_runs": len(points), "points": points, "latest": points[-1]},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        written.append(path)
    return written
