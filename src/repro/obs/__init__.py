"""repro.obs — observability for the packed datapath, end to end.

Five layers, all dependency-free and all zero-overhead until enabled:

* **Metrics** (:mod:`.registry`, :mod:`.timers`, :mod:`.export`): a
  registry of counters, gauges, and latency histograms with p50/p95/p99,
  recorded by ``stage_timer`` sites throughout the datapath, exported as
  JSON or text tables.
* **Traces** (:mod:`.trace`): span trees covering one classification
  end-to-end — every ``stage_timer`` site doubles as a child span, with
  explicit roots around packed ``scores()``, streaming decisions, and
  simulated hardware samples (the latter annotated with modeled cycles
  so a trace shows the cycle model next to measured wall time).
  Deterministic sampling, JSONL export, rendered span trees flagging the
  slowest path (``python -m repro trace``).
* **Ledger** (:mod:`.ledger`): every benchmark/profile/train/search run
  appends one record (config + hash, git rev, budget env, accuracy,
  stage breakdown, soft-vote margins) to
  ``benchmarks/results/ledger.jsonl``; ``python -m repro obs compare``
  diffs the latest run against a baseline with per-metric thresholds and
  folds the ledger into ``BENCH_<task>.json`` trajectory files.
* **Worker telemetry** (:mod:`.telemetry`): the search engine's
  process-pool workers record into private registries installed by the
  pool initializer, ship reset-after-snapshot deltas back on each
  result, and the parent merges them — counters sum, histograms merge
  exactly, gauges are tagged per-worker (``name.w<pid>``) — so worker
  time is accounted at most once even across pool crashes.
* **SLO tracking** (:mod:`.slo`): a latency/availability objective
  (``REPRO_SLO_*`` env) with rolling-window error-budget accounting and
  fast/slow burn rates, published as ``slo.*`` gauges into the registry
  — visible live on the serve admin endpoint (``repro top``), harvested
  into ledger records, and gated by
  ``repro obs compare --max-budget-burn``.

The active registry and tracer default to :data:`NULL_REGISTRY` /
:data:`NULL_TRACER`, whose instruments are shared no-ops — instrumented
hot paths take no clock readings and make no allocations until
:func:`enable` / :func:`enable_tracing` (or the ``using_*`` context
managers) install real collectors.

Each name loads its submodule on first use: a serving process never
imports :mod:`.profile`, which drives the trainer and the hardware
simulator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".registry": (
            "Counter",
            "Gauge",
            "LatencyHistogram",
            "MetricsRegistry",
            "NullRegistry",
            "NULL_REGISTRY",
            "get_registry",
            "set_registry",
            "enable",
            "disable",
            "using_registry",
        ),
        ".timers": ("stage_timer",),
        ".export": (
            "snapshot",
            "stage_breakdown",
            "to_json",
            "to_prometheus",
            "record_to_prometheus",
            "write_json",
            "render_stage_table",
        ),
        ".profile": ("ProfileReport", "profile_benchmark"),
        # cross-process telemetry
        ".telemetry": (
            "WORKER_GAUGE_SEP",
            "install_worker_telemetry",
            "registry_delta",
            "drain_worker_delta",
            "merge_delta",
            "drain_pool",
            "recent_worker_traces",
        ),
        # SLO / error budgets
        ".slo": ("SLO", "SLOTracker"),
        # tracing
        ".trace": (
            "Span",
            "Tracer",
            "NullTracer",
            "NULL_TRACER",
            "get_tracer",
            "set_tracer",
            "enable_tracing",
            "disable_tracing",
            "using_tracer",
            "trace_span",
            "annotate_span",
            "trace_to_dict",
            "write_traces_jsonl",
            "read_traces_jsonl",
            "render_trace_tree",
            "slowest_path",
        ),
        # ledger
        ".ledger": (
            "INTEGRITY_NAMESPACE",
            "SLO_NAMESPACE",
            "DEFAULT_LEDGER_PATH",
            "MARGIN_HISTOGRAM",
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
        ),
    },
)
