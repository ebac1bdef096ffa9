"""Deployment runtimes for deployed UniVSA models: streaming + batch +
fault-tolerant serving (retry/fallback/quarantine/breaker + chaos) + the
micro-batching online front end and its open-loop load harness.

Each name loads its submodule on first use: a daemon imports the runner
and the front end, not the load harness or the throughput bench."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".stream": ("StreamingClassifier", "StreamingDecision"),
        ".batch": ("WorkerPool", "resolve_workers"),
        ".throughput": ("EngineSample", "ThroughputReport", "bench_throughput"),
        ".resilience": (
            "RetryPolicy",
            "ShardStatus",
            "BatchReport",
            "BatchResult",
            "CircuitOpenError",
            "ResilientBatchRunner",
            "validate_levels",
            "serving_predict_fn",
        ),
        ".chaos": ("ChaosSpec", "ChaosError", "chaos_context", "chaos_kernels", "parse_chaos"),
        # artifact integrity / self-healing
        ".integrity": (
            "ArtifactCorruptionError",
            "IntegrityScrubber",
            "ScrubReport",
            "damage_archive",
            "flip_resident_bits",
            "verify_archive",
        ),
        # serving front end
        ".serve": ("NetPolicy", "ServePolicy", "ServeResponse", "MicroBatchServer", "serve_tcp"),
        # load generation
        ".loadgen": (
            "LoadPoint",
            "ServeBenchReport",
            "bench_serve",
            "poisson_arrivals",
            "bursty_arrivals",
            "client_arrivals",
            "run_open_loop",
        ),
    },
)
