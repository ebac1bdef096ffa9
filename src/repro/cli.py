"""Command-line interface: train / evaluate / hw / search / profile /
trace / bench-throughput / serve / serve-bench / top / chaos /
fault-sweep / obs / info.

    python -m repro info
    python -m repro train isolet --epochs 12 --out isolet.npz
    python -m repro evaluate isolet.npz isolet
    python -m repro hw har
    python -m repro search bci-iii-v --generations 3 --workers 4
    python -m repro profile bci-iii-v --json bci.profile.json
    python -m repro trace bci-iii-v --samples 4 --jsonl bci.traces.jsonl
    python -m repro bench-throughput bci-iii-v --batch 256
    python -m repro serve bci-iii-v --port 8765
    python -m repro top --port 8765 --interval 2
    python -m repro serve-bench bci-iii-v --rates 1,5,15 --trace poisson
    python -m repro chaos bci-iii-v --spec raise:0.1,delay:5ms
    python -m repro fault-sweep bci-iii-v --fractions 0.001,0.01,0.1
    python -m repro obs compare --task serve --baseline benchmarks/baselines/serve.json
    python -m repro obs export --task serve --format prom

Training, search, and profile runs append one record to the run ledger
(``benchmarks/results/ledger.jsonl`` by default; ``--ledger PATH`` or
``REPRO_LEDGER`` overrides, ``--no-ledger`` opts out), which is what
``repro obs compare`` gates on.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.core import UniVSAArtifacts, UniVSAConfig

__all__ = ["main", "build_parser"]


def _ledger_path(args: argparse.Namespace):
    """Resolve the run-ledger path (None = ledger disabled)."""
    if getattr(args, "no_ledger", False):
        return None
    explicit = getattr(args, "ledger", None)
    return explicit or os.environ.get("REPRO_LEDGER") or None


def _append_ledger(args: argparse.Namespace, kind: str, task: str, **kwargs) -> None:
    """Append one run record unless --no-ledger was passed."""
    if getattr(args, "no_ledger", False):
        return
    from repro.obs import record_run

    record = record_run(kind, task, ledger_path=_ledger_path(args), **kwargs)
    print(f"ledger: appended {record.run_id} (config {record.config_hash})")


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        help="run-ledger JSONL path (default benchmarks/results/ledger.jsonl)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true", help="skip the run-ledger append"
    )


def _parse_config(text: str | None, benchmark) -> UniVSAConfig | None:
    if text is None:
        return None
    parts = tuple(int(p) for p in text.split(","))
    if len(parts) != 5:
        raise SystemExit("--config expects 5 integers: D_H,D_L,D_K,O,Theta")
    return UniVSAConfig.from_paper_tuple(parts, levels=benchmark.levels)


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.data import benchmark_names, get_benchmark
    from repro.utils.tables import render_table

    rows = []
    for name in benchmark_names():
        benchmark = get_benchmark(name)
        rows.append(
            [
                name,
                benchmark.spec.domain,
                benchmark.n_classes,
                f"{benchmark.input_shape}",
                str(benchmark.paper_config),
            ]
        )
    print(render_table(
        ["benchmark", "domain", "classes", "(W, L)", "paper config"],
        rows,
        title="registered benchmarks (Table I)",
    ))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.pipeline import run_benchmark
    from repro.data import get_benchmark
    from repro.obs import MetricsRegistry, using_registry
    from repro.utils.tables import render_kv
    from repro.utils.trainloop import TrainConfig

    benchmark = get_benchmark(args.benchmark)
    config = _parse_config(args.config, benchmark)
    with using_registry(MetricsRegistry()) as registry:
        run = run_benchmark(
            args.benchmark,
            config=config,
            train_config=TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed),
            seed=args.seed,
        )
    print(render_kv(
        {
            "benchmark": run.name,
            "config": str(run.config.as_paper_tuple()),
            "train accuracy": f"{run.train_accuracy:.4f}",
            "test accuracy": f"{run.accuracy:.4f}",
            "memory": f"{run.memory_kb:.2f} KB",
        },
        title="training result",
    ))
    if args.out:
        run.artifacts.save(args.out)
        print(f"artifacts written to {args.out}")
    _append_ledger(
        args,
        "train",
        run.name,
        config=run.config,
        metrics={
            "accuracy": run.accuracy,
            "train_accuracy": run.train_accuracy,
            "memory_kb": run.memory_kb,
        },
        registry=registry,
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.data import load
    from repro.utils.tables import render_kv

    artifacts = UniVSAArtifacts.load(args.model)
    data = load(args.benchmark, seed=args.seed)
    predictions = artifacts.predict(data.x_test)
    accuracy = float((predictions == data.y_test).mean())
    print(render_kv(
        {
            "model": args.model,
            "benchmark": args.benchmark,
            "test samples": len(data.x_test),
            "accuracy": f"{accuracy:.4f}",
            "memory": f"{artifacts.memory_footprint_bits() / 8000:.2f} KB",
        },
        title="evaluation",
    ))
    return 0


def _cmd_hw(args: argparse.Namespace) -> int:
    from repro.data import get_benchmark
    from repro.hw import hardware_report
    from repro.utils.tables import render_kv

    benchmark = get_benchmark(args.benchmark)
    config = _parse_config(args.config, benchmark) or UniVSAConfig.from_paper_tuple(
        benchmark.paper_config, levels=benchmark.levels
    )
    report = hardware_report(
        config, benchmark.input_shape, benchmark.n_classes, name=args.benchmark
    )
    print(render_kv(
        {
            "config": str(config.as_paper_tuple()),
            "latency": f"{report.latency_ms:.3f} ms",
            "power": f"{report.power_w:.2f} W",
            "LUTs": report.luts,
            "BRAMs": report.brams,
            "DSPs": report.dsps,
            "throughput": f"{report.throughput_per_s / 1000:.2f}k/s",
            "memory": f"{report.memory_kb:.2f} KB",
            "bottleneck": report.bottleneck,
        },
        title=f"hardware report — {args.benchmark} (ZU3EG @250 MHz)",
    ))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.data import get_benchmark, load
    from repro.obs import MetricsRegistry, using_registry
    from repro.search import (
        AccuracyProxy,
        CodesignObjective,
        EvolutionConfig,
        SearchEngine,
        SearchSpace,
        evolutionary_search,
    )
    from repro.search.engine import DEFAULT_CACHE_PATH
    from repro.utils.tables import render_kv

    benchmark = get_benchmark(args.benchmark)
    data = load(args.benchmark, seed=args.seed)
    split = int(0.75 * len(data.x_train))
    proxy = AccuracyProxy(
        data.x_train[:split],
        data.y_train[:split],
        data.x_train[split:],
        data.y_train[split:],
        n_classes=benchmark.n_classes,
        epochs=args.proxy_epochs,
    )
    objective = CodesignObjective(proxy, benchmark.input_shape, benchmark.n_classes)
    space = SearchSpace()
    cache_path = None if args.no_cache else (args.cache or DEFAULT_CACHE_PATH)
    workers = args.workers if args.workers != 0 else None  # 0 = auto (cpu count)
    executor = "serial" if args.workers == 1 else args.executor
    start = perf_counter()
    with using_registry(MetricsRegistry()) as registry:
        with SearchEngine(
            objective,
            space,
            workers=workers,
            executor=executor,
            cache_path=cache_path,
        ) as engine:
            result = evolutionary_search(
                objective,
                space,
                EvolutionConfig(
                    population=args.population,
                    generations=args.generations,
                    seed=args.seed,
                ),
                engine=engine,
            )
            ledger_stats = engine.ledger_stats()
    wall = perf_counter() - start
    parts = objective.breakdown(result.best_config)
    stats = result.stats
    print(render_kv(
        {
            "best config": str(result.best_config.as_paper_tuple()),
            "paper config": str(benchmark.paper_config),
            "proxy accuracy": f"{parts['accuracy']:.4f}",
            "L_HW penalty": f"{parts['penalty']:.4f}",
            "objective": f"{parts['objective']:.4f}",
            "configs evaluated": len(result.evaluated),
            "fresh trains": stats.get("evaluations", 0),
            "cache hits / misses": f"{stats.get('cache_hits', 0)} / {stats.get('cache_misses', 0)}",
            "workers": f"{stats.get('workers', 1)} ({executor})",
            "search wall": f"{wall:.2f} s",
            "speedup (train/wall)": f"{stats.get('speedup', 0.0):.2f}x",
            "cache": "disabled" if cache_path is None else str(cache_path),
        },
        title=f"co-design search — {args.benchmark}",
    ))
    metrics = {
        "proxy_accuracy": parts["accuracy"],
        "penalty": parts["penalty"],
        "objective": parts["objective"],
        "configs_evaluated": float(len(result.evaluated)),
        "search_wall_s": wall,
        "workers": float(stats.get("workers", 1)),
    }
    metrics.update(ledger_stats)
    _append_ledger(
        args,
        "search",
        args.benchmark,
        config=result.best_config,
        metrics=metrics,
        registry=registry,
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.obs import profile_benchmark

    report = profile_benchmark(
        args.benchmark,
        n_train=args.n_train,
        n_test=args.n_test,
        epochs=args.epochs,
        seed=args.seed,
        batch_size=args.batch_size,
        hop=args.hop,
    )
    print(report.render())
    json_path = args.json or f"{args.benchmark}-profile.json"
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nstage breakdown JSON written to {json_path}")
    _append_ledger(
        args,
        "profile",
        args.benchmark,
        config=report.config,
        metrics={"accuracy": report.accuracy},
        registry=report.registry,
    )
    return 0


def _cmd_bench_throughput(args: argparse.Namespace) -> int:
    """Measure packed.classify samples/sec (seed/fast/fused/parallel)."""
    import json
    from pathlib import Path

    from repro.obs import DEFAULT_LEDGER_PATH, Ledger, write_trajectories
    from repro.runtime import bench_throughput

    report = bench_throughput(
        args.benchmark,
        batch=args.batch,
        repeats=args.repeats,
        warmup=args.warmup,
        workers=args.workers,
        shard_size=args.shard_size,
        n_train=args.n_train,
        n_test=args.n_test,
        epochs=args.epochs,
        seed=args.seed,
    )
    print(report.render())
    json_path = args.json or f"{args.benchmark}-throughput.json"
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nthroughput JSON written to {json_path}")
    _append_ledger(
        args,
        "bench",
        "throughput",
        config=report.config,
        metrics=report.ledger_metrics(),
        registry=report.registry,
    )
    if not getattr(args, "no_ledger", False):
        ledger = Ledger(_ledger_path(args) or DEFAULT_LEDGER_PATH)
        for path in write_trajectories(
            ledger, Path(ledger.path).parent, task="throughput"
        ):
            print(f"trajectory written to {path}")
    return 0


def _cmd_verify_artifacts(args: argparse.Namespace) -> int:
    """Verify a saved artifact archive against its embedded manifest."""
    import json

    from repro.runtime.integrity import ArtifactCorruptionError, verify_archive
    from repro.utils.tables import render_kv, render_table

    try:
        report = verify_archive(args.model)
    except FileNotFoundError:
        print(f"error: no such archive: {args.model}", file=sys.stderr)
        return 1
    except ArtifactCorruptionError as exc:
        print(f"CORRUPT: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    rows = [
        [name, entry["dtype"], "x".join(str(d) for d in entry["shape"]) or "scalar",
         entry["sha256"][:16]]
        for name, entry in sorted(report["arrays"].items())
    ]
    print(render_kv(
        {
            "archive": report["path"],
            "format version": report["format_version"],
            "config hash": report["config_hash"] or "-",
            "arrays": len(rows),
        },
        title="artifact integrity — all digests verified",
    ))
    print()
    print(render_table(["array", "dtype", "shape", "sha256[:16]"], rows))
    return 0


def _serve_policy(args: argparse.Namespace):
    """``REPRO_SERVE_*`` provides the serving policy; flags given win."""
    import dataclasses

    from repro.runtime import ServePolicy

    flags = {
        name: getattr(args, name)
        for name in ("max_batch", "deadline_ms", "max_queue", "max_inflight")
        if getattr(args, name) is not None
    }
    return dataclasses.replace(ServePolicy.from_env(), **flags)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the micro-batching TCP serving daemon until interrupted."""
    import asyncio

    from repro.core.inference import BitPackedUniVSA
    from repro.obs import MetricsRegistry, using_registry
    from repro.obs.slo import SLO
    from repro.runtime import (
        IntegrityScrubber,
        MicroBatchServer,
        NetPolicy,
        ResilientBatchRunner,
        serve_tcp,
    )

    if args.model:
        artifacts = UniVSAArtifacts.load(args.model)
        name = args.model
    else:
        from repro.core.pipeline import run_benchmark
        from repro.data import get_benchmark
        from repro.utils.trainloop import TrainConfig

        benchmark = get_benchmark(args.benchmark)
        run = run_benchmark(
            args.benchmark,
            config=_parse_config(args.config, benchmark),
            train_config=TrainConfig(
                epochs=args.epochs,
                lr=0.008,
                seed=args.seed,
                balance_classes=benchmark.spec.class_balance is not None,
            ),
            n_train=args.n_train,
            n_test=args.n_test,
            seed=args.seed,
        )
        artifacts = run.artifacts
        name = args.benchmark
    engine = BitPackedUniVSA(artifacts, mode="fused")
    policy = _serve_policy(args)
    # REPRO_SLO_* provides the objective; explicit flags win over env.
    slo = SLO.from_env()
    import dataclasses

    if args.slo_p99_ms is not None:
        slo = dataclasses.replace(slo, p99_ms=args.slo_p99_ms)
    if args.slo_availability is not None:
        slo = dataclasses.replace(slo, availability=args.slo_availability)
    # REPRO_SERVE_MAX_LINE / _READ_TIMEOUT_S / _MAX_CONNS provide the
    # front-end limits; explicit flags win over env.
    net = NetPolicy.from_env()
    if args.max_line_bytes is not None:
        net = dataclasses.replace(net, max_line_bytes=args.max_line_bytes)
    if args.read_timeout_s is not None:
        net = dataclasses.replace(net, read_timeout_s=args.read_timeout_s)
    if args.max_connections is not None:
        net = dataclasses.replace(net, max_connections=args.max_connections)

    async def daemon() -> None:
        with ResilientBatchRunner(
            engine,
            shard_size=args.shard_size,
            workers=args.workers,
        ) as runner:
            # With a saved model, repairs reload the verified archive;
            # a freshly trained model repairs from a pristine in-memory
            # copy retained here.
            scrubber = (
                None
                if args.no_scrub
                else IntegrityScrubber(
                    runner, source=args.model if args.model else None
                )
            )
            async with MicroBatchServer(
                runner,
                policy,
                slo=slo,
                scrubber=scrubber,
                scrub_interval_s=args.scrub_interval_s,
            ) as server:
                tcp = await serve_tcp(server, args.host, args.port, net=net)
                host, port = tcp.sockets[0].getsockname()[:2]
                print(
                    f"serving {name} on {host}:{port} "
                    f"(engine {engine.mode}/{engine.conv_backend}, "
                    f"batch<={policy.max_batch}, deadline {policy.deadline_ms:g} ms, "
                    f"queue<={policy.max_queue}, "
                    f"inflight<={policy.max_inflight}, "
                    f"slo p99<={slo.p99_ms:g} ms @ {slo.availability:g}, "
                    f"scrub every {server.scrub_interval_s:g} s"
                    f"{' off' if scrubber is None else ''}) "
                    "— Ctrl-C drains and exits"
                )
                sys.stdout.flush()
                try:
                    await asyncio.Event().wait()
                finally:
                    tcp.close()
                    await tcp.wait_closed()

    registry = MetricsRegistry()
    with using_registry(registry):
        try:
            asyncio.run(daemon())
        except KeyboardInterrupt:
            print("\ninterrupted — queue drained, daemon stopped")
    # One session record at shutdown: the serve.*/serve.net.*/integrity.*
    # counters of this daemon's lifetime, so chaos recoveries and
    # front-end abuse are visible in the ledger after the fact.
    _append_ledger(
        args,
        "serve",
        "serve-daemon",
        config=artifacts.config,
        metrics={},
        registry=registry,
    )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Open-loop latency/goodput curve of the micro-batching serve path."""
    import json
    from pathlib import Path

    from repro.data import get_benchmark
    from repro.obs import DEFAULT_LEDGER_PATH, Ledger, write_trajectories
    from repro.runtime import bench_serve

    policy = _serve_policy(args)
    rates = tuple(float(r) for r in args.rates.split(","))
    absolute = (
        tuple(float(r) for r in args.rate.split(",")) if args.rate else None
    )
    report = bench_serve(
        args.benchmark,
        rates=rates,
        absolute_rates=absolute,
        duration_s=args.duration,
        trace=args.trace,
        clients=args.clients,
        policy=policy,
        workers=args.workers,
        shard_size=args.shard_size,
        config=_parse_config(args.config, get_benchmark(args.benchmark)),
        n_train=args.n_train,
        n_test=args.n_test,
        epochs=args.epochs,
        seed=args.seed,
    )
    print(report.render())
    json_path = args.json or f"{args.benchmark}-serve.json"
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nserve-bench JSON written to {json_path}")
    _append_ledger(
        args,
        "bench",
        "serve",
        config=report.config,
        metrics=report.ledger_metrics(),
        registry=report.registry,
    )
    if not getattr(args, "no_ledger", False):
        ledger = Ledger(_ledger_path(args) or DEFAULT_LEDGER_PATH)
        for path in write_trajectories(ledger, Path(ledger.path).parent, task="serve"):
            print(f"trajectory written to {path}")
    if report.mismatches:
        print(
            f"ERROR: {report.mismatches} served answers diverged from "
            "inline inference",
            file=sys.stderr,
        )
        return 1
    return 0


def _admin_request(host: str, port: int, payload: dict, timeout: float = 5.0) -> dict:
    """One NDJSON admin round-trip against a running serve daemon."""
    import json
    import socket

    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    return json.loads(b"".join(chunks))


def _render_top(state: dict) -> str:
    """One `repro top` frame from an admin ``metrics`` snapshot."""
    from repro.obs.export import render_stage_table
    from repro.utils.tables import render_kv

    counters = state.get("counters", {})
    slo = state.get("slo", {})
    objective = slo.get("objective", {})
    engine = state.get("engine", {})
    engine_line = f"{engine.get('mode', '?')} / {engine.get('conv_backend', '?')}"
    if engine.get("cc_conv_unavailable_reason"):
        engine_line += f" ({engine['cc_conv_unavailable_reason']})"
    header = render_kv(
        {
            "engine": engine_line,
            "queue depth": state.get("queue_depth", 0),
            "in flight": state.get("inflight", 0),
            "draining": state.get("draining", False),
            "requests": counters.get("serve.requests", 0),
            "answered / failed": (
                f"{counters.get('serve.answered', 0)} / "
                f"{counters.get('serve.failed', 0)}"
            ),
            "rejected / quarantined": (
                f"{counters.get('serve.rejected', 0)} / "
                f"{counters.get('serve.quarantined', 0)}"
            ),
            "flush full/partial": (
                f"{counters.get('serve.flush.full', 0)}/"
                f"{counters.get('serve.flush.partial', 0)}"
            ),
            "slo objective": (
                f"p99<={objective.get('p99_ms', 0):g} ms @ "
                f"{objective.get('availability', 0):g}"
            ),
            "budget remaining": f"{slo.get('budget_remaining', 1.0):.3f}",
            "burn fast / slow": (
                f"{slo.get('burn_rate_fast', 0.0):.2f} / "
                f"{slo.get('burn_rate_slow', 0.0):.2f}"
            ),
        },
        title="repro top — live serve daemon",
    )
    stages = state.get("stages", {})
    shown = {
        name: entry
        for name, entry in stages.items()
        if name.startswith(("serve.", "packed.", "resilience.", "batch."))
        and entry.get("count", 0)
    }
    if not shown:
        return header
    return header + "\n\n" + render_stage_table(
        shown, title="stage latency (worker-merged)"
    )


def _cmd_top(args: argparse.Namespace) -> int:
    """Refresh-loop terminal view over the serve daemon's admin endpoint."""
    import time

    try:
        state = _admin_request(args.host, args.port, {"op": "metrics"})
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port} ({exc})", file=sys.stderr)
        return 2
    if args.once:
        print(_render_top(state))
        return 0
    try:
        while True:
            # ANSI clear + home keeps the frame in place like top(1).
            sys.stdout.write("\x1b[2J\x1b[H")
            print(_render_top(state))
            print(f"\nrefreshing every {args.interval:g} s — Ctrl-C exits")
            sys.stdout.flush()
            time.sleep(args.interval)
            state = _admin_request(args.host, args.port, {"op": "metrics"})
    except KeyboardInterrupt:
        print()
    except OSError as exc:
        print(f"error: daemon went away ({exc})", file=sys.stderr)
        return 2
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run one resilient batch under an injected-fault spec and report."""
    from repro.core.pipeline import run_benchmark
    from repro.data import get_benchmark
    from repro.obs import MetricsRegistry, using_registry
    from repro.runtime import (
        ChaosSpec,
        CircuitOpenError,
        ResilientBatchRunner,
        RetryPolicy,
    )
    from repro.core.inference import BitPackedUniVSA
    from repro.utils.trainloop import TrainConfig

    chaos = (
        ChaosSpec.parse(args.spec, seed=args.chaos_seed)
        if args.spec
        else ChaosSpec.from_env()
    )
    benchmark = get_benchmark(args.benchmark)
    run = run_benchmark(
        args.benchmark,
        train_config=TrainConfig(
            epochs=args.epochs,
            lr=0.008,
            seed=args.seed,
            balance_classes=benchmark.spec.class_balance is not None,
        ),
        n_train=args.n_train,
        n_test=args.n_test,
        seed=args.seed,
    )
    reps = -(-args.batch // max(1, len(run.data.x_test)))
    levels = np.concatenate([run.data.x_test] * reps)[: args.batch]
    labels = np.concatenate([run.data.y_test] * reps)[: args.batch]
    policy = RetryPolicy.from_env()
    if args.retries is not None:
        import dataclasses

        policy = dataclasses.replace(policy, max_retries=max(0, args.retries))
    engine = BitPackedUniVSA(run.artifacts, mode="fast")
    breaker_open = False
    with using_registry(MetricsRegistry()) as registry:
        with ResilientBatchRunner(
            engine,
            shard_size=args.shard_size,
            workers=args.workers,
            policy=policy,
            chaos=chaos,
        ) as runner:
            try:
                result = runner.run(levels)
                report = result.report
                predictions = result.predictions
            except CircuitOpenError as exc:
                report = exc.report
                predictions = None
                breaker_open = True
    print(report.render())
    metrics = {
        "batch": float(args.batch),
        "retries": float(report.retries),
        "fallbacks": float(report.fallbacks),
        "quarantined": float(len(report.quarantined)),
        "failed_samples": float(len(report.failed_samples)),
        "breaker_open": float(report.breaker_open),
    }
    if predictions is not None:
        # Accuracy and seed-engine agreement over the samples that were
        # actually served (quarantined/failed rows carry the sentinel).
        included = np.ones(args.batch, dtype=bool)
        included[report.excluded] = False
        if included.any():
            reference = engine.sibling("legacy").scores(levels).argmax(axis=1)
            metrics["accuracy"] = float(
                (predictions[included] == labels[included]).mean()
            )
            metrics["seed_mismatches"] = float(
                (predictions[included] != reference[included]).sum()
            )
            print(
                f"\nserved {int(included.sum())}/{args.batch} samples · "
                f"accuracy {metrics['accuracy']:.4f} · "
                f"seed mismatches {int(metrics['seed_mismatches'])}"
            )
    _append_ledger(
        args,
        "chaos",
        "chaos",
        config=run.config,
        metrics=metrics,
        registry=registry,
    )
    return 1 if breaker_open else 0


def _cmd_fault_sweep(args: argparse.Namespace) -> int:
    """Accuracy vs memory flip rate, served through the resilient runtime."""
    import json
    from pathlib import Path

    from repro.core.pipeline import run_benchmark
    from repro.data import get_benchmark
    from repro.hw.faults import fault_sweep
    from repro.obs import MetricsRegistry, using_registry
    from repro.runtime import serving_predict_fn
    from repro.utils.tables import render_kv, render_table
    from repro.utils.trainloop import TrainConfig

    benchmark = get_benchmark(args.benchmark)
    run = run_benchmark(
        args.benchmark,
        train_config=TrainConfig(
            epochs=args.epochs,
            lr=0.008,
            seed=args.seed,
            balance_classes=benchmark.spec.class_balance is not None,
        ),
        n_train=args.n_train,
        n_test=args.n_test,
        seed=args.seed,
    )
    fractions = tuple(float(f) for f in args.fractions.split(","))
    groups = tuple(args.groups.split(",")) if args.groups else None
    kwargs = {"groups": groups} if groups else {}
    if args.reference:
        predict_fn = None  # artifact-level integer reference path
    else:
        predict_fn = serving_predict_fn(
            workers=args.workers,
            shard_size=args.shard_size,
        )
    with using_registry(MetricsRegistry()) as registry:
        report = fault_sweep(
            run.artifacts,
            run.data.x_test,
            run.data.y_test,
            flip_fractions=fractions,
            seed=args.seed,
            predict_fn=predict_fn,
            repair_after=args.repair_after,
            **kwargs,
        )
    rows = [
        [f"{f:g}", f"{a:.4f}", f"{d:+.4f}"]
        for f, a, d in zip(
            report.flip_fractions, report.accuracies, report.degradation()
        )
    ]
    print(render_kv(
        {
            "benchmark": args.benchmark,
            "path": "reference" if args.reference else "resilient serving",
            "groups": args.groups or "all",
            "baseline accuracy": f"{report.baseline_accuracy:.4f}",
        },
        title="fault sweep — bit flips in stored memories",
    ))
    print()
    print(render_table(["flip fraction", "accuracy", "drop"], rows, title="sweep"))
    if report.repaired_accuracies is not None:
        recovery_rows = [
            [f"{f:g}", f"{deg:.4f}", "yes" if det else "no", f"{rep:.4f}", f"{rec:+.4f}"]
            for f, deg, det, rep, rec in zip(
                report.flip_fractions,
                report.resident_accuracies,
                report.scrub_detected,
                report.repaired_accuracies,
                report.recovery(),
            )
        ]
        print()
        print(render_table(
            ["flip fraction", "degraded", "detected", "repaired", "recovered"],
            recovery_rows,
            title="recovery — scrub + hot repair of resident engine memory",
        ))
    payload = report.as_dict()
    payload.update(
        benchmark=args.benchmark,
        groups=list(groups) if groups else "all",
        serving_path="reference" if args.reference else "resilient",
        seed=args.seed,
    )
    json_path = Path(
        args.json or f"benchmarks/results/{args.benchmark}-fault-sweep.json"
    )
    json_path.parent.mkdir(parents=True, exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nfault-sweep JSON written to {json_path}")
    metrics = {"accuracy": report.baseline_accuracy}
    for fraction, accuracy in zip(report.flip_fractions, report.accuracies):
        metrics[f"accuracy_flip_{fraction:g}"] = accuracy
    metrics["max_degradation"] = max(report.degradation(), default=0.0)
    if report.repaired_accuracies is not None:
        for fraction, accuracy in zip(report.flip_fractions, report.repaired_accuracies):
            metrics[f"repaired_accuracy_flip_{fraction:g}"] = accuracy
        metrics["min_repaired_accuracy"] = min(
            report.repaired_accuracies, default=report.baseline_accuracy
        )
    _append_ledger(
        args,
        "bench",
        "fault-sweep",
        config=run.config,
        metrics=metrics,
        registry=registry,
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace end-to-end classifications and render the span trees."""
    import numpy as np

    from repro.core.inference import BitPackedUniVSA
    from repro.core.pipeline import run_benchmark
    from repro.data import get_benchmark
    from repro.hw.arch import HardwareSpec
    from repro.hw.simulator import HardwareSimulator
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        render_trace_tree,
        using_registry,
        using_tracer,
        write_traces_jsonl,
    )
    from repro.runtime.stream import StreamingClassifier
    from repro.utils.trainloop import TrainConfig

    benchmark = get_benchmark(args.benchmark)
    train_config = TrainConfig(
        epochs=args.epochs,
        lr=0.008,
        seed=args.seed,
        balance_classes=benchmark.spec.class_balance is not None,
    )
    run = run_benchmark(
        args.benchmark,
        train_config=train_config,
        n_train=args.n_train,
        n_test=args.n_test,
        seed=args.seed,
    )
    engine = BitPackedUniVSA(run.artifacts)
    n = max(1, min(args.samples, len(run.data.x_test)))
    tracer = Tracer(sample_rate=args.sample_rate)
    with using_tracer(tracer), using_registry(MetricsRegistry()):
        # Packed datapath: one trace per classified sample.
        for i in range(n):
            engine.scores(run.data.x_test[i : i + 1])
        # Hardware simulator: same samples, spans annotated with the
        # cycle model's predictions (modeled vs measured side by side).
        spec = HardwareSpec(
            config=run.artifacts.config,
            input_shape=run.artifacts.input_shape,
            n_classes=run.artifacts.n_classes,
        )
        HardwareSimulator(run.artifacts, spec).run(run.data.x_test[:n])
        # Streaming runtime: push enough signal for one decision.
        stream = StreamingClassifier(run.artifacts, run.data.quantizer)
        rng = np.random.default_rng(args.seed)
        stream.push(
            rng.uniform(
                run.data.quantizer.low,
                run.data.quantizer.high,
                size=stream.window_span,
            )
        )
    traces = tracer.to_dicts()
    if not traces:
        print("no traces captured (sampling rate too low?)")
        return 1
    # Render the slowest trace of each root kind.
    by_root: dict[str, dict] = {}
    for trace in traces:
        best = by_root.get(trace["root"])
        if best is None or trace["duration_s"] > best["duration_s"]:
            by_root[trace["root"]] = trace
    for root in sorted(by_root):
        print(render_trace_tree(by_root[root]))
        print()
    from repro.runtime.batch import resolve_workers
    from repro.vsa.kernels import kernel_info

    info = kernel_info()
    print(
        f"kernels: {info['set']} (pack={info['pack']}, "
        f"popcount={info['popcount']}, numpy {info['numpy']}) · "
        f"workers: {resolve_workers()}"
    )
    print(
        f"{len(traces)} trace(s) captured "
        f"({tracer.dropped_roots} dropped by sampling)"
    )
    if args.jsonl:
        count = write_traces_jsonl(traces, args.jsonl)
        print(f"{count} trace(s) written to {args.jsonl}")
    return 0


def _cmd_obs_compare(args: argparse.Namespace) -> int:
    """Diff the latest ledger run against a baseline; nonzero on regression."""
    import json
    from pathlib import Path

    from repro.obs import (
        DEFAULT_LEDGER_PATH,
        Ledger,
        RunRecord,
        compare_records,
        write_trajectories,
    )

    ledger = Ledger(args.ledger or os.environ.get("REPRO_LEDGER") or DEFAULT_LEDGER_PATH)
    current = ledger.latest(task=args.task, kind=args.kind)
    if current is None:
        print(f"no ledger records match (ledger={ledger.path}, task={args.task})")
        return 2
    out_dir = Path(args.trajectories) if args.trajectories else ledger.path.parent
    written = write_trajectories(ledger, out_dir)
    for path in written:
        print(f"trajectory written to {path}")
    if args.baseline == "prev":
        baseline = ledger.latest(task=current.task, kind=args.kind, offset=1)
        if baseline is None:
            print(
                f"no previous run for task {current.task!r} — "
                "recorded baseline only, nothing to compare"
            )
            return 0
    else:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = RunRecord.from_dict(json.load(handle))
    report = compare_records(
        current,
        baseline,
        max_accuracy_drop=args.max_accuracy_drop,
        max_p95_regression=args.max_p95_regression,
        max_throughput_drop=args.max_throughput_drop,
        max_budget_burn=args.max_budget_burn,
    )
    print(report.render())
    if report.regressed:
        for check in report.failures():
            print(
                f"REGRESSION: {check.name} ({check.kind}) "
                f"current={check.current:.6g} limit={check.limit:.6g} "
                f"baseline={check.baseline:.6g}"
            )
        return 1
    print("no regressions")
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Dump the latest ledger record as JSON or Prometheus text."""
    import json

    from repro.obs import (
        DEFAULT_LEDGER_PATH,
        Ledger,
        record_to_prometheus,
    )

    ledger = Ledger(
        args.ledger or os.environ.get("REPRO_LEDGER") or DEFAULT_LEDGER_PATH
    )
    record = ledger.latest(task=args.task, kind=args.kind)
    if record is None:
        print(
            f"no ledger records match (ledger={ledger.path}, task={args.task})",
            file=sys.stderr,
        )
        return 2
    if args.format == "prom":
        text = record_to_prometheus(record)
    else:
        text = json.dumps(record.as_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{args.format} export of {record.run_id} written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reportgen import generate_report

    report = generate_report(args.results, output_path=args.out)
    print(f"report with {report.count('##')} sections -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="UniVSA reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list registered benchmarks").set_defaults(func=_cmd_info)

    train = sub.add_parser("train", help="train UniVSA on a benchmark")
    train.add_argument("benchmark")
    train.add_argument("--config", help="D_H,D_L,D_K,O,Theta (default: paper)")
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--lr", type=float, default=0.008)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", help="write artifacts (.npz)")
    _add_ledger_flags(train)
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("evaluate", help="evaluate saved artifacts")
    evaluate.add_argument("model")
    evaluate.add_argument("benchmark")
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.set_defaults(func=_cmd_evaluate)

    hw = sub.add_parser("hw", help="hardware report for a design point")
    hw.add_argument("benchmark")
    hw.add_argument("--config", help="D_H,D_L,D_K,O,Theta (default: paper)")
    hw.set_defaults(func=_cmd_hw)

    search = sub.add_parser(
        "search",
        help="evolutionary co-design search (batched parallel evaluation "
        "with a persistent candidate cache)",
    )
    search.add_argument("benchmark")
    search.add_argument("--population", type=int, default=8)
    search.add_argument("--generations", type=int, default=4)
    search.add_argument("--proxy-epochs", type=int, default=3)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument(
        "--workers",
        type=int,
        default=1,
        help="candidate evaluators per generation (1 = serial, 0 = cpu count)",
    )
    search.add_argument(
        "--executor", choices=("process", "thread"), default="process",
        help="worker pool kind for --workers > 1 (default process)",
    )
    search.add_argument(
        "--cache",
        help="candidate-evaluation cache JSONL "
        "(default benchmarks/results/search_cache.jsonl)",
    )
    search.add_argument(
        "--no-cache", action="store_true", help="disable the persistent cache"
    )
    _add_ledger_flags(search)
    search.set_defaults(func=_cmd_search)

    profile = sub.add_parser(
        "profile", help="per-stage latency profile of the serving datapath"
    )
    profile.add_argument("benchmark")
    profile.add_argument("--n-train", type=int, default=120)
    profile.add_argument("--n-test", type=int, default=60)
    profile.add_argument("--epochs", type=int, default=2)
    profile.add_argument("--batch-size", type=int, default=16)
    profile.add_argument("--hop", type=int, default=None, help="streaming hop (frames)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--json", help="stage-breakdown JSON path (default <benchmark>-profile.json)")
    _add_ledger_flags(profile)
    profile.set_defaults(func=_cmd_profile)

    bench = sub.add_parser(
        "bench-throughput",
        help="samples/sec of packed.classify: seed vs fast vs fused vs "
        "worker pool",
    )
    bench.add_argument("benchmark")
    bench.add_argument("--batch", type=int, default=256, help="workload batch size")
    bench.add_argument("--repeats", type=int, default=3, help="timed runs per engine")
    bench.add_argument("--warmup", type=int, default=1, help="untimed warmup runs")
    bench.add_argument("--workers", type=int, default=None, help="pool size (default: cpu count)")
    bench.add_argument("--shard-size", type=int, default=None, help="samples per shard")
    bench.add_argument("--n-train", type=int, default=120)
    bench.add_argument("--n-test", type=int, default=60)
    bench.add_argument("--epochs", type=int, default=2)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--json", help="report JSON path (default <benchmark>-throughput.json)")
    _add_ledger_flags(bench)
    bench.set_defaults(func=_cmd_bench_throughput)

    def _add_serve_policy_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-batch", type=int, default=None,
            help="samples per micro-batch (default: REPRO_SERVE_BATCH or 64)",
        )
        p.add_argument(
            "--deadline-ms", type=float, default=None,
            help="per-request latency budget, reported with the policy; it "
            "does not time flushes (default: REPRO_SERVE_DEADLINE_MS or 50 ms)",
        )
        p.add_argument(
            "--max-queue", type=int, default=None,
            help="queued samples before load shedding "
            "(default: REPRO_SERVE_QUEUE or 1024)",
        )
        p.add_argument(
            "--max-inflight", type=int, default=None,
            help="micro-batches executing concurrently (pipeline depth; "
            "default: REPRO_SERVE_INFLIGHT or 2, 1 = fully serialized)",
        )
        p.add_argument("--workers", type=int, default=None, help="runner pool size")
        p.add_argument(
            "--shard-size", type=int, default=None, help="samples per runner shard"
        )
        p.add_argument(
            "--config", help="D_H,D_L,D_K,O,Theta model override (default: paper)"
        )
        p.add_argument("--n-train", type=int, default=120)
        p.add_argument("--n-test", type=int, default=60)
        p.add_argument("--epochs", type=int, default=2)
        p.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="micro-batching TCP serving daemon (newline-delimited JSON; "
        "Ctrl-C drains the queue before exiting)",
    )
    serve.add_argument("benchmark", nargs="?", default="bci-iii-v")
    serve.add_argument("--model", help="serve saved artifacts (.npz) instead of training")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765, help="0 picks a free port")
    serve.add_argument(
        "--slo-p99-ms", type=float, default=None,
        help="SLO p99 latency target in ms (default: REPRO_SLO_P99_MS or 50)",
    )
    serve.add_argument(
        "--slo-availability", type=float, default=None,
        help="SLO availability objective, e.g. 0.999 "
        "(default: REPRO_SLO_AVAILABILITY)",
    )
    serve.add_argument(
        "--scrub-interval-s", type=float, default=None,
        help="seconds between memory-scrub passes "
        "(default: REPRO_SCRUB_INTERVAL_S or 5; <=0 disables the loop)",
    )
    serve.add_argument(
        "--no-scrub", action="store_true",
        help="disable the integrity scrubber entirely",
    )
    serve.add_argument(
        "--max-line-bytes", type=int, default=None,
        help="largest accepted request line (default: REPRO_SERVE_MAX_LINE or 1 MiB)",
    )
    serve.add_argument(
        "--read-timeout-s", type=float, default=None,
        help="per-connection read timeout in seconds "
        "(default: REPRO_SERVE_READ_TIMEOUT_S or 30; 0 disables)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=None,
        help="concurrent connection cap (default: REPRO_SERVE_MAX_CONNS or 128)",
    )
    _add_serve_policy_flags(serve)
    _add_ledger_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    verify = sub.add_parser(
        "verify-artifacts",
        help="verify a saved model archive against its embedded integrity "
        "manifest (exit 1 on any digest mismatch)",
    )
    verify.add_argument("model", help="path to a saved artifact archive (.npz)")
    verify.add_argument(
        "--json", action="store_true", help="print the verification report as JSON"
    )
    verify.set_defaults(func=_cmd_verify_artifacts)

    top = sub.add_parser(
        "top",
        help="live terminal view over a serve daemon's admin endpoint "
        "(queue depth, flush counters, merged stage p99s, SLO budget)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8765)
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    top.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    top.set_defaults(func=_cmd_top)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="open-loop load generator against the micro-batching server: "
        "p50/p99/p99.9 latency and goodput vs offered load, verified "
        "bit-identical to inline inference",
    )
    serve_bench.add_argument("benchmark")
    serve_bench.add_argument(
        "--rates", default="1,5,15",
        help="offered loads as multiples of inline single-sample throughput "
        "(default 1,5,15)",
    )
    serve_bench.add_argument(
        "--rate", help="absolute offered loads in requests/s (overrides --rates)"
    )
    serve_bench.add_argument(
        "--duration", type=float, default=1.5, help="seconds per load point"
    )
    serve_bench.add_argument(
        "--trace", choices=("poisson", "bursty"), default="poisson",
        help="arrival process (default poisson)",
    )
    serve_bench.add_argument(
        "--clients", type=int, default=8, help="concurrent client streams"
    )
    serve_bench.add_argument(
        "--json", help="report JSON path (default <benchmark>-serve.json)"
    )
    _add_serve_policy_flags(serve_bench)
    _add_ledger_flags(serve_bench)
    serve_bench.set_defaults(func=_cmd_serve_bench)

    chaos = sub.add_parser(
        "chaos",
        help="run one resilient batch under an injected-fault spec "
        "(raise:P,delay:DUR,bitflip:RATE) and print the shard report",
    )
    chaos.add_argument("benchmark")
    chaos.add_argument(
        "--spec",
        help="chaos spec, e.g. 'raise:0.1,delay:5ms,bitflip:1e-4' "
        "(default: REPRO_CHAOS)",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0, help="fault-injection RNG seed"
    )
    chaos.add_argument("--batch", type=int, default=256, help="workload batch size")
    chaos.add_argument("--retries", type=int, default=None, help="max retries per shard")
    chaos.add_argument("--workers", type=int, default=None, help="pool size")
    chaos.add_argument("--shard-size", type=int, default=None, help="samples per shard")
    chaos.add_argument("--n-train", type=int, default=120)
    chaos.add_argument("--n-test", type=int, default=60)
    chaos.add_argument("--epochs", type=int, default=2)
    chaos.add_argument("--seed", type=int, default=0)
    _add_ledger_flags(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    sweep = sub.add_parser(
        "fault-sweep",
        help="accuracy vs stored-memory bit-flip rate, served through the "
        "resilient packed runtime",
    )
    sweep.add_argument("benchmark")
    sweep.add_argument(
        "--fractions",
        default="0.001,0.01,0.05,0.1",
        help="comma-separated flip fractions (default 0.001,0.01,0.05,0.1)",
    )
    sweep.add_argument(
        "--groups",
        help="comma-separated memory groups to corrupt (default: all)",
    )
    sweep.add_argument(
        "--reference",
        action="store_true",
        help="use the artifact-level integer reference path instead of the "
        "resilient serving path",
    )
    sweep.add_argument("--workers", type=int, default=None, help="pool size")
    sweep.add_argument("--shard-size", type=int, default=None, help="samples per shard")
    sweep.add_argument("--n-train", type=int, default=120)
    sweep.add_argument("--n-test", type=int, default=60)
    sweep.add_argument("--epochs", type=int, default=2)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--repair-after",
        action="store_true",
        help="also corrupt a live packed engine's resident memory at each "
        "fraction and measure accuracy after the integrity scrubber's hot "
        "repair (the recovery curve)",
    )
    sweep.add_argument(
        "--json",
        help="sweep JSON path (default benchmarks/results/<benchmark>-fault-sweep.json)",
    )
    _add_ledger_flags(sweep)
    sweep.set_defaults(func=_cmd_fault_sweep)

    trace = sub.add_parser(
        "trace",
        help="span-tree traces of end-to-end classifications "
        "(packed engine, hw simulator with modeled cycles, streaming)",
    )
    trace.add_argument("benchmark")
    trace.add_argument("--samples", type=int, default=4, help="samples to trace")
    trace.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="fraction of requests traced (deterministic, default 1.0)",
    )
    trace.add_argument("--n-train", type=int, default=120)
    trace.add_argument("--n-test", type=int, default=60)
    trace.add_argument("--epochs", type=int, default=2)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--jsonl", help="write captured traces as JSONL")
    trace.set_defaults(func=_cmd_trace)

    obs = sub.add_parser(
        "obs",
        help="run-ledger maintenance (compare runs, export records, "
        "emit trajectories)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    compare = obs_sub.add_parser(
        "compare",
        help="diff the latest ledger run against a baseline; "
        "exit 1 on accuracy or p95 latency regression",
    )
    compare.add_argument(
        "--ledger", help="ledger JSONL path (default benchmarks/results/ledger.jsonl)"
    )
    compare.add_argument("--task", help="task to compare (default: any latest)")
    compare.add_argument("--kind", help="restrict to a run kind (bench/profile/...)")
    compare.add_argument(
        "--baseline",
        default="prev",
        help="'prev' (previous ledger entry for the task) or a record JSON path",
    )
    compare.add_argument(
        "--max-accuracy-drop",
        type=float,
        default=0.02,
        help="largest tolerated absolute accuracy drop (default 0.02)",
    )
    compare.add_argument(
        "--max-p95-regression",
        type=float,
        default=0.5,
        help="largest tolerated relative p95 latency increase (0.5 = +50%%)",
    )
    compare.add_argument(
        "--max-throughput-drop",
        type=float,
        default=0.5,
        help="largest tolerated relative samples/sec drop (0.5 = -50%%)",
    )
    compare.add_argument(
        "--max-budget-burn",
        type=float,
        default=None,
        help="largest tolerated slo.budget_consumed in the current run "
        "(absolute fraction, e.g. 0.5; default: not checked)",
    )
    compare.add_argument(
        "--trajectories",
        help="directory for BENCH_<task>.json files (default: ledger directory)",
    )
    compare.set_defaults(func=_cmd_obs_compare)
    export = obs_sub.add_parser(
        "export",
        help="dump the latest ledger record as JSON or Prometheus text",
    )
    export.add_argument(
        "--ledger", help="ledger JSONL path (default benchmarks/results/ledger.jsonl)"
    )
    export.add_argument("--task", help="task to export (default: any latest)")
    export.add_argument("--kind", help="restrict to a run kind (bench/profile/...)")
    export.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="output format (default json)",
    )
    export.add_argument("--out", help="write to a file instead of stdout")
    export.set_defaults(func=_cmd_obs_export)

    report = sub.add_parser(
        "report", help="assemble benchmarks/results into one markdown report"
    )
    report.add_argument("--results", default="benchmarks/results")
    report.add_argument("--out", default="benchmarks/results/REPORT.md")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
