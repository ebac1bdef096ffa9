"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("info", "train", "evaluate", "hw", "search", "profile", "trace"):
            args = parser.parse_args(
                [command] + (["x", "y"] if command == "evaluate" else ["eegmmi"] if command != "info" else [])
            )
            assert args.command == command

    def test_obs_compare_registered(self):
        args = build_parser().parse_args(["obs", "compare", "--task", "t"])
        assert args.command == "obs"
        assert args.baseline == "prev"
        assert args.max_accuracy_drop == pytest.approx(0.02)
        assert args.max_throughput_drop == pytest.approx(0.5)

    def test_bench_throughput_registered(self):
        args = build_parser().parse_args(["bench-throughput", "bci-iii-v"])
        assert args.command == "bench-throughput"
        assert args.batch == 256

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_chaos_registered(self):
        args = build_parser().parse_args(
            ["chaos", "bci-iii-v", "--spec", "raise:0.1,delay:5ms"]
        )
        assert args.command == "chaos"
        assert args.spec == "raise:0.1,delay:5ms"
        assert args.batch == 256

    def test_fault_sweep_registered(self):
        args = build_parser().parse_args(["fault-sweep", "bci-iii-v"])
        assert args.command == "fault-sweep"
        assert args.fractions == "0.001,0.01,0.05,0.1"
        assert not args.reference

    def test_top_registered(self):
        args = build_parser().parse_args(["top", "--port", "9", "--once"])
        assert args.command == "top"
        assert args.once and args.port == 9
        assert args.interval == pytest.approx(2.0)

    def test_obs_export_registered(self):
        args = build_parser().parse_args(["obs", "export", "--format", "prom"])
        assert args.command == "obs"
        assert args.format == "prom"
        args = build_parser().parse_args(["obs", "export"])
        assert args.format == "json"

    def test_obs_compare_budget_burn_flag(self):
        args = build_parser().parse_args(
            ["obs", "compare", "--max-budget-burn", "0.5"]
        )
        assert args.max_budget_burn == pytest.approx(0.5)
        assert build_parser().parse_args(["obs", "compare"]).max_budget_burn is None

    def test_serve_slo_flags(self):
        args = build_parser().parse_args(
            ["serve", "--slo-p99-ms", "20", "--slo-availability", "0.99"]
        )
        assert args.slo_p99_ms == pytest.approx(20.0)
        assert args.slo_availability == pytest.approx(0.99)

    @pytest.mark.parametrize("command", ["serve", "serve-bench"])
    def test_serve_policy_reads_env_and_flags_win(self, command, monkeypatch):
        from repro.cli import _serve_policy
        from repro.runtime import ServePolicy

        argv = [command] if command == "serve" else [command, "bci-iii-v"]
        assert _serve_policy(build_parser().parse_args(argv)) == ServePolicy()
        monkeypatch.setenv("REPRO_SERVE_BATCH", "8")
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "20")
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "32")
        monkeypatch.setenv("REPRO_SERVE_INFLIGHT", "3")
        assert _serve_policy(build_parser().parse_args(argv)) == ServePolicy(
            max_batch=8, deadline_ms=20.0, max_queue=32, max_inflight=3
        )
        flags = ["--max-batch", "4", "--deadline-ms", "9", "--max-queue", "16"]
        assert _serve_policy(build_parser().parse_args(argv + flags)) == ServePolicy(
            max_batch=4, deadline_ms=9.0, max_queue=16, max_inflight=3
        )

    def test_serve_integrity_and_net_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--scrub-interval-s", "0.5", "--no-scrub",
                "--max-line-bytes", "4096", "--read-timeout-s", "2",
                "--max-connections", "7",
            ]
        )
        assert args.scrub_interval_s == pytest.approx(0.5)
        assert args.no_scrub is True
        assert args.max_line_bytes == 4096
        assert args.read_timeout_s == pytest.approx(2.0)
        assert args.max_connections == 7
        defaults = build_parser().parse_args(["serve"])
        assert defaults.scrub_interval_s is None and defaults.no_scrub is False
        assert defaults.max_line_bytes is None

    def test_fault_sweep_repair_after_flag(self):
        assert build_parser().parse_args(
            ["fault-sweep", "bci-iii-v", "--repair-after"]
        ).repair_after is True
        assert build_parser().parse_args(
            ["fault-sweep", "bci-iii-v"]
        ).repair_after is False

    def test_verify_artifacts_registered(self):
        args = build_parser().parse_args(["verify-artifacts", "model.npz", "--json"])
        assert args.model == "model.npz" and args.json is True


class TestInfo:
    def test_lists_benchmarks(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("eegmmi", "bci-iii-v", "chb-b", "chb-ib", "isolet", "har"):
            assert name in out
        assert "(8, 2, 3, 95, 1)" in out


class TestHw:
    def test_paper_config_report(self, capsys):
        assert main(["hw", "isolet"]) == 0
        out = capsys.readouterr().out
        assert "8.36 KB" in out
        assert "biconv" in out

    def test_custom_config(self, capsys):
        assert main(["hw", "isolet", "--config", "4,2,3,16,1"]) == 0
        out = capsys.readouterr().out
        assert "(4, 2, 3, 16, 1)" in out

    def test_bad_config_string(self):
        with pytest.raises(SystemExit):
            main(["hw", "isolet", "--config", "4,2,3"])


class TestTrainEvaluate:
    def test_train_and_evaluate_round_trip(self, capsys, tmp_path, monkeypatch):
        # Shrink the dataset for CLI-speed: patch default sizes.
        from repro.data import get_benchmark

        benchmark = get_benchmark("bci-iii-v")
        monkeypatch.setattr(
            type(benchmark), "default_train", property(lambda self: 90), raising=False
        )
        monkeypatch.setattr(
            type(benchmark), "default_test", property(lambda self: 45), raising=False
        )
        model_path = str(tmp_path / "model.npz")
        code = main(
            ["train", "bci-iii-v", "--epochs", "2", "--config", "4,2,3,8,1", "--out", model_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out
        assert "artifacts written" in out

        code = main(["evaluate", model_path, "bci-iii-v"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "KB" in out


class TestVerifyArtifacts:
    @pytest.fixture()
    def saved_model(self, tmp_path):
        from repro.core import UniVSAConfig, UniVSAModel, extract_artifacts

        config = UniVSAConfig(
            d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=10
        )
        artifacts = extract_artifacts(UniVSAModel((5, 8), 3, config, seed=0))
        return str(artifacts.save(tmp_path / "model.npz"))

    def test_clean_archive_exits_zero(self, capsys, saved_model):
        assert main(["verify-artifacts", saved_model]) == 0
        out = capsys.readouterr().out
        assert "all digests verified" in out
        assert "feature_vectors" in out

    def test_json_report(self, capsys, saved_model):
        import json

        assert main(["verify-artifacts", saved_model, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and "mask" in report["arrays"]

    def test_corrupted_archive_exits_nonzero_naming_array(self, capsys, saved_model):
        from repro.runtime.integrity import corrupt_stored_array

        name = corrupt_stored_array(saved_model, seed=2)
        assert main(["verify-artifacts", saved_model]) == 1
        err = capsys.readouterr().err
        assert "CORRUPT" in err and name in err

    def test_truncated_archive_exits_nonzero(self, capsys, saved_model):
        from repro.runtime.integrity import damage_archive

        damage_archive(saved_model, seed=3, mode="truncate")
        assert main(["verify-artifacts", saved_model]) == 1
        assert "unreadable archive" in capsys.readouterr().err

    def test_missing_archive_exits_nonzero(self, capsys, tmp_path):
        assert main(["verify-artifacts", str(tmp_path / "absent.npz")]) == 1
        assert "no such archive" in capsys.readouterr().err


class TestTrace:
    def test_trace_renders_span_trees(self, capsys, tmp_path):
        jsonl = tmp_path / "traces.jsonl"
        code = main(
            [
                "trace",
                "bci-iii-v",
                "--n-train", "80",
                "--n-test", "40",
                "--epochs", "1",
                "--samples", "2",
                "--jsonl", str(jsonl),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # One tree per root kind: packed engine, hw simulator, streaming.
        assert "(* = slowest path)" in out
        assert "packed.classify" in out
        assert "hwsim.sample" in out and "modeled=" in out
        assert "stream.decision" in out
        assert "trace(s) captured" in out

        from repro.obs import read_traces_jsonl

        traces = read_traces_jsonl(jsonl)
        assert traces and all(t["spans"] for t in traces)

    def test_zero_sample_rate_captures_nothing(self, capsys, tmp_path):
        code = main(
            [
                "trace",
                "bci-iii-v",
                "--n-train", "80",
                "--n-test", "40",
                "--epochs", "1",
                "--samples", "1",
                "--sample-rate", "0.0",
            ]
        )
        assert code == 1
        assert "no traces captured" in capsys.readouterr().out


class TestBenchThroughput:
    def test_smoke_writes_json_ledger_and_trajectory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ledger = tmp_path / "results" / "ledger.jsonl"
        code = main(
            [
                "bench-throughput",
                "bci-iii-v",
                "--batch", "16",
                "--repeats", "1",
                "--warmup", "0",
                "--n-train", "24",
                "--n-test", "12",
                "--epochs", "1",
                "--json", str(tmp_path / "tp.json"),
                "--ledger", str(ledger),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput bench" in out
        assert "speedup vs seed" in out
        for engine in ("seed", "fast", "fused", "parallel"):
            assert engine in out

        import json

        payload = json.loads((tmp_path / "tp.json").read_text())
        assert set(payload["engines"]) == {"seed", "fast", "fused", "parallel"}
        assert payload["traffic"]["fused"]["peak_intermediate_mb"] > 0
        assert ledger.exists()
        trajectory = json.loads(
            (ledger.parent / "BENCH_throughput.json").read_text()
        )
        assert trajectory["latest"]["metrics"]["samples_per_s"] > 0
        assert "speedup_vs_seed" in trajectory["latest"]["metrics"]


class TestChaosCommand:
    def test_smoke_prints_report_and_appends_ledger(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        code = main(
            [
                "chaos",
                "bci-iii-v",
                "--spec", "raise:0.4",
                "--chaos-seed", "3",
                "--batch", "32",
                "--shard-size", "8",
                "--workers", "2",
                "--n-train", "24",
                "--n-test", "12",
                "--epochs", "1",
                "--ledger", str(ledger),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resilient batch report" in out
        assert "breaker" in out
        assert "seed mismatches 0" in out
        from repro.obs import Ledger

        record = Ledger(ledger).latest(task="chaos")
        assert record is not None
        assert record.metrics["batch"] == 32.0
        assert "resilience.errors" in record.metrics  # registry harvest


class TestFaultSweepCommand:
    def test_smoke_writes_sidecar_and_ledger(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ledger = tmp_path / "ledger.jsonl"
        sidecar = tmp_path / "sweep.json"
        code = main(
            [
                "fault-sweep",
                "bci-iii-v",
                "--fractions", "0.0,0.05",
                "--n-train", "24",
                "--n-test", "12",
                "--epochs", "1",
                "--json", str(sidecar),
                "--ledger", str(ledger),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault sweep" in out
        assert "resilient serving" in out

        import json

        payload = json.loads(sidecar.read_text())
        assert payload["flip_fractions"] == [0.0, 0.05]
        assert payload["serving_path"] == "resilient"
        assert payload["degradation"][0] == pytest.approx(0.0)
        from repro.obs import Ledger

        record = Ledger(ledger).latest(task="fault-sweep")
        assert record is not None
        assert record.metrics["accuracy_flip_0.05"] == payload["accuracies"][1]

    def test_default_sidecar_lands_under_benchmarks_results(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "fault-sweep",
                "bci-iii-v",
                "--fractions", "0.0",
                "--reference",
                "--n-train", "24",
                "--n-test", "12",
                "--epochs", "1",
                "--no-ledger",
            ]
        )
        assert code == 0
        assert (tmp_path / "benchmarks/results/bci-iii-v-fault-sweep.json").exists()


class TestObsCompare:
    def _seed_ledger(self, path, accuracy, p95=0.1):
        import json

        from repro.obs import Ledger, RunRecord

        record = RunRecord(
            kind="profile",
            task="bci-iii-v",
            timestamp=1.0,
            run_id=f"profile-bci-iii-v-{int(accuracy * 1e6)}",
            git_rev="test",
            metrics={"accuracy": accuracy},
            stages={"packed.encode": {"p95_s": p95}},
        )
        Ledger(path).append(record)
        return json.loads(json.dumps(record.as_dict()))

    def test_no_records_exits_2(self, capsys, tmp_path):
        code = main(["obs", "compare", "--ledger", str(tmp_path / "none.jsonl")])
        assert code == 2
        assert "no ledger records" in capsys.readouterr().out

    def test_single_record_has_no_previous(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        self._seed_ledger(ledger, accuracy=0.9)
        code = main(["obs", "compare", "--ledger", str(ledger)])
        assert code == 0
        out = capsys.readouterr().out
        assert "nothing to compare" in out
        assert (tmp_path / "BENCH_bci-iii-v.json").exists()

    def test_prev_baseline_ok(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        self._seed_ledger(ledger, accuracy=0.90)
        self._seed_ledger(ledger, accuracy=0.91)
        code = main(["obs", "compare", "--ledger", str(ledger)])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_accuracy_regression_exits_1(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        self._seed_ledger(ledger, accuracy=0.95)
        self._seed_ledger(ledger, accuracy=0.80)
        code = main(["obs", "compare", "--ledger", str(ledger)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION: accuracy" in out

    def test_file_baseline_and_thresholds(self, capsys, tmp_path):
        import json

        ledger = tmp_path / "ledger.jsonl"
        baseline = self._seed_ledger(tmp_path / "other.jsonl", accuracy=0.95, p95=0.01)
        self._seed_ledger(ledger, accuracy=0.90, p95=0.10)
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        argv = ["obs", "compare", "--ledger", str(ledger), "--baseline", str(baseline_path)]
        assert main(argv) == 1  # 10x p95 and -0.05 accuracy both fail
        capsys.readouterr()
        # Loosened thresholds wave the same run through.
        assert (
            main(argv + ["--max-accuracy-drop", "0.1", "--max-p95-regression", "20"])
            == 0
        )
        assert "no regressions" in capsys.readouterr().out


class TestObsExport:
    def _seed_ledger(self, path):
        from repro.obs import Ledger, RunRecord

        Ledger(path).append(
            RunRecord(
                kind="bench",
                task="serve",
                timestamp=1.0,
                run_id="bench-serve-1",
                git_rev="test",
                metrics={"goodput": 123.0, "slo.budget_consumed": 0.25},
                stages={
                    "serve.latency": {
                        "count": 5, "total_s": 0.5,
                        "p50_s": 0.1, "p95_s": 0.2, "p99_s": 0.3,
                    }
                },
            )
        )

    def test_no_records_exits_2(self, capsys, tmp_path):
        code = main(["obs", "export", "--ledger", str(tmp_path / "none.jsonl")])
        assert code == 2
        assert "no ledger records" in capsys.readouterr().err

    def test_json_export_round_trips(self, capsys, tmp_path):
        import json

        ledger = tmp_path / "ledger.jsonl"
        self._seed_ledger(ledger)
        assert main(["obs", "export", "--ledger", str(ledger)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] == "bench-serve-1"
        assert payload["metrics"]["slo.budget_consumed"] == 0.25

    def test_prom_export_to_file(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        self._seed_ledger(ledger)
        out = tmp_path / "metrics.prom"
        code = main(
            [
                "obs", "export",
                "--ledger", str(ledger),
                "--format", "prom",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "repro_goodput 123" in text
        assert "repro_slo_budget_consumed 0.25" in text
        assert 'repro_serve_latency_seconds{quantile="0.99"} 0.3' in text
        assert "written to" in capsys.readouterr().out


class TestTop:
    def test_unreachable_daemon_exits_2(self, capsys):
        import socket

        # Reserve-then-release a port so nothing is listening on it.
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        code = main(["top", "--port", str(port), "--once"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_render_frame_shows_queue_slo_and_stages(self):
        from repro.cli import _render_top

        frame = _render_top(
            {
                "queue_depth": 3,
                "inflight": 8,
                "draining": False,
                "counters": {"serve.requests": 10, "serve.answered": 9},
                "slo": {
                    "objective": {"p99_ms": 50.0, "availability": 0.999},
                    "budget_remaining": 0.8,
                    "burn_rate_fast": 1.5,
                    "burn_rate_slow": 0.4,
                },
                "stages": {
                    "serve.latency": {
                        "count": 9, "total_s": 0.1,
                        "p50_s": 0.01, "p95_s": 0.02, "p99_s": 0.03,
                    },
                    "ignored.stage": {
                        "count": 1, "total_s": 1.0,
                        "p50_s": 1.0, "p95_s": 1.0, "p99_s": 1.0,
                    },
                },
            }
        )
        assert "queue depth" in frame and "3" in frame
        assert "engine" in frame and "? / ?" in frame  # an older daemon
        assert "p99<=50 ms @ 0.999" in frame
        assert "0.800" in frame
        assert "serve.latency" in frame
        assert "ignored.stage" not in frame


class TestServeDaemon:
    @pytest.mark.parametrize("cc", ["1", "0"])
    def test_banner_names_the_engine_and_keeps_its_prefix(self, cc, tmp_path):
        """``repro serve`` answers with the fused engine and says so in the
        banner, after the ``serving NAME on HOST:PORT (`` prefix that
        clients parse for the port."""
        import os
        import re
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.core import UniVSAConfig, UniVSAModel, extract_artifacts

        config = UniVSAConfig(
            d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=8
        )
        model = extract_artifacts(UniVSAModel((5, 8), 3, config, seed=0)).save(
            tmp_path / "model.npz"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "REPRO_CC": cc}
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", str(model),
             "--port", "0", "--no-ledger"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            banner = daemon.stdout.readline().decode()
        finally:
            daemon.send_signal(signal.SIGINT)
            daemon.communicate(timeout=30)
        assert re.match(r"serving \S+ on (\S+):(\d+) \(", banner), banner
        if cc == "0":
            assert "(engine fused/numpy, batch<=64," in banner, banner
        else:
            assert re.search(r"\(engine fused/(cc|numpy), batch<=64,", banner), banner


class TestObsCompareBudgetGate:
    def _seed(self, path, consumed):
        from repro.obs import Ledger, RunRecord

        Ledger(path).append(
            RunRecord(
                kind="bench",
                task="serve",
                timestamp=1.0,
                run_id=f"bench-serve-{consumed}",
                git_rev="test",
                metrics={"slo.budget_consumed": consumed},
            )
        )

    def test_burn_over_threshold_exits_1(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        self._seed(ledger, 0.1)
        self._seed(ledger, 0.9)
        argv = ["obs", "compare", "--ledger", str(ledger)]
        assert main(argv + ["--max-budget-burn", "0.5"]) == 1
        assert "slo.budget_consumed" in capsys.readouterr().out
        # Without the flag the same ledger passes (budget not gated).
        assert main(argv) == 0
        # And a generous threshold waves it through.
        assert main(argv + ["--max-budget-burn", "0.95"]) == 0


class TestSearch:
    def _shrink_benchmark(self, monkeypatch):
        from repro.data import get_benchmark

        benchmark = get_benchmark("bci-iii-v")
        monkeypatch.setattr(
            type(benchmark), "default_train", property(lambda self: 80), raising=False
        )
        monkeypatch.setattr(
            type(benchmark), "default_test", property(lambda self: 40), raising=False
        )

    def _argv(self, *extra):
        return [
            "search",
            "bci-iii-v",
            "--population", "3",
            "--generations", "2",
            "--proxy-epochs", "1",
            *extra,
        ]

    def test_search_runs(self, capsys, monkeypatch):
        self._shrink_benchmark(monkeypatch)
        code = main(self._argv("--no-cache"))
        assert code == 0
        out = capsys.readouterr().out
        assert "best config" in out
        assert "configs evaluated" in out
        cache_line = next(
            l for l in out.splitlines() if l.split(":")[0].strip() == "cache"
        )
        assert "disabled" in cache_line

    def test_search_warm_cache_rerun_skips_training(self, capsys, monkeypatch, tmp_path):
        self._shrink_benchmark(monkeypatch)
        cache = tmp_path / "cache.jsonl"
        ledger = tmp_path / "ledger.jsonl"
        argv = self._argv("--cache", str(cache), "--ledger", str(ledger))

        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "fresh trains" in cold and cache.exists()

        assert main(argv) == 0
        warm = capsys.readouterr().out
        fresh_line = next(l for l in warm.splitlines() if "fresh trains" in l)
        assert fresh_line.rstrip().endswith("0")

        def best_line(out):
            return next(l for l in out.splitlines() if "best config" in l)

        assert best_line(cold) == best_line(warm)

        from repro.obs import Ledger

        records = Ledger(ledger).read()
        assert len(records) == 2
        assert records[1].metrics["search_cache_hits"] >= 1
        assert records[1].metrics["search_evaluations"] == 0
        assert records[1].metrics["workers"] == 1
        assert "search.cache.hit" in records[1].metrics

    def test_search_workers_flag_matches_serial(self, capsys, monkeypatch, tmp_path):
        self._shrink_benchmark(monkeypatch)
        serial = self._argv("--no-cache", "--no-ledger")
        parallel = self._argv(
            "--no-cache", "--no-ledger", "--workers", "2", "--executor", "thread"
        )

        assert main(serial) == 0
        serial_out = capsys.readouterr().out
        assert main(parallel) == 0
        parallel_out = capsys.readouterr().out

        def best_line(out):
            return next(l for l in out.splitlines() if "best config" in l)

        assert best_line(serial_out) == best_line(parallel_out)
        assert "2 (thread)" in parallel_out
