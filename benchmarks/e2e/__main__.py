"""Command line of the end-to-end benchmark.

    PYTHONPATH=src python -m benchmarks.e2e run [--workload NAME]... [--seed N]
        [--seconds S] [--traced | --trace 0|1] [--json PATH]
    python -m benchmarks.e2e compare A.json... -- B.json...

``run`` prints every metric of every workload by name with its unit and,
as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  It exits 0 only when every answer matched the legacy
oracle; otherwise it prints no metric and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"


def _bootstrap() -> None:
    """Make the checkout importable and drop every ``REPRO_*`` knob, so
    the oracle and the recorded kernel configuration see what the
    system under test sees."""
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def machine() -> dict:
    import numpy

    from repro.vsa.kernels import kernel_info

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "kernel_info": kernel_info(),
        "git_rev": _git_rev(),
    }


def _format(value: float) -> str:
    return f"{value:.6g}"


def _cmd_run(args) -> int:
    from benchmarks.e2e.bench import run_workload
    from benchmarks.e2e.metrics import UNITS
    from benchmarks.e2e.sut import BenchError
    from benchmarks.e2e.workloads import WORKLOADS

    traced = bool(args.traced or args.trace)
    names = args.workload or list(WORKLOADS)
    shape = machine()
    print(
        f"machine: {shape['nproc']} CPUs, Python {shape['python']}, "
        f"NumPy {shape['numpy']}, kernels {shape['kernel_info']['set']}, "
        f"rev {shape['git_rev'] or 'unknown'}"
    )
    outcomes = []
    for name in names:
        workload = WORKLOADS[name]
        try:
            outcome = run_workload(workload, args.seed, args.seconds, traced)
        except BenchError as exc:
            print(f"error: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        outcomes.append(outcome)
        print(
            f"\n{name} (seed {args.seed}, {args.seconds:g} s, "
            f"{'traced' if traced else 'untraced'}): {outcome.attempted} attempted, "
            f"{outcome.failed} failed, tail = p{outcome.tail_pct:g}"
        )
        width = max(len(metric) for metric in outcome.metrics)
        for metric, value in outcome.metrics.items():
            print(f"  {metric.ljust(width)}  {_format(value)} {UNITS[metric]}")
        if outcome.spans is not None:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"{name}-seed{args.seed}-spans.jsonl"
            with open(path, "w", encoding="utf-8") as handle:
                for span in outcome.spans:
                    handle.write(json.dumps(span) + "\n")
            print(f"  client spans written to {path.relative_to(ROOT)}")
    if args.json:
        record = {
            "machine": shape,
            "runs": [
                {
                    "workload": o.workload,
                    "seed": o.seed,
                    "seconds": o.seconds,
                    "traced": o.traced,
                    "tail_pct": o.tail_pct,
                    "attempted": o.attempted,
                    "failed": o.failed,
                    "setup_samples_s": o.setup_samples,
                    "raw": o.raw,
                    "metrics": {
                        k: {"value": v, "unit": UNITS[k]} for k, v in o.metrics.items()
                    },
                }
                for o in outcomes
            ],
        }
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    single = len(outcomes) == 1
    summary = {
        "correct": True,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            (k if single else f"{o.workload}.{k}"): {"value": v, "unit": UNITS[k]}
            for o in outcomes
            for k, v in o.metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


def _cmd_compare(args) -> int:
    from benchmarks.e2e.compare import compare, render

    if "--" not in args.files:
        print("error: compare needs A.json... -- B.json...", file=sys.stderr)
        return 2
    split = args.files.index("--")
    a_paths, b_paths = args.files[:split], args.files[split + 1 :]
    if not a_paths or not b_paths:
        print("error: compare needs at least one file on each side of --", file=sys.stderr)
        return 2
    rows, regressed = compare(a_paths, b_paths)
    print(render(rows))
    return 1 if regressed else 0


def build_parser() -> argparse.ArgumentParser:
    from benchmarks.e2e.workloads import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads and print their metrics")
    run.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    run.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    run.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help=f"measured seconds per workload (default {RUN_SECONDS})",
    )
    run.add_argument(
        "--traced", action="store_true",
        help="report per-layer metrics instead of end-to-end ones",
    )
    run.add_argument("--trace", type=int, choices=(0, 1), default=0, help="same as --traced when 1")
    run.add_argument("--json", help="also write the full record (machine shape included) here")
    run.set_defaults(func=_cmd_run)
    cmp = sub.add_parser("compare", help="compare two sets of --json records")
    cmp.add_argument("files", nargs=argparse.REMAINDER, help="A.json... -- B.json...")
    cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    _bootstrap()
    # Turn SIGTERM into an exit that unwinds, so every spawned process is
    # stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        import repro
    except ImportError as exc:
        print(f"error: the program under test is missing: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: repro imported from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
