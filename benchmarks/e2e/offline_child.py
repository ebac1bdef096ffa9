"""The ``batch-offline`` system under test: one caller of the library.

Run by the benchmark, never by hand::

    python -m benchmarks.e2e.offline_child MODEL SEED SECONDS TRACED

It builds ``ResilientBatchRunner(BitPackedUniVSA(artifacts))`` with
library defaults, answers the first batch as one JSON line (``first``),
and then waits on stdin: ``exit`` ends it, ``go`` runs back-to-back
``run()`` calls over the seeded batches for SECONDS, each followed by
one :mod:`~benchmarks.e2e.hostref` probe, and prints one JSON result
line, after which it waits for ``exit`` so its peak memory can be read
while it is still alive.  With TRACED=1 the calls alternate between
blocks under a fresh ``MetricsRegistry`` and blocks under none, so the
two rates can be compared and the registry holds only the traced calls.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: Length of one traced or untraced block when TRACED=1.
BLOCK_S = 0.5


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _wait_for(word: str) -> None:
    for line in sys.stdin:
        if line.strip() == word:
            return
        if line.strip() == "exit":
            sys.exit(0)
    sys.exit(0)


def _timed_calls(runner, batches, seconds, probe, registry=None):
    """Back-to-back ``run()`` calls, each followed by one host probe.

    Returns per-mode call counts, samples, ok samples and call durations
    (probe time excluded), the probe times, and the last scores of each
    distinct batch.
    """
    from repro.obs import NULL_REGISTRY, using_registry

    modes = {
        name: {"calls": 0, "samples": 0, "ok": 0, "durations": []}
        for name in ("untraced", "traced")
    }
    probe_s = []
    last_scores = [None] * len(batches)
    call = 0
    now = time.perf_counter()
    deadline = now + seconds
    block = 0
    while now < deadline:
        traced = registry is not None and block % 2 == 1
        mode = modes["traced" if traced else "untraced"]
        block_end = min(deadline, now + BLOCK_S) if registry is not None else deadline
        with using_registry(registry if traced else NULL_REGISTRY):
            while now < block_end:
                index = call % len(batches)
                began = time.perf_counter()
                result = runner.run(batches[index])
                mode["durations"].append(time.perf_counter() - began)
                report = result.report
                mode["calls"] += 1
                mode["samples"] += len(batches[index])
                mode["ok"] += (
                    len(batches[index])
                    - len(report.failed_samples)
                    - len(report.quarantined)
                )
                last_scores[index] = result.scores
                call += 1
                probe_s.append(probe())
                now = time.perf_counter()
        block += 1
    return modes, probe_s, last_scores


def main(argv: list[str]) -> int:
    model, seed, seconds, traced = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    from repro.core.export import UniVSAArtifacts
    from repro.core.inference import BitPackedUniVSA
    from repro.obs import MetricsRegistry, snapshot
    from repro.runtime import ResilientBatchRunner

    from benchmarks.e2e.hostref import HostProbe
    from benchmarks.e2e.workloads import offline_batches

    artifacts = UniVSAArtifacts.load(model)
    batches = offline_batches(seed, artifacts.input_shape, artifacts.config.levels)
    with ResilientBatchRunner(BitPackedUniVSA(artifacts)) as runner, HostProbe() as probe:
        _emit({"first": runner.run(batches[0]).scores.tolist()})
        _wait_for("go")
        registry = MetricsRegistry() if traced else None
        cpu_before = os.times()
        modes, probe_s, last_scores = _timed_calls(runner, batches, seconds, probe, registry)
        cpu_after = os.times()
        _emit(
            {
                "modes": modes,
                "probe_s": probe_s,
                "cpu_s": (cpu_after.user - cpu_before.user)
                + (cpu_after.system - cpu_before.system),
                "scores": [None if s is None else s.tolist() for s in last_scores],
                "registry": snapshot(registry) if registry is not None else None,
            }
        )
        _wait_for("exit")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
