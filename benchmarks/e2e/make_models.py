"""Train the two models the end-to-end benchmark serves, once.

The benchmark must measure the program, not a model that moves with every
change to the trainer, so the archives under ``models/`` are committed and
this script is only re-run to regenerate them on purpose::

    PYTHONPATH=src python benchmarks/e2e/make_models.py

Both models use the task's paper configuration (Table I) and seed 0.  The
training budget is small: the benchmark checks answers against the legacy
oracle bit for bit, so accuracy does not enter any metric.  Training draws
the synthetic task data through ``repro.data`` (which caches under the
user's cache directory); the benchmark itself never does.
"""

from __future__ import annotations

import sys
from pathlib import Path

MODELS_DIR = Path(__file__).resolve().parent / "models"

#: task -> (n_train, n_test, epochs)
BUDGETS = {
    "bci-iii-v": (480, 160, 8),
    "chb-b": (240, 120, 6),
}
SEED = 0


def main() -> int:
    from repro import run_benchmark
    from repro.data import get_benchmark
    from repro.utils.trainloop import TrainConfig

    MODELS_DIR.mkdir(exist_ok=True)
    for task, (n_train, n_test, epochs) in BUDGETS.items():
        benchmark = get_benchmark(task)
        run = run_benchmark(
            task,
            train_config=TrainConfig(
                epochs=epochs,
                lr=0.008,
                seed=SEED,
                balance_classes=benchmark.spec.class_balance is not None,
            ),
            n_train=n_train,
            n_test=n_test,
            seed=SEED,
        )
        path = run.artifacts.save(MODELS_DIR / f"{task}.npz")
        print(
            f"{task}: config {run.config.as_paper_tuple()} "
            f"accuracy {run.accuracy:.3f} -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
