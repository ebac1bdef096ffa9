"""Deployed entry points load only the modules they run.

A served UniVSA model runs XNOR/popcount over its extracted artifacts, so
``repro serve --model`` and a library caller of the batch runner must not
import the trainer, the hardware models, the data generators or the
search engine — nor ``multiprocessing``, since the runtime runs on
threads.  Each case runs in a fresh interpreter, because this test
process has long since imported everything.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.core import UniVSAConfig, UniVSAModel, extract_artifacts

SRC = Path(repro.cli.__file__).resolve().parents[1]

#: Packages a deployed model never runs.
UNUSED_AT_SERVE_TIME = (
    "multiprocessing",
    "concurrent.futures.process",
    "repro.nn",
    "repro.ldc",
    "repro.lehdc",
    "repro.hw",
    "repro.data",
    "repro.search",
    "repro.features",
    "repro.baselines",
    "repro.analysis",
)

#: The packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.runtime",
    "repro.obs",
    "repro.vsa",
    "repro.utils",
)

#: What a library caller of the batch runner imports (the benchmark's
#: ``batch-offline`` child).
OFFLINE_IMPORTS = """
from repro.core.export import UniVSAArtifacts
from repro.core.inference import BitPackedUniVSA
from repro.obs import NULL_REGISTRY, MetricsRegistry, snapshot, using_registry
from repro.runtime import ResilientBatchRunner
"""


#: What the daemon and the offline caller do before answering: load the
#: archive, build the engine and the runner, run one batch.
RUN_ONE_BATCH = """
import numpy as np
from repro.core.export import UniVSAArtifacts
from repro.core.inference import BitPackedUniVSA
from repro.runtime import ResilientBatchRunner

artifacts = UniVSAArtifacts.load(MODEL)
levels = np.zeros((4,) + tuple(artifacts.input_shape), dtype=np.int64)
with ResilientBatchRunner(BitPackedUniVSA(artifacts)) as runner:
    runner.run(levels)
"""


def _serve_model_imports() -> str:
    """The import statements ``_cmd_serve`` runs on the ``--model`` path:
    those directly in its body (the train-first branch nests its own)."""
    tree = ast.parse(Path(repro.cli.__file__).read_text(encoding="utf-8"))
    serve = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_cmd_serve"
    )
    return "\n".join(
        ast.unparse(node)
        for node in serve.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def _loaded_modules(code: str, model: Path) -> list[str]:
    program = (
        f"MODEL = {str(model)!r}\n"
        + code
        + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def model(tmp_path_factory) -> Path:
    config = UniVSAConfig(
        d_high=4, d_low=2, kernel_size=3, out_channels=6, voters=2, levels=8
    )
    artifacts = extract_artifacts(UniVSAModel((5, 8), 3, config, seed=0))
    return artifacts.save(tmp_path_factory.mktemp("lean") / "model.npz")


def _heavy(modules: list[str]) -> list[str]:
    return [
        m
        for m in modules
        if any(m == p or m.startswith(p + ".") for p in UNUSED_AT_SERVE_TIME)
    ]


@pytest.mark.parametrize("entry", ["serve-model", "offline-batch"])
def test_entry_point_loads_no_training_hardware_or_data_code(entry, model):
    if entry == "serve-model":
        imports = "import repro.cli\n" + _serve_model_imports()
    else:
        imports = OFFLINE_IMPORTS
    modules = _loaded_modules(imports + RUN_ONE_BATCH, model)
    assert "repro.runtime.resilience" in modules  # the code really ran
    assert _heavy(modules) == []


def test_every_exported_name_still_resolves():
    for package in LAZY_PACKAGES:
        module = importlib.import_module(package)
        assert len(set(module.__all__)) == len(module.__all__), package
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{package}.{name}"
            assert name in dir(module)
        with pytest.raises(AttributeError):
            getattr(module, "no_such_name")
