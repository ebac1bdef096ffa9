"""repro — reproduction of UniVSA (DAC 2025).

"Holistic Design towards Resource-Stringent Binary Vector Symbolic
Architecture": an algorithm/hardware co-optimized binary VSA classifier.

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.core` — the UniVSA model, training, export, bit inference
* :mod:`repro.hw` — FPGA cycle/resource/power/memory models + simulator
* :mod:`repro.data` — the six synthetic benchmark tasks
* :mod:`repro.ldc`, :mod:`repro.lehdc`, :mod:`repro.baselines`,
  :mod:`repro.vsa` — baselines and the classic VSA substrate
* :mod:`repro.search` — evolutionary co-design search
* :mod:`repro.nn` — the numpy autograd training substrate

Every re-export loads its submodule on first use (:mod:`repro._lazy`).
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".core.config": ("UniVSAConfig",),
        ".core.model": ("UniVSAModel",),
        ".core.export": ("UniVSAArtifacts",),
        ".core.inference": ("BitPackedUniVSA",),
        ".core.train": ("train_univsa",),
        ".core.pipeline": ("BenchmarkRun", "run_benchmark", "evaluate_artifacts"),
    },
)
__all__ += ["__version__"]
