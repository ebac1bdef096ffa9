"""UniVSA core: the paper's primary contribution.

Public API:

* :class:`UniVSAConfig` — the (D_H, D_L, D_K, O, Theta) design point;
* :func:`train_univsa` — LDC-style training of the full pipeline;
* :class:`UniVSAArtifacts` — the deployed pure-binary model;
* :class:`BitPackedUniVSA` — XNOR/popcount inference (hardware twin).

Each name loads its submodule on first use, so a caller that only runs a
deployed model never imports the trainer.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".adapt": ("AdaptationReport", "adapt_class_vectors"),
        ".config": ("UniVSAConfig",),
        ".model": ("UniVSAModel", "ChannelEncodingLayer", "SoftVotingHead"),
        ".export": ("UniVSAArtifacts", "extract_artifacts"),
        ".inference": ("BitPackedUniVSA",),
        ".train": ("UniVSAResult", "build_mask", "train_univsa"),
    },
)
