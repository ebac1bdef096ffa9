"""Shared utilities: metrics, tables, training loop.

Each name loads its submodule on first use, so rendering a table does
not import the training loop (and with it :mod:`repro.nn`)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".metrics": ("accuracy_score", "balanced_accuracy", "confusion_matrix", "f1_macro"),
        ".tables": ("render_kv", "render_table"),
        ".trainloop": ("TrainConfig", "TrainHistory", "evaluate_classifier", "fit_classifier"),
    },
)
