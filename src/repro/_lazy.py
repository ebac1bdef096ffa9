"""Lazy package exports (PEP 562).

The packages re-export names defined in their submodules.  Importing
every submodule from ``__init__`` would make each caller compile all of
them — ``repro serve --model`` would load the trainer, the hardware
models and the data generators although it runs none of them.  With
:func:`lazy_exports` a submodule loads when one of its names is first
used.
"""

from __future__ import annotations

import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule, relative to ``package``, to the
    public names it defines.  A name is imported from its submodule on
    first access and cached in the package namespace, so later lookups
    never reach ``__getattr__``.
    """
    where = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        # __import__, not importlib.import_module: only the former is
        # recorded by ``python -X importtime``.
        value = getattr(__import__(package + module, fromlist=[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, list(where)
