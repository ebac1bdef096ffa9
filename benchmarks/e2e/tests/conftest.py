"""Tests of the end-to-end benchmark itself::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def obs_registry():
    """Shadow the paper benches' session fixture of the same name: it
    folds their run ledger into ``benchmarks/results/``, and the
    benchmark writes nothing there."""
    yield None
