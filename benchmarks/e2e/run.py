"""Benchmark entry point, as ``BENCHMARK.json`` runs it from the root::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The same as ``python -m benchmarks.e2e run`` with those options.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Import the package from the checkout root, not this directory,
    # whose module names would shadow top-level ones.
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.e2e.__main__ import main

    sys.exit(main(["run", *sys.argv[1:]]))
