"""Decoder micro-benchmarks (pytest-benchmark), kept out of the test suite.

    python -m pytest bench --benchmark-only

Every run is saved under .benchmarks/ in the working directory; compare two
saved runs with `pytest-benchmark compare`.
"""

import sys
from pathlib import Path

from pytest_benchmark.utils import get_tag

# measure this checkout's sources, not an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def pytest_configure(config):
    # same as passing --benchmark-autosave: <counter>_<commit>_<time>.json
    if not config.option.benchmark_save and not config.option.benchmark_autosave:
        config.option.benchmark_autosave = get_tag()
