"""Every ``benchmarks/bench_*.py`` module imports, so a renamed algorithm
entry point fails here and not only when the benchmarks are run."""
import importlib
from pathlib import Path

import pytest

BENCH = sorted((Path(__file__).resolve().parent.parent / "benchmarks").glob("bench_*.py"))


def test_bench_modules_found():
    assert BENCH


@pytest.mark.parametrize("path", BENCH, ids=lambda p: p.stem)
def test_bench_module_imports(path):
    importlib.import_module(f"benchmarks.{path.stem}")
