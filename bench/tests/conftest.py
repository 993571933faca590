"""Make the benchmark scripts and the program importable from the tests."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def trace_module():
    """``bench/trace.py`` loaded by path (its name shadows a stdlib module)."""
    spec = importlib.util.spec_from_file_location(
        "bench_trace", BENCH / "trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def work(tmp_path, monkeypatch):
    """A private work directory for ``run``'s child processes."""
    import run

    path = tmp_path / "work"
    (path / "tmp").mkdir(parents=True)
    monkeypatch.setattr(run, "WORK", path)
    return path
