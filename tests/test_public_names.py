"""The names the benchmark's tracer wraps and the names the package exports
must resolve.  The benchmark's own tests are not part of this suite, so a
deleted or renamed name would otherwise only surface as a crash of the
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import mapprune

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _, _ in _load_tracing(monkeypatch).TARGETS
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []


def test_exported_names_exist():
    assert [name for name in mapprune.__all__ if not hasattr(mapprune, name)] == []
