"""The benchmark harness times layers by wrapping library functions by
name; a rename in the library must not silently drop a layer."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_wrap_point_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPS
    missing = [
        (mod, attr)
        for mod, attr, _ in tracing.WRAPS
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []
