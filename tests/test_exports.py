"""Every name the package exports and every name the benchmark's tracer
patches resolves.

``bench/spans.py`` patches functions by module and attribute name; a name
that goes away would otherwise only show in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import hzreach
from hzreach import HybridZonotope

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [name for name in hzreach.__all__ if not hasattr(hzreach, name)]
    assert missing == []


def test_every_traced_name_resolves():
    spans = _spans_module()
    for _, module, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for meth in spans.METHODS:
        assert callable(HybridZonotope.__dict__.get(meth)), meth
