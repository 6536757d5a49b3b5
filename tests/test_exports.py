"""Every name the package exports and every name the benchmark's tracer
patches resolves.

``bench/spans.py`` patches functions by module and attribute name; a name
that goes away would otherwise only show in a traced benchmark run.
"""

import importlib

import hzreach
from hzreach import HybridZonotope

from conftest import bench_module


def test_every_exported_name_resolves():
    missing = [name for name in hzreach.__all__ if not hasattr(hzreach, name)]
    assert missing == []


def test_every_traced_name_resolves():
    spans = bench_module("spans")
    for _, module, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for meth in spans.METHODS:
        assert callable(HybridZonotope.__dict__.get(meth)), meth
