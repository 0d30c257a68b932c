"""The benchmark's tracer finds every package name it wraps.

``perfbench/tracer.py`` replaces module-level names of the package with
timing wrappers.  A name that no longer resolves is skipped, and every
per-layer metric that needs it reads null, so renaming or dropping a hooked
function silently breaks the traced benchmark.  This test fails instead.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    if not (PERFBENCH / "tracer.py").is_file():
        pytest.skip("perfbench/tracer.py is not in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_tracer_hooks_resolve(tracer):
    unresolved = []
    for module, name, key in tracer.HOOKS:
        target = getattr(module, name, None)
        ok = isinstance(target, dict) if name == "_KERNELS" else callable(target)
        if not ok:
            unresolved.append(f"{module.__name__}.{name} ({key})")
    assert not unresolved


def test_traced_pass_measures_every_layer(tracer):
    with tracer.Tracer() as tr:
        pass
    assert not tr.missing
