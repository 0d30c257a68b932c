"""The benchmark's tracer finds every package name it wraps.

``perfbench/tracer.py`` replaces module-level names of the package with
timing wrappers.  A name that no longer resolves is skipped, and every
per-layer metric that needs it reads null, so renaming or dropping a hooked
function silently breaks the traced benchmark.  This test fails instead.
"""

import importlib
from pathlib import Path

import pytest

from reluregions import experiments
from reluregions.linalg import Tol

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


@pytest.mark.parametrize("run", ["run_rank_grid", "run_globalmin_grid"])
def test_grids_draw_through_hooked_datagen(monkeypatch, run):
    """``experiments.datagen_ms`` times these module globals: one call each per drawn attempt."""
    calls = {name: 0 for name in ("gen_gaussian_data", "gen_cube_data", "gen_labels")}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(experiments, name, counted(name, getattr(experiments, name)))
    # A strict boundary tolerance, so that many trials are drawn more than once.
    cfg = experiments.ExperimentConfig(
        n_values=(3, 4), d1_values=(2, 3), d0_rule="n", trials=20, seed=3, init="he", tol=Tol(lp_tol=0.05)
    )
    result = getattr(experiments, run)(cfg)
    drawn = sum(c.trials + c.resamples for c in result.cells)
    assert sum(c.resamples for c in result.cells) > 0
    if run == "run_rank_grid":
        assert calls == {"gen_gaussian_data": drawn, "gen_cube_data": 0, "gen_labels": 0}
    else:
        assert calls == {"gen_gaussian_data": 0, "gen_cube_data": drawn, "gen_labels": drawn}


def test_globalmin_grid_reports_through_the_hooked_global(monkeypatch):
    """``optimize.report`` times this module global, and a traced run re-checks every "yes" witness from its calls.

    So the grid must call it once per scored trial: a batched report that
    bypassed it would leave that re-check with nothing to check.
    """
    calls = []
    original = experiments.region_global_min_report

    def counted(*args, **kwargs):
        report = original(*args, **kwargs)
        calls.append(report)
        return report

    monkeypatch.setattr(experiments, "region_global_min_report", counted)
    cfg = experiments.ExperimentConfig(n_values=(3, 5), d1_values=(2, 9), d0_rule="1", trials=7, seed=5, init="he")
    result = experiments.run_globalmin_grid(cfg)
    assert len(result.cells) == 4
    assert len(calls) == sum(c.trials for c in result.cells) == 4 * 7
    assert sum(r.contains_zero_loss for r in calls) == round(sum(c.value * c.trials for c in result.cells))
