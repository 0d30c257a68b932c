"""Byte pins of rank-grid and globalmin-grid CSVs.

Each rank-grid sha256 below was recorded with the per-trial rank grid (one
SVD per trial), and each globalmin-grid sha256 with the per-trial globalmin
loop, before both grids drew their trials through one stacked
draw-and-resample path.  The grids must reproduce every byte: same draws,
same decisions, same resample counts.
"""

import hashlib

import pytest

from reluregions import experiments, optimize
from reluregions.cli import main
from reluregions.experiments import ExperimentConfig, grid_csv_text, run_globalmin_grid, run_rank_grid
from reluregions.linalg import Tol


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GRIDS = {
    # C8: d0 = n, the acceptance grid at its seed, widths and trial count.
    "c8": (
        dict(n_values=(4, 8, 16), d1_values=tuple(range(1, 11)), d0_rule="n", trials=1000, seed=108),
        "27fac0d22fad86666bfd5b54b556e56ae779c8d686346abf2484230ad373ef25",
    ),
    # 1-d inputs at C9's seed.
    "c9_1d": (
        dict(n_values=(4, 16), d1_values=tuple(range(2, 100, 4)), d0_rule="1", trials=100, seed=109),
        "dd6ec39ae2e4ffd3ee3b758276eff5a28343c1959d0496ce96646bb32f46d2af",
    ),
    "no_bias_sqrtd1": (
        dict(n_values=(3, 5, 8), d1_values=(1, 2, 4, 6, 9), d0_rule="n/2", trials=200, seed=7, init="sqrtd1", bias=False),
        "267e42d3e3139e4002b72906616092b2ec9750510e6d51521908696d1f73cbbc",
    ),
    # A strict boundary tolerance: 3375 resamples over 900 trials.
    "he_resampling": (
        dict(n_values=(3, 5), d1_values=(2, 4, 8), d0_rule="n/2", trials=150, seed=13, init="he", tol=Tol(lp_tol=0.05)),
        "211d061a30cbae7132978d23dc6a2e9aec883c34934ad6633d8e715ead5529c2",
    ),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_rank_grid_csv_pinned(name):
    kwargs, digest = GRIDS[name]
    assert _sha(grid_csv_text(run_rank_grid(ExperimentConfig(**kwargs)))) == digest


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_c11_rank_grid_pinned_for_any_worker_count(workers):
    cfg = ExperimentConfig(n_values=(5, 6), d1_values=(3, 5), d0_rule="1", trials=8, seed=111, workers=workers)
    digest = "f92f81183d723a1fe04fb01623bba9de8b38c86eec9312be3ff01edb45f6ae79"
    assert _sha(grid_csv_text(run_rank_grid(cfg))) == digest


def test_cli_rank_grid_stdout_pinned(capsys):
    args = [
        "rank-grid",
        "--d0", "n/2",
        "--n-min", "3", "--n-max", "7", "--n-step", "2",
        "--d1-min", "1", "--d1-max", "9", "--d1-step", "2",
        "--trials", "200",
        "--seed", "7",
        "--init", "sqrtd1",
        "--no-bias",
        "--workers", "2",
    ]
    assert main(args) == 0
    digest = "6ea8af1361f3b9be47ec000c56f4b1ff597bd71d255896564a1722ba6ce105f0"
    assert _sha(capsys.readouterr().out) == digest


GLOBALMIN_GRIDS = {
    "random_d0_1": (
        dict(n_values=(3, 6), d1_values=(2, 8, 24), d0_rule="1", trials=60, seed=31, labels="random", init="he"),
        "ed0cac6b14e6d02c0689b3ff30e5de52d2b934d76e0b835ef65de33fcc50ede4",
    ),
    "poly2_d0_2_no_bias": (
        dict(n_values=(3, 5), d1_values=(2, 6, 12), d0_rule="2", trials=60, seed=32, labels="poly:2", init="sqrtd1", bias=False),
        "5a46c25fa3b389a892768e01a747dd431da248496def8f7f60fa712c7d58d54a",
    ),
    # Re-pinned when the margin route began checking its witnesses: 16
    # "yes" whose witnesses sat on a region boundary now read "no" (HiGHS
    # agrees), in the cells (n, d1) = (4, 1), (4, 3) and (6, 1).
    "teacher_half_n": (
        dict(n_values=(4, 6), d1_values=(1, 3, 9), d0_rule="n/2", trials=60, seed=33, labels="teacher", init="he"),
        "7987003f73dbf0adcc6729f3d6433471ca493ec102e4ea904168ea5810597d41",
    ),
    # Re-pinned when the margin LP began setting roundoff-zero rows to exact
    # zero: trials 28 of (n, d1) = (3, 2) and 36 and 41 of (5, 2) turned
    # "yes" to "no" (HiGHS agrees).  Each has one unit that must be exactly
    # zero on the zero-loss set.
    "teacher_no_bias_d0_1": (
        dict(n_values=(3, 5), d1_values=(2, 5, 10), d0_rule="1", trials=60, seed=34, labels="teacher", init="sqrtd1", bias=False),
        "242799d51b8d23aa762ae041528df170cf68defad5f41cdaed2e59d87bc31d82",
    ),
    # A strict boundary tolerance: 1316 resamples over 360 trials.
    "strict_resampling": (
        dict(n_values=(3, 5), d1_values=(2, 4, 8), d0_rule="n/2", trials=60, seed=35, labels="poly:2", init="he", tol=Tol(lp_tol=0.05)),
        "fa9596c1cbcd9567a9ef941e96244b26cbe17625648dc719ae8d449a835887cf",
    ),
}


@pytest.mark.parametrize("name", sorted(GLOBALMIN_GRIDS))
def test_globalmin_grid_csv_pinned(name):
    kwargs, digest = GLOBALMIN_GRIDS[name]
    assert _sha(grid_csv_text(run_globalmin_grid(ExperimentConfig(**kwargs)))) == digest


# C10 (n = 5, d1 = 93) at the seed and trial count of its worker-count pin.
C10 = dict(n_values=(5,), d1_values=(93,), d0_rule="1", trials=200, seed=110, labels="random", init="he")

# Trials (cell index, trial) per grid whose verdict HiGHS does not share.
# None are left: the three "yes" of teacher_no_bias_d0_1 at (0, 28), (3, 36)
# and (3, 41) had one unit that must be exactly zero on the zero-loss set,
# and read "no" since the margin LP sets roundoff-zero rows to exact zero.
HIGHS_KNOWN = {}


@pytest.mark.parametrize("name", sorted(GLOBALMIN_GRIDS) + ["c10"])
def test_globalmin_grid_verdicts_match_highs(monkeypatch, name):
    # A pin records the verdicts of its day; HiGHS on the merged problem
    # checks that each one is right.
    pytest.importorskip("scipy.optimize")
    from test_optimize import _assert_verdicts_match_highs

    kwargs = C10 if name == "c10" else GLOBALMIN_GRIDS[name][0]
    cases = []

    def recording(A, X, y, v, tol):
        cases.append((A, X, y, v, optimize.region_global_min_report(A, X, y, v, tol)))
        return cases[-1][-1]

    monkeypatch.setattr(experiments, "region_global_min_report", recording)
    run_globalmin_grid(ExperimentConfig(**kwargs))
    trials = kwargs["trials"]
    _assert_verdicts_match_highs(cases, [ci * trials + t for ci, t in HIGHS_KNOWN.get(name, ())])


# One-trial blocks keep the worker path busy with many tasks.
@pytest.mark.parametrize("workers, block_entries", [(1, None), (2, None), (4, None), (4, 1)])
def test_c10_globalmin_grid_pinned_for_any_worker_count(monkeypatch, workers, block_entries):
    if block_entries is not None:
        monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", block_entries)
    cfg = ExperimentConfig(**C10, workers=workers)
    digest = "14072383c89836e547a27cedbcdcd9c5aead70b1eee14380a6348dd45c186f8b"
    assert _sha(grid_csv_text(run_globalmin_grid(cfg))) == digest
