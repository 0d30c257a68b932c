import itertools
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from reluregions import (
    Dataset,
    ExperimentConfig,
    activation_pattern,
    forward,
    gen_cube_data,
    gen_gaussian_data,
    gen_labels,
    init_params,
    jacobian_full_rank,
    loss,
    region_global_min_report,
    run_globalmin_grid,
    run_rank_grid,
    run_singularity_study,
)
from reluregions import experiments, model
from reluregions.errors import InputError, InvariantViolation
from reluregions.experiments import (
    CSV_HEADER,
    MAX_RESAMPLE,
    GridResult,
    emit_outputs,
    grid_csv_text,
    grid_svg_text,
    read_grid_csv,
    resolve_d0,
)
from reluregions.linalg import Tol


def test_gaussian_data_deterministic():
    assert np.array_equal(gen_gaussian_data(3, 5, 42), gen_gaussian_data(3, 5, 42))


def test_gaussian_data_mean():
    X = gen_gaussian_data(100, 1000, 0)
    assert abs(X.mean()) <= 0.02


def test_gaussian_columns_distinct():
    X = gen_gaussian_data(1, 500, 7)
    assert np.unique(X[0]).size == 500


def test_cube_data_range_and_mean():
    X = gen_cube_data(100, 1000, 3)
    assert np.all((X >= -1.0) & (X <= 1.0))
    assert abs(X.mean()) <= 0.02
    assert np.array_equal(X, gen_cube_data(100, 1000, 3))


def test_labels_polynomial_degree_zero_constant():
    X = gen_cube_data(2, 8, 0)
    y = gen_labels("poly:0", X, 5)
    assert np.allclose(y, y[0])


def test_labels_polynomial_degree_two_quadratic():
    # On 1-d inputs a degree-2 label vector is fitted exactly by a parabola.
    X = gen_cube_data(1, 9, 1)
    y = gen_labels("poly:2", X, 5)
    V = np.vander(X[0], 3)
    coeffs, *_ = np.linalg.lstsq(V, y, rcond=None)
    assert np.allclose(V @ coeffs, y, atol=1e-10)


def test_labels_teacher_self_consistent():
    X = gen_cube_data(2, 6, 2)
    rng = np.random.default_rng(9)
    teacher = init_params("he", 2, 5, rng)
    y = forward(teacher, X)
    assert loss(teacher, Dataset(X, y)) == 0.0
    # gen_labels teacher path is deterministic per seed
    assert np.array_equal(gen_labels("teacher", X, 4, d1=5), gen_labels("teacher", X, 4, d1=5))


def test_labels_random_range():
    X = gen_cube_data(2, 50, 3)
    y = gen_labels("random", X, 8)
    assert np.all((y >= -1.0) & (y <= 1.0))


def test_labels_unknown_kind():
    with pytest.raises(InputError):
        gen_labels("fourier", np.ones((1, 2)), 0)
    with pytest.raises(InputError):
        gen_labels("teacher", np.ones((1, 2)), 0)  # missing d1


def test_init_sqrtd1_bounds():
    p = init_params("sqrtd1", 3, 16, 0)
    bound = 1.0 / 4.0
    assert np.all(np.abs(p.W) <= bound) and np.all(np.abs(p.b) <= bound)
    assert np.array_equal(p.v, np.where(np.arange(16) % 2 == 0, 1.0, -1.0))


def test_init_he_bounds():
    p = init_params("he", 6, 4, 1)
    bound = np.sqrt(1.0)
    assert np.all(np.abs(p.W) <= bound) and np.all(np.abs(p.b) <= bound)


def test_init_no_bias():
    assert init_params("sqrtd1", 2, 3, 0, bias=False).b is None


def test_init_unknown_scheme():
    with pytest.raises(InputError):
        init_params("xavier", 2, 3, 0)


def test_resolve_d0():
    assert resolve_d0("1", 8) == 1
    assert resolve_d0("n/4", 10) == 3
    assert resolve_d0("n/2", 10) == 5
    assert resolve_d0("n", 10) == 10
    assert resolve_d0("2n", 10) == 20
    with pytest.raises(InputError):
        resolve_d0("3n", 10)


@pytest.mark.parametrize(
    "call",
    [
        lambda bad: gen_gaussian_data(bad, 3, 0),
        lambda bad: gen_gaussian_data(1, bad, 0),
        lambda bad: gen_cube_data(bad, 3, 0),
        lambda bad: gen_cube_data(1, bad, 0),
        lambda bad: init_params("he", bad, 2, 0),
        lambda bad: init_params("he", 1, bad, 0),
    ],
)
@pytest.mark.parametrize("bad", [2.5, 2.0, "2", True])
def test_generator_sizes_must_be_integers(call, bad):
    with pytest.raises(InputError, match="must be an integer"):
        call(bad)


def test_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(n_values=(), d1_values=(2,))
    with pytest.raises(InputError):
        ExperimentConfig(n_values=(40,), d1_values=(2,))
    with pytest.raises(InputError):
        ExperimentConfig(n_values=(4,), d1_values=(500,))
    with pytest.raises(InputError):
        ExperimentConfig(n_values=(4,), d1_values=(2,), trials=0)


@pytest.mark.parametrize("field", ["n_values", "d1_values"])
@pytest.mark.parametrize("bad", [4.5, "5", True])
def test_config_grid_values_must_be_integers(field, bad):
    values = {"n_values": (4,), "d1_values": (2,)}
    with pytest.raises(InputError, match=f"each {field[:-7]} value must be an integer"):
        ExperimentConfig(**{**values, field: (bad,)})
    cfg = ExperimentConfig(**{**values, field: (np.int64(3),)})
    assert type(getattr(cfg, field)[0]) is int


def test_config_coerces_integer_fields():
    cfg = ExperimentConfig(n_values=(4,), d1_values=(2,), trials=np.int64(3), seed=np.int16(1), workers=np.uint8(2))
    assert (cfg.trials, cfg.seed, cfg.workers) == (3, 1, 2)
    assert all(type(v) is int for v in (cfg.trials, cfg.seed, cfg.workers))
    assert grid_csv_text(run_rank_grid(cfg)) == grid_csv_text(
        run_rank_grid(ExperimentConfig(n_values=(4,), d1_values=(2,), trials=3, seed=1, workers=2))
    )
    for name in ("trials", "seed", "workers"):
        for bad in (1.0, "1", None, True):
            with pytest.raises(InputError, match=name):
                ExperimentConfig(n_values=(4,), d1_values=(2,), **{name: bad})


def test_rank_grid_impossible_width_is_zero():
    # d1 * (d0 + 1) < n: rank can never reach n.
    cfg = ExperimentConfig(n_values=(6,), d1_values=(2,), d0_rule="1", trials=20, seed=1)
    result = run_rank_grid(cfg)
    assert result.cells[0].value == 0.0


def test_resample_budget_exhausted_raises(monkeypatch):
    # Both grids consult one boundary rule, model.on_boundary, once per
    # stacked round; every attempt of every trial is drawn exactly once.
    draws = []

    def always_degenerate(W, b, X, pre, tol):
        draws.append(int(np.prod(pre.shape[:-2])))
        return np.ones(pre.shape[:-2], dtype=bool)

    monkeypatch.setattr(model, "on_boundary", always_degenerate)
    cfg = ExperimentConfig(n_values=(3,), d1_values=(2,), trials=1, seed=4)
    for run in (run_rank_grid, run_globalmin_grid):
        draws.clear()
        with pytest.raises(InvariantViolation, match="resample budget"):
            run(cfg)
        assert sum(draws) == MAX_RESAMPLE


def test_rank_grid_high_dimension_saturates():
    cfg = ExperimentConfig(n_values=(4,), d1_values=(7,), d0_rule="n", trials=40, seed=2)
    result = run_rank_grid(cfg)
    assert result.cells[0].value >= 0.9


def test_rank_grid_1d_at_coverage_width():
    # At the coupon-collector width for n=10, eps=0.1 the sampled full-rank
    # frequency clears 0.9 (measured truth ~0.91).
    cfg = ExperimentConfig(n_values=(10,), d1_values=(93,), d0_rule="1", trials=100, seed=300)
    result = run_rank_grid(cfg)
    assert result.cells[0].value >= 0.9


def test_rank_grid_monotone_in_width():
    cfg = ExperimentConfig(n_values=(6,), d1_values=(2, 6, 10, 14), d0_rule="1", trials=60, seed=3)
    result = run_rank_grid(cfg)
    values = [c.value for c in result.cells]
    sigma = np.sqrt(0.25 / cfg.trials)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 3.0 * sigma


def test_globalmin_grid_impossible_width_is_zero():
    cfg = ExperimentConfig(n_values=(6,), d1_values=(2,), d0_rule="1", trials=15, seed=4, init="he")
    result = run_globalmin_grid(cfg)
    assert result.cells[0].value == 0.0


def test_globalmin_teacher_own_region_contains_zero_loss():
    rng = np.random.default_rng(11)
    X = gen_cube_data(2, 5, rng)
    p = init_params("he", 2, 8, rng)
    pattern, degenerate = activation_pattern(p, X)
    assert not degenerate
    y = forward(p, X)
    report = region_global_min_report(pattern, X, y, p.v)
    assert report.contains_zero_loss


def test_workers_do_not_change_results():
    base = ExperimentConfig(n_values=(4, 5), d1_values=(3, 5), d0_rule="1", trials=10, seed=5)
    multi = ExperimentConfig(n_values=(4, 5), d1_values=(3, 5), d0_rule="1", trials=10, seed=5, workers=4)
    assert grid_csv_text(run_rank_grid(base)) == grid_csv_text(run_rank_grid(multi))


def test_singularity_small_dims():
    result = run_singularity_study([1, 2], trials=2000, seed=6)
    assert abs(result.cells[0].value - 0.5) <= 0.05
    assert abs(result.cells[1].value - 0.625) <= 0.05


def test_singularity_validation():
    with pytest.raises(InputError):
        run_singularity_study([], trials=10, seed=0)
    with pytest.raises(InputError):
        run_singularity_study([2], trials=0, seed=0)
    for dims, trials, seed in (((4.5,), 10, 0), (("4",), 10, 0), ((4,), 3.0, 0), ((4,), 10, 1.0), ((4,), 10, True)):
        with pytest.raises(InputError):
            run_singularity_study(dims, trials=trials, seed=seed)
    assert run_singularity_study((np.int64(3),), trials=np.int32(50), seed=np.uint8(1)) == run_singularity_study(
        (3,), trials=50, seed=1
    )


def test_csv_layout_and_round_trip(tmp_path):
    cfg = ExperimentConfig(n_values=(4,), d1_values=(2, 4), d0_rule="1", trials=5, seed=7)
    result = run_rank_grid(cfg)
    text = grid_csv_text(result)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(result.cells)
    assert "\r" not in text
    path = tmp_path / "grid.csv"
    emit_outputs(result, csv_path=path)
    again = read_grid_csv(path)
    assert grid_csv_text(again) == text


def test_svg_one_rect_per_cell(tmp_path):
    cfg = ExperimentConfig(n_values=(4, 5), d1_values=(2, 4, 6), d0_rule="1", trials=3, seed=8)
    result = run_rank_grid(cfg)
    svg = grid_svg_text(result)
    assert svg.count("<rect") == len(result.cells)
    path = tmp_path / "grid.svg"
    emit_outputs(result, svg_path=path)
    assert path.read_text(encoding="utf-8") == svg


def test_emit_outputs_bad_path():
    result = GridResult("rank-grid", "full_rank_fraction", 0, ())
    with pytest.raises(InputError):
        emit_outputs(result, csv_path="/nonexistent-dir/x.csv")


def test_read_grid_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_grid_csv(path)


_GOOD_ROW = "rank-grid,4,2,4,5,7,full_rank_fraction,0.4,0"


@pytest.mark.parametrize(
    "row, message",
    [
        ("rank-grid,4,2,4,5,7,full_rank_fraction,abc,0", "must be a number"),
        ("rank-grid,4,2,4,5,7,full_rank_fraction,0.4", "expected 9 fields"),
        ("rank-grid,4,2,4,5,7,full_rank_fraction,0.4,0,9", "expected 9 fields"),
        ("rank-grid,4,2,4,5,7,full_rank_fraction,nan,0", "fraction in [0, 1]"),
        ("rank-grid,4,2,4,5,7,full_rank_fraction,inf,0", "fraction in [0, 1]"),
        ("rank-grid,4,2,4,5,7,full_rank_fraction,1.5,0", "fraction in [0, 1]"),
        ("rank-grid,4,2,4,5,7,full_rank_fraction,-0.1,0", "fraction in [0, 1]"),
        ("rank-grid,4,2,4,5,7,full_rank_fraction,0.4,-1", "resamples must be nonnegative"),
        ("rank-grid,4,2,-4,5,7,full_rank_fraction,0.4,0", "n must be nonnegative"),
        ("rank-grid,4,2,4,2.5,7,full_rank_fraction,0.4,0", "trials must be an integer"),
        ("rank-grid,4,2,4,5,x,full_rank_fraction,0.4,0", "seed must be an integer"),
        # Python's int() reads these as 10, 5, 7, 4 and 2; grid_csv_text writes none of them.
        ("rank-grid,4,2,4,1_0,7,full_rank_fraction,0.4,0", "trials must be an integer"),
        ("rank-grid,4,2,4,+5,7,full_rank_fraction,0.4,0", "trials must be an integer"),
        ("rank-grid,4,2,4,5, 7 ,full_rank_fraction,0.4,0", "seed must be an integer"),
        ("rank-grid,4,2,\u0664,5,7,full_rank_fraction,0.4,0", "n must be an integer"),
        ("rank-grid,4,2,4,5,7,full_rank_fraction,0.4,\u00b2", "resamples must be an integer"),
        ("globalmin-grid,4,2,4,5,7,full_rank_fraction,0.4,0", "differ from the first row"),
        ("rank-grid,4,2,4,5,7,zero_loss_fraction,0.4,0", "differ from the first row"),
        ("rank-grid,4,2,4,5,8,full_rank_fraction,0.4,0", "differ from the first row"),
    ],
)
def test_read_grid_csv_rejects_bad_rows(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n{_GOOD_ROW}\n{row}\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(message)):
        read_grid_csv(path)
    path.write_text(f"{CSV_HEADER}\n{_GOOD_ROW}\n\n{_GOOD_ROW}\n", encoding="utf-8")
    assert len(read_grid_csv(path).cells) == 2


def _reference_draws(cfg, cell, ci, t, labels):
    """(pattern, X, y, params, attempt) of one trial, drawn by the public single-draw API.

    Attempt ``a`` of trial ``t`` draws from its own generator, seeded by
    (seed, cell index, trial index, attempt): the data (cube data and then
    targets when ``labels``, else Gaussian data), then the first layer.  A
    draw on a region boundary is drawn again at the next attempt.
    """
    n, d0, d1 = cell
    for attempt in range(MAX_RESAMPLE):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, ci, t, attempt)))
        if labels:
            X = gen_cube_data(d0, n, rng)
            y = gen_labels(cfg.labels, X, rng, d1=d1, init=cfg.init, bias=cfg.bias)
        else:
            X, y = gen_gaussian_data(d0, n, rng), None
        params = init_params(cfg.init, d0, d1, rng, bias=cfg.bias)
        pattern, degenerate = activation_pattern(params, X, cfg.tol)
        if not degenerate:
            return pattern, X, y, params, attempt
    raise AssertionError("reference exhausted the resample budget")


def _rank_reference(cfg, cell, ci, t):
    pattern, X, _, _, attempt = _reference_draws(cfg, cell, ci, t, labels=False)
    return jacobian_full_rank(pattern, X, cfg.tol), attempt


def _globalmin_reference(cfg, cell, ci, t):
    pattern, X, y, params, attempt = _reference_draws(cfg, cell, ci, t, labels=True)
    return region_global_min_report(pattern, X, y, params.v, tol=cfg.tol).contains_zero_loss, attempt


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("init", ["sqrtd1", "he"])
@pytest.mark.parametrize("d0_rule", ["1", "n"])
@pytest.mark.parametrize("lp_tol", [None, 0.3])
def test_rank_block_matches_per_trial_loop(monkeypatch, bias, init, d0_rule, lp_tol):
    rng = np.random.default_rng([int(bias), len(init), len(d0_rule), int(lp_tol is None)])
    strict = lp_tol is not None
    # Under the strict tolerance, d0 = n = 3 with a bias can exhaust the resample budget.
    n_hi = 9 if not strict else 3 if d0_rule == "n" else 4
    cfg = ExperimentConfig(
        n_values=tuple(int(n) for n in rng.integers(2, n_hi, size=2)),
        d1_values=tuple(int(d) for d in rng.integers(1, 3 if strict else 13, size=2)),
        d0_rule=d0_rule,
        trials=30,
        seed=int(rng.integers(1000)),
        init=init,
        bias=bias,
        tol=Tol(lp_tol=lp_tol) if strict else Tol(),
    )
    resamples = 0
    for ci, cell in enumerate(cfg.cells()):
        expected = [_rank_reference(cfg, cell, ci, t) for t in range(cfg.trials)]
        resamples += sum(extra for _, extra in expected)
        assert experiments._rank_block(cfg, cell, ci, range(cfg.trials)) == expected
        assert experiments._rank_block(cfg, cell, ci, range(7, 19)) == expected[7:19]
    # The strict tolerance puts many attempt-0 draws on a boundary, except in
    # one dimension without a bias, where |w x| always equals its scale.
    assert (resamples > 0) == (strict and (bias or d0_rule == "n"))
    default = grid_csv_text(run_rank_grid(cfg))
    monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", 1)
    assert all(experiments._block_size(cfg, cell) == 1 for cell in cfg.cells())
    assert grid_csv_text(run_rank_grid(cfg)) == default


@pytest.mark.parametrize("labels", ["random", "poly:2", "teacher"])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("lp_tol", [None, 0.05])
def test_globalmin_block_matches_per_trial_loop(labels, bias, lp_tol):
    strict = lp_tol is not None
    cfg = ExperimentConfig(
        n_values=(3, 5),
        d1_values=(2, 7),
        d0_rule="n/2",
        trials=12,
        seed=len(labels) + 10 * bias + 100 * strict,
        labels=labels,
        init="he",
        bias=bias,
        tol=Tol(lp_tol=lp_tol) if strict else Tol(),
    )
    resamples = 0
    verdicts = set()
    for ci, cell in enumerate(cfg.cells()):
        expected = [_globalmin_reference(cfg, cell, ci, t) for t in range(cfg.trials)]
        resamples += sum(extra for _, extra in expected)
        verdicts.update(ok for ok, _ in expected)
        assert experiments._globalmin_block(cfg, cell, ci, range(cfg.trials)) == expected
        assert experiments._globalmin_block(cfg, cell, ci, range(4, 9)) == expected[4:9]
    assert (resamples > 0) == strict
    assert verdicts == {True, False}


@pytest.mark.parametrize("bias, d0_rule", [(True, "n"), (True, "1"), (False, "n"), (False, "n/2")])
def test_rank_grid_matches_per_trial_oracle_at_a_coarse_rank_tol(bias, d0_rule):
    """At rank_tol = 0.3 many trials reach the SVD fallback; all match the per-trial SVD answers."""
    cfg = ExperimentConfig(
        n_values=(3, 6), d1_values=(1, 2, 4, 7), d0_rule=d0_rule, trials=40, seed=31, bias=bias, tol=Tol(rank_tol=0.3)
    )
    expected = [
        sum(_rank_reference(cfg, cell, ci, t)[0] for t in range(cfg.trials)) / cfg.trials
        for ci, cell in enumerate(cfg.cells())
    ]
    values = [c.value for c in run_rank_grid(cfg).cells]
    assert values == expected
    assert any(0.0 < v < 1.0 for v in values)


def test_c8_rank_grid_runs_no_svd(monkeypatch):
    """Every C8 draw is settled by a zero pattern column or by the Gram certificate."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    cfg = ExperimentConfig(n_values=(4, 8, 16), d1_values=tuple(range(1, 11)), d0_rule="n", trials=100, seed=108)
    result = run_rank_grid(cfg)
    assert len(calls) == 0
    assert 0.0 < result.cells[0].value < result.cells[-1].value < 1.0


def test_rank_block_size_bounds_stacked_jacobians():
    cfg = ExperimentConfig(n_values=(30,), d1_values=(400,), d0_rule="2n", trials=1000)
    assert experiments._block_size(cfg, cfg.cells()[0]) == 1
    c8 = ExperimentConfig(n_values=(16,), d1_values=(10,), d0_rule="n", trials=1000)
    n, d0, d1 = cell = c8.cells()[0]
    size = experiments._block_size(c8, cell)
    assert 1 < size < c8.trials
    assert size * d1 * (d0 + 1) * n <= experiments._BLOCK_ENTRIES


def test_grid_results_are_slotted(tmp_path):
    cfg = ExperimentConfig(n_values=(4, 5), d1_values=(2, 6), d0_rule="1", trials=8, seed=12)
    result = run_rank_grid(cfg)
    for obj in (result, result.cells[0]):
        assert not hasattr(obj, "__dict__")
        # Python 3.11 raises TypeError for frozen slotted dataclasses (gh-90562).
        with pytest.raises((FrozenInstanceError, TypeError)):
            obj.seed = 1
    assert run_rank_grid(cfg) == result
    assert result != GridResult(result.experiment, result.metric, result.seed + 1, result.cells)
    path = tmp_path / "grid.csv"
    emit_outputs(result, csv_path=path)
    # Every value is a multiple of 1/8, so the CSV round trip is exact.
    assert read_grid_csv(path) == result


# Trial indices of a block: 0 first, then ints of one, two and three 32-bit words.
_TRIAL_INDICES = [0, 2**32 + 1, 1, 2**32 - 1, 2**64 + 1, 7, 2**32, 3, 12345, 2]
_WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 + 1]


def _first_draws(rng) -> bytes:
    return rng.standard_normal(16).tobytes() + rng.uniform(size=16).tobytes()


@pytest.mark.parametrize("size", [1, 2, 10])
def test_trial_rngs_match_tuple_seed_sequence(size):
    trials = _TRIAL_INDICES[:size]
    for seed, ci, attempt in itertools.product(_WORD_EDGES, repeat=3):
        cfg = ExperimentConfig(n_values=(1,), d1_values=(1,), seed=seed)
        rngs = experiments._trial_rngs(cfg, ci, trials, attempt)
        assert len(rngs) == size
        for t, rng in zip(trials, rngs):
            seq = np.random.SeedSequence(entropy=(seed, ci, t, attempt))
            state = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
            assert state.tobytes() == seq.generate_state(4, np.uint64).tobytes()
            assert _first_draws(rng) == _first_draws(np.random.default_rng(seq)), (seed, ci, t, attempt)


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("scheme", ["sqrtd1", "he"])
def test_uniform_weights_one_draw_matches_two_draws(scheme, bias):
    d0, d1 = 3, 5
    one = np.random.default_rng(17)
    W, b = experiments._uniform_weights(scheme, d0, d1, one, bias)
    two = np.random.default_rng(17)
    bound = 1.0 / np.sqrt(d1) if scheme == "sqrtd1" else np.sqrt(6.0 / d0)
    W_ref = two.uniform(-bound, bound, (d1, d0))
    b_ref = two.uniform(-bound, bound, d1) if bias else None
    assert W.shape == (d1, d0) and W.tobytes() == W_ref.tobytes()
    if bias:
        assert b.tobytes() == b_ref.tobytes()
    else:
        assert b is None
    # Both leave the generator at the same place for the draws that follow.
    assert one.random() == two.random()
    p = init_params(scheme, d0, d1, np.random.default_rng(17), bias=bias)
    assert p.W.tobytes() == W_ref.tobytes()
