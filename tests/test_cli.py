import hashlib

import numpy as np
import pytest

from reluregions.cli import main
from reluregions.experiments import CSV_HEADER, gen_labels
from reluregions.model import Dataset, Params, loss


def test_rank_grid_stdout(capsys):
    code = main(
        [
            "rank-grid",
            "--d0", "1",
            "--n-min", "4",
            "--d1-min", "2",
            "--d1-max", "4",
            "--d1-step", "2",
            "--trials", "5",
            "--seed", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_rank_grid_files(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    code = main(
        [
            "rank-grid",
            "--d0", "2",
            "--n-min", "3",
            "--n-max", "4",
            "--d1-min", "2",
            "--trials", "4",
            "--seed", "3",
            "--out-csv", str(csv_path),
            "--out-svg", str(svg_path),
        ]
    )
    assert code == 0
    text = csv_path.read_text(encoding="utf-8")
    assert text.startswith(CSV_HEADER)
    assert svg_path.read_text(encoding="utf-8").count("<rect") == 2
    capsys.readouterr()


def test_cli_determinism(tmp_path):
    args = [
        "globalmin-grid",
        "--d0", "1",
        "--n-min", "3",
        "--d1-min", "8",
        "--trials", "6",
        "--seed", "9",
        "--labels", "random",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out-csv", str(a)]) == 0
    assert main(args + ["--out-csv", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_enumerate_regions_1d(capsys):
    code = main(["enumerate-regions", "--d0", "1", "--n", "3", "--seed", "2", "--bias"])
    out = capsys.readouterr().out
    assert code == 0
    assert "feasible unit patterns: 6" in out


def test_enumerate_regions_counting_note(capsys):
    code = main(["enumerate-regions", "--d0", "2", "--n", "4", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "counting law gives 8" in out


def test_fit_1d_success(tmp_path, capsys):
    out_csv = tmp_path / "params.csv"
    code = main(
        ["fit-1d", "--n", "4", "--d1", "16", "--seed", "0", "--out-csv", str(out_csv)]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "unit,w,b,v"
    cells = np.array([[float(c) for c in line.split(",")[1:]] for line in lines[1:]])
    assert cells.shape == (16, 3)
    # Same draw as the command: sorted uniform x, then random labels.
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(-1.0, 1.0, 4))
    y = gen_labels("random", x[None, :], rng, d1=16)
    fit = loss(Params(cells[:, :1], cells[:, 1], cells[:, 2]), Dataset(x[None, :], y))
    assert fit < 1e-20
    assert f"loss={fit:.3e}" in out


def test_fit_1d_width_too_small(capsys):
    code = main(["fit-1d", "--n", "4", "--d1", "7"])
    err = capsys.readouterr().err
    assert code == 1
    assert "d1 >= 2n" in err


def test_singularity_stdout(capsys):
    code = main(["singularity", "--dims", "1,2", "--trials", "400", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert "singular_fraction" in lines[1]


def test_polyline_fixed_values(capsys):
    code = main(["polyline", "--x", "0,1,2"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 4
    first = np.array([float(t) for t in out[0].split(",")])
    assert np.allclose(first, [1.0, 0.0, 0.0])


def test_bad_arguments_exit_one(capsys):
    assert main(["rank-grid", "--d0", "1", "--d1-min", "2"]) == 1  # missing --n-min
    assert main(["polyline", "--x", "zero,one"]) == 1
    assert main(["singularity", "--dims", "2", "--trials", "0"]) == 1
    assert main(["enumerate-regions", "--d0", "n", "--n", "17"]) == 1  # 2^17 > 2^16 patterns
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate-regions", "--n", "-3"],
        ["fit-1d", "--n", "-1", "--d1", "4"],
        ["fit-1d", "--n", "2", "--d1", "0"],
        ["polyline", "--n", "-1"],
        ["polyline", "--n", "two"],
    ],
)
def test_sizes_must_be_positive_integers(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --") and "expected a positive integer" in err


def test_duplicate_x_rejected(capsys):
    assert main(["polyline", "--x", "1,1,2"]) == 1
    capsys.readouterr()


def test_internal_failure_exits_two(monkeypatch, capsys):
    from reluregions import cli
    from reluregions.errors import InvariantViolation

    def boom(_args):
        raise InvariantViolation("forced for the exit-code contract")

    def patched_parser():
        parser = build_unpatched()
        parser._subparsers._group_actions[0].choices["polyline"].set_defaults(run=boom)
        return parser

    build_unpatched = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", patched_parser)
    assert cli.main(["polyline", "--x", "0,1"]) == 2
    assert "internal error" in capsys.readouterr().err


def test_enumerate_regions_output_pinned(capsys):
    # Pinned stdout of the LP route on one planar dataset: 24 patterns in
    # lexicographic order and the counting-law summary.
    code = main(["enumerate-regions", "--d0", "2", "--n", "12", "--seed", "102"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == 25
    assert out.splitlines()[-1] == (
        "feasible unit patterns: 24 (general position; counting law gives 24)"
    )
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2eb9d2b1b60df74048f7c492ebc435119f9f14752ac810409a6f0014af0f1520"
    )


def test_enumerate_regions_1d_fast_path_output_pinned(capsys):
    # Pinned stdout of the sorted 1-d fast path with a bias: the 2n = 16
    # one-switch patterns, scattered into data order.
    code = main(["enumerate-regions", "--d0", "1", "--n", "8", "--bias", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "feasible unit patterns: 16 (general position; counting law gives 16)"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "48e4a921bd181f6ce96f3d045bc0006b034a5a5810537c39265e1cda1321753b"
    )


def test_globalmin_grid_tol_sets_lp_tol(capsys):
    from reluregions.experiments import ExperimentConfig, grid_csv_text, run_globalmin_grid
    from reluregions.linalg import Tol

    argv = ["globalmin-grid", "--n-min", "3", "--d1-min", "4", "--trials", "6", "--seed", "2"]
    assert main(argv + ["--tol", "0.05"]) == 0
    cfg = ExperimentConfig((3,), (4,), trials=6, seed=2, init="he", tol=Tol(lp_tol=0.05))
    assert capsys.readouterr().out == grid_csv_text(run_globalmin_grid(cfg))
    assert main(argv + ["--tol", "2"]) == 1
    assert "lp_tol must lie strictly between 0 and 1" in capsys.readouterr().err


def test_enumerate_regions_out_csv(tmp_path, capsys):
    path = tmp_path / "patterns.csv"
    assert main(["enumerate-regions", "--d0", "2", "--n", "4", "--seed", "5", "--out-csv", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"wrote {path}"
    patterns = out[:-2]
    assert len(patterns) == 8
    assert path.read_text(encoding="utf-8") == "\n".join(["pattern"] + patterns) + "\n"


def test_polyline_out_csv(tmp_path, capsys):
    from reluregions.funcspace import relu_polyline
    from reluregions.onedim import Sorted1D

    path = tmp_path / "polyline.csv"
    assert main(["polyline", "--x", "0,1,3", "--out-csv", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {path}"
    line = relu_polyline(Sorted1D.from_values([0.0, 1.0, 3.0], np.zeros(3)))
    rows = ["vertex,coord,raw,normalized"] + [
        f"{vi},{ci},{line.raw[vi, ci]:.6g},{line.vertices[vi, ci]:.6g}"
        for vi in range(line.vertices.shape[0])
        for ci in range(3)
    ]
    assert path.read_text(encoding="utf-8") == "\n".join(rows) + "\n"
    assert rows[1:4] == ["0,0,1,1", "0,1,0,0", "0,2,0,0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["singularity", "--dims", "2,x"], "bad --dims value '2,x'"),
        (["rank-grid", "--n-min", "3", "--n-step", "0", "--d1-min", "2"], "n step must be positive"),
        (["rank-grid", "--n-min", "4", "--n-max", "3", "--d1-min", "2"], "n range is empty"),
    ],
)
def test_bad_ranges_exit_one(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unexpected_exception_exits_two(monkeypatch, capsys):
    from reluregions import cli

    def boom(_data):
        raise ValueError("forced")

    monkeypatch.setattr(cli, "relu_polyline", boom)
    assert cli.main(["polyline", "--x", "0,1"]) == 2
    assert capsys.readouterr().err == "internal error: ValueError('forced')\n"
