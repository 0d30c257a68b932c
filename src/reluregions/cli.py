"""Command-line interface.

Subcommands: rank-grid, globalmin-grid, enumerate-regions, fit-1d,
singularity, polyline.  Grid commands print the result CSV to stdout unless
--out-csv is given.  Exit codes: 0 success, 1 input error, 2 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import InputError, InvariantViolation
from .experiments import (
    ExperimentConfig,
    _head,
    _write_text,
    emit_outputs,
    gen_gaussian_data,
    gen_labels,
    grid_csv_text,
    resolve_d0,
    run_globalmin_grid,
    run_rank_grid,
    run_singularity_study,
)
from .funcspace import relu_polyline
from .linalg import Tol, embed_ones
from .model import Dataset
from .model import loss as model_loss
from .onedim import Sorted1D, fit_exact_1d, random_complete_step_matrix
from .regions import (
    GENERAL_POSITION_MAX_N,
    certify_general_position,
    count_regions_general_position,
    enumerate_feasible_unit_patterns,
)


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input errors (exit 1), not internal failures.
    def error(self, message):
        raise InputError(message)


def _positive_int(text: str) -> int:
    """argparse type of a size: a positive integer, else a usage error (exit 1)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_grid_flags(p: argparse.ArgumentParser, default_init: str) -> None:
    p.add_argument("--d0", default="1", help="input dimension: integer or one of n/4, n/2, n, 2n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--d1-min", type=int, required=True)
    p.add_argument("--d1-max", type=int, default=None)
    p.add_argument("--d1-step", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("sqrtd1", "he"), default=default_init)
    p.add_argument("--bias", dest="bias", action="store_true", default=True)
    p.add_argument("--no-bias", dest="bias", action="store_false")
    p.add_argument("--tol", type=float, default=None, help="feasibility margin threshold (lp_tol)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-svg", default=None)


def _tol(args) -> Tol:
    if getattr(args, "tol", None) is None:
        return Tol()
    return Tol(lp_tol=args.tol)


def _range(lo: int, hi: int | None, step: int, name: str) -> tuple:
    hi = lo if hi is None else hi
    if step < 1:
        raise InputError(f"{name} step must be positive")
    if hi < lo:
        raise InputError(f"{name} range is empty")
    return tuple(range(lo, hi + 1, step))


def _grid_config(args, labels: str = "random") -> ExperimentConfig:
    return ExperimentConfig(
        n_values=_range(args.n_min, args.n_max, args.n_step, "n"),
        d1_values=_range(args.d1_min, args.d1_max, args.d1_step, "d1"),
        d0_rule=args.d0,
        trials=args.trials,
        seed=args.seed,
        labels=labels,
        init=args.init,
        bias=args.bias,
        tol=_tol(args),
        workers=args.workers,
    )


def _deliver(result, args) -> None:
    if args.out_csv is None and args.out_svg is None:
        sys.stdout.write(grid_csv_text(result))
        return
    emit_outputs(result, csv_path=args.out_csv, svg_path=args.out_svg)
    for path in (args.out_csv, args.out_svg):
        if path is not None:
            print(f"wrote {path}")


def _write_lines(path: str, lines: list) -> None:
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")


def _cmd_rank_grid(args) -> int:
    _deliver(run_rank_grid(_grid_config(args)), args)
    return 0


def _cmd_globalmin_grid(args) -> int:
    _deliver(run_globalmin_grid(_grid_config(args, labels=args.labels)), args)
    return 0


def _cmd_enumerate(args) -> int:
    d0 = resolve_d0(args.d0, args.n)
    X = gen_gaussian_data(d0, args.n, args.seed)
    patterns = enumerate_feasible_unit_patterns(X, bias=args.bias, tol=_tol(args))
    lines = ["pattern"]
    for u in patterns:
        text = "".join(str(bit) for bit in u.a)
        print(text)
        lines.append(text)
    summary = f"feasible unit patterns: {len(patterns)}"
    if args.n <= GENERAL_POSITION_MAX_N:
        Xeff = embed_ones(X) if args.bias else X
        if certify_general_position(Xeff):
            summary += (
                " (general position; counting law gives "
                f"{count_regions_general_position(args.n, Xeff.shape[0], 1)})"
            )
    print(summary)
    if args.out_csv is not None:
        _write_lines(args.out_csv, lines)
    return 0


def _cmd_fit_1d(args) -> int:
    if args.d1 < 2 * args.n:
        raise InputError("fit-1d needs d1 >= 2n so a complete pattern exists")
    rng = np.random.default_rng(args.seed)
    x = np.sort(rng.uniform(-1.0, 1.0, args.n))
    while np.any(np.diff(x) <= 0.0):
        x = np.sort(rng.uniform(-1.0, 1.0, args.n))
    y = gen_labels(args.labels, x[None, :], rng, d1=args.d1)
    data = Sorted1D.from_values(x, y)
    v = _head(args.d1)
    A = random_complete_step_matrix(args.n, v, rng)
    params = fit_exact_1d(A, data, v, _tol(args))
    fit = model_loss(params, Dataset(data.as_columns(), data.y))
    print(f"fit-1d n={args.n} d1={args.d1} seed={args.seed} loss={fit:.3e}")
    if args.out_csv is not None:
        rows = ["unit,w,b,v"]
        for i in range(args.d1):
            rows.append(f"{i},{float(params.W[i, 0])!r},{float(params.b[i])!r},{float(params.v[i])!r}")
        _write_lines(args.out_csv, rows)
    return 0


def _cmd_singularity(args) -> int:
    try:
        dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"bad --dims value {args.dims!r}")
    result = run_singularity_study(dims, args.trials, args.seed)
    _deliver(result, args)
    return 0


def _cmd_polyline(args) -> int:
    if args.x is not None:
        try:
            values = [float(tok) for tok in args.x.split(",") if tok.strip()]
        except ValueError:
            raise InputError(f"bad --x value {args.x!r}")
    else:
        rng = np.random.default_rng(args.seed)
        values = np.sort(rng.uniform(-1.0, 1.0, args.n)).tolist()
    data = Sorted1D.from_values(values, np.zeros(len(values)))
    line = relu_polyline(data)
    for vertex in line.vertices:
        print(",".join(format(c, ".6g") for c in vertex))
    if args.out_csv is not None:
        rows = ["vertex,coord,raw,normalized"]
        for vi in range(line.vertices.shape[0]):
            for ci in range(line.n_points):
                rows.append(
                    f"{vi},{ci},{format(line.raw[vi, ci], '.6g')},"
                    f"{format(line.vertices[vi, ci], '.6g')}"
                )
        _write_lines(args.out_csv, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="reluregions", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank-grid", help="Monte Carlo grid of full-rank Jacobian frequency")
    _add_grid_flags(p, default_init="sqrtd1")
    p.set_defaults(run=_cmd_rank_grid)

    p = sub.add_parser("globalmin-grid", help="Monte Carlo grid of zero-loss-region frequency")
    _add_grid_flags(p, default_init="he")
    p.add_argument("--labels", default="random", help="poly:<deg> | teacher | random")
    p.set_defaults(run=_cmd_globalmin_grid)

    p = sub.add_parser("enumerate-regions", help="list all feasible per-unit patterns")
    p.add_argument("--d0", default="1")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bias", dest="bias", action="store_true", default=False)
    p.add_argument("--no-bias", dest="bias", action="store_false")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("fit-1d", help="exact zero-loss fit inside a random complete region")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d1", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", default="random")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(run=_cmd_fit_1d)

    p = sub.add_parser("singularity", help="singularity frequency of iid 0/1 matrices")
    p.add_argument("--dims", default="2,4,8,12")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(run=_cmd_singularity)

    p = sub.add_parser("polyline", help="vertices of the single-unit function-space polyline")
    p.add_argument("--x", default=None, help="comma-separated data values")
    p.add_argument("--n", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(run=_cmd_polyline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
