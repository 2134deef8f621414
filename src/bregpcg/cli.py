"""Command-line interface: solve one system, run a benchmark suite, or dump
the scaled-error spectrum.

Matrix files are Matrix Market (.mtx).  The benchmark collections referenced
in the documentation are available from the SuiteSparse matrix collection at
https://sparse.tamu.edu in Matrix Market format.
"""

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys

from . import harness
from .errors import Breakdown, NotPositiveDefinite, ParseError
from .harness import COMMAND_LABELS, LARGE_HEADER, ExperimentConfig, parse_config
from .matio import RHS_MODES, load_problem
from .precond import LABELS, POSITIVE_PART_METHODS, identity

_DEFAULTS = ExperimentConfig()

_DOWNLOAD_HINT = (
    "matrix files are Matrix Market (.mtx); the benchmark collections can be "
    "downloaded from the SuiteSparse collection at https://sparse.tamu.edu"
)


def _check_out(out) -> None:
    """Reject an output path that cannot be written before any matrix is
    loaded, so a bad path costs no run and gets no download hint."""
    folder = os.path.dirname(out) or os.curdir
    if not out or os.path.isdir(out) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ValueError(f"cannot write {out}: not a file in a writable directory")


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser():
    parser = argparse.ArgumentParser(prog="bregpcg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one system as its large-suite row")
    solve.add_argument("matrix", help="Matrix Market file")
    solve.add_argument("--precond", choices=COMMAND_LABELS, default="breg")
    group = solve.add_mutually_exclusive_group()
    group.add_argument("--rank", type=int, help="low-rank correction rank r")
    group.add_argument("--rank-frac", type=float, default=0.05, help="r = floor(n * frac)")
    solve.add_argument("--alpha", type=float, default=0.5, help="split for breg_alpha")
    solve.add_argument("--positive-part", choices=POSITIVE_PART_METHODS, default=_DEFAULTS.positive_part)
    solve.add_argument("--tol", type=float, default=_DEFAULTS.tol)
    solve.add_argument("--maxit", type=int, default=_DEFAULTS.maxit, help="0 means the large suite's 350")
    solve.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    solve.add_argument("--rhs", choices=RHS_MODES, default=_DEFAULTS.rhs_mode)
    solve.add_argument("--diag-shift", type=float, default=_DEFAULTS.diag_shift)
    solve.add_argument("--eig-tol", type=float, default=_DEFAULTS.eig_tol)
    solve.add_argument("--oversample", type=int, default=_DEFAULTS.oversample)
    solve.add_argument("--width-factor", type=float, default=_DEFAULTS.width_factor)
    solve.add_argument("--cap", type=int, default=_DEFAULTS.cap, help="densification cap")

    bench = sub.add_parser("bench", help="run a benchmark suite and write CSV")
    # flags given override the config file, which overrides the defaults
    bench.add_argument("matrices", nargs="*", help="Matrix Market files")
    bench.add_argument("--suite", choices=("small", "large"))
    bench.add_argument("--out", help="CSV path (default results.csv)")
    bench.add_argument("--config", help="key = value config file")
    bench.add_argument("--seed", type=int)
    bench.add_argument("--positive-part", choices=POSITIVE_PART_METHODS)

    spectrum = sub.add_parser("spectrum", help="dump the scaled-error spectrum to CSV")
    spectrum.add_argument("matrix", help="Matrix Market file")
    spectrum.add_argument("--out", default="spectrum.csv")
    spectrum.add_argument("--diag-shift", type=float, default=_DEFAULTS.diag_shift)
    spectrum.add_argument("--cap", type=int, default=_DEFAULTS.cap)
    return parser


def _check_fields(args, **renamed) -> ExperimentConfig:
    """The config of the flags that are ExperimentConfig fields, and of those
    ``renamed`` to one, checked by its rules, so a value no run can use costs
    no read."""
    fields = {name: value for name, value in vars(args).items() if name in vars(_DEFAULTS)}
    return ExperimentConfig(**fields, **renamed)


def _cmd_solve(args) -> int:
    cfg = _check_fields(args, suite="large", alphas=(args.alpha,), epsilons=(args.rank_frac,), rhs_mode=args.rhs)
    problem = harness.open_problem(cfg, args.matrix)
    label = args.precond
    r = args.rank if args.rank is not None else int(math.floor(problem.n * args.rank_frac))
    alpha = args.alpha if label == "breg_alpha" else None

    p = identity() if label == "none" else harness.factor_stage(problem.S, cfg.diag_shift)
    if label in LABELS:
        try:
            p = harness.row_preconditioner(cfg, problem, p, label, r, alpha, args.rank_frac)
        except ValueError as exc:  # parameters the builder cannot honour on this matrix
            print(f"error: {label}: {exc}", file=sys.stderr)
            return 2
    report = harness.solve_report(cfg, problem, p)
    row = harness.large_row(problem.name, problem.n, label, r if label in LABELS else None, alpha, p, report)

    print(f"matrix            {problem.name} (n={problem.n}, nnz={problem.S.nnz}, origin={problem.origin})")
    path = os.path.normpath(args.matrix)
    print(f"rhs               {problem.rhs_mode} (seed={cfg.seed} hashed with {path}, unit 2-norm)")
    for key, cell in zip(LARGE_HEADER[2:], row[2:]):
        print(f"{key:<17} {cell}".rstrip())
    return 0 if report.converged else 1


def _cmd_bench(args) -> int:
    try:
        cfg = parse_config(args.config) if args.config else ExperimentConfig()
        given = {
            "suite": args.suite,
            "matrices": tuple(args.matrices) or None,
            "seed": args.seed,
            "positive_part": args.positive_part,
            "out": args.out or cfg.out or "results.csv",
        }
        cfg = dataclasses.replace(cfg, **{key: value for key, value in given.items() if value is not None})
        cfg.resolved_preconditioners()  # only a config names labels; check them before any run
    except (OSError, ValueError) as exc:  # a config file that cannot be read or used
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 2
    if not cfg.matrices:
        print("no matrices given (positional arguments or 'matrices = ...' in the config)", file=sys.stderr)
        print(_DOWNLOAD_HINT, file=sys.stderr)
        return 2
    _check_out(cfg.out)
    runner = harness.run_small_suite if cfg.suite == "small" else harness.run_large_suite
    rows = runner(cfg)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def _cmd_spectrum(args) -> int:
    _check_fields(args)
    _check_out(args.out)
    problem = load_problem(args.matrix)
    factor = harness.factor_stage(problem.S, args.diag_shift).Q
    rows = harness.spectrum_rows(problem.S, factor, cap=args.cap)
    harness.write_csv(args.out, harness.SPECTRUM_HEADER, rows)
    print(f"wrote {len(rows)} eigenvalues to {args.out}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_spectrum(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_DOWNLOAD_HINT, file=sys.stderr)
        return 2
    except Breakdown as exc:  # solve and spectrum: the suites capture a breakdown as a row
        print(f"error: incomplete Cholesky broke down in row {exc.row} at --diag-shift {args.diag_shift}; "
              "retry with a larger one", file=sys.stderr)
        return 2
    except (ParseError, NotPositiveDefinite) as exc:  # an input the solver cannot take
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # parameters or an --out the run cannot take, such as --rhs atb on a square matrix
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
