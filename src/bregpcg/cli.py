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

from . import harness, rng
from .eigsolve import EigsParams
from .errors import Breakdown, NotPositiveDefinite, ParseError
from .harness import COMMAND_LABELS, ExperimentConfig, parse_config
from .matio import RHS_MODES, load_problem
from .pcg import pcg_solve
from .precond import LABELS, POSITIVE_PART_METHODS, build, identity
from .sketch import SketchParams

_DEFAULTS = ExperimentConfig()

_DOWNLOAD_HINT = (
    "matrix files are Matrix Market (.mtx); the benchmark collections can be "
    "downloaded from the SuiteSparse collection at https://sparse.tamu.edu"
)


def _check_out(out) -> None:
    """Reject an output path that cannot be written before any matrix is
    loaded, so a bad path costs no run and gets no download hint."""
    folder = os.path.dirname(out) or os.curdir
    if os.path.isdir(out) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ValueError(f"cannot write {out}: not a file in a writable directory")


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser():
    parser = argparse.ArgumentParser(prog="bregpcg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one system with a chosen preconditioner")
    solve.add_argument("matrix", help="Matrix Market file")
    solve.add_argument("--precond", choices=COMMAND_LABELS, default="breg")
    group = solve.add_mutually_exclusive_group()
    group.add_argument("--rank", type=int, help="low-rank correction rank r")
    group.add_argument("--rank-frac", type=float, default=0.05, help="r = floor(n * frac)")
    solve.add_argument("--alpha", type=float, default=0.5, help="split for breg_alpha")
    solve.add_argument("--positive-part", choices=POSITIVE_PART_METHODS, default=_DEFAULTS.positive_part)
    solve.add_argument("--tol", type=float, default=_DEFAULTS.tol)
    solve.add_argument("--maxit", type=int, default=_DEFAULTS.maxit, help="0 means the default")
    solve.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    solve.add_argument("--rhs", choices=RHS_MODES, default=_DEFAULTS.rhs_mode)
    solve.add_argument("--diag-shift", type=float, default=_DEFAULTS.diag_shift)
    solve.add_argument("--eig-tol", type=float, default=_DEFAULTS.eig_tol)
    solve.add_argument("--eig-budget", type=int, default=EigsParams.max_restarts, help="restarts and slack")
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
    cfg = _check_fields(args, alphas=(args.alpha,), epsilons=(args.rank_frac,), rhs_mode=args.rhs)
    problem = load_problem(args.matrix, seed=args.seed, rhs_mode=args.rhs)
    s, b, n = problem.S, problem.b, problem.n
    r = args.rank if args.rank is not None else int(math.floor(n * args.rank_frac))
    label = args.precond

    p = identity() if label == "none" else harness.factor_stage(s, args.diag_shift)
    if label in LABELS:
        eig = EigsParams(args.eig_tol, args.eig_budget, args.eig_budget, rng.derive(args.seed, "eigs"))
        sk = SketchParams(args.oversample, args.width_factor, rng.derive(args.seed, "sketch"))
        try:
            p = build(
                label, s, p.Q, r, alpha=args.alpha, eig=eig, sketch=sk,
                positive_method=args.positive_part, cap=args.cap,
            )
        except ValueError as exc:  # parameters the builder cannot honour on this matrix
            print(f"error: {label}: {exc}", file=sys.stderr)
            return 2

    x, report = pcg_solve(s, b, p, tol=args.tol, maxit=cfg.resolved_maxit())

    print(f"matrix            {problem.name} (n={n}, nnz={s.nnz}, origin={problem.origin})")
    print(f"rhs               {problem.rhs_mode} (seed={args.seed}, unit 2-norm)")
    print(f"preconditioner    {label}" + (f" (r={r})" if label in LABELS else ""))
    if label == "breg_alpha":
        print(f"alpha             {args.alpha}")
    print(f"converged         {report.converged}" + ("" if report.converged else f" ({report.reason})"))
    print(f"iterations        {report.iterations}")
    print(f"final residual    {report.final_rel_residual:.6e} (relative, true)")
    print(f"matvecs           {report.matvecs_S + p.build_info.matvecs_s}")
    print(f"construction (s)  {p.build_info.seconds:.4f}")
    print(f"solve (s)         {report.time_solve_s:.4f}")
    if p.build_info.notes:
        print(f"notes             {';'.join(p.build_info.notes)}")
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
