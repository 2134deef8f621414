"""Benchmark suites over Matrix Market problems, with CSV output.

Two suites mirror the evaluation protocol this package exists to reproduce.
The small suite compares exact truncation preconditioners (forward, reverse,
and magnitude selection) against no preconditioning and the bare incomplete
factor, reporting iteration counts, preconditioned condition numbers, both
divergence directions, and whether the three selections coincided.  The
large suite benchmarks the scalable constructions (sketched and Krylov) with
timings and exact matrix-product counts.

Every command factors through ``factor_stage``: ``solve`` and ``spectrum``
once, except ``solve --precond none``, and each suite at most once per
matrix, in the preamble both suites share.  The preamble factors only when
a wanted label other than ``none`` reads the factor, so the small suite
always factors and a large table of ``none`` rows alone never does.

Failure policy, the same in both suites: a matrix that cannot be loaded is
logged and skipped.  Every later stage of a matrix (the unpreconditioned
solve, the factor stage, the ``ichol`` solve, the dense spectrum, and each
build plus its solve) is captured on its own, so a failure is logged and
becomes an ``err`` cell (small suite) or an ``err:<ExceptionType>`` row
(large suite); the stages and matrices after it still run.  One rule
carries a failure forward: a stage run after a failed one it depends on
does not run and gives that failure, so it is logged once.

Row content is bitwise reproducible for a fixed seed; only the timing
columns vary between runs.  Per-task seeds are derived from the config seed
and the row's identity, so runs do not depend on execution order.  Two
more inputs enter a row.  The right-hand side's seed hashes the matrix path
after ``os.path.normpath``, so ``m.mtx`` and ``./m.mtx`` give the same rows
but an absolute and a relative spelling of one file do not; hashing the
matrix name instead would move the benchmark's pinned reference tables.
And a large-suite Krylov row's eigensolver budget depends on the epsilon
grid (see ``_eig_budget``).
"""

import csv
import logging
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import rng
from .bregman import DENSIFY_CAP, gamma, nu, scaled_error, select_indices, truncate
from .dense_kernels import sym_eig
from .eigsolve import EigsParams
from .ichol import ic0
from .matio import load_problem
from .pcg import pcg_solve
from .precond import EXACT_RULES, LABELS, BuildInfo, Preconditioner, assemble, build, identity
from .sketch import SketchParams

log = logging.getLogger("bregpcg")

SMALL_HEADER = (
    "matrix,n,r,iter_none,iter_ichol,iter_rbreg,iter_svd,iter_breg,"
    "cond_rbreg,cond_svd,cond_breg,div_rbreg,div_svd,div_breg,truncations_coincide"
).split(",")

LARGE_HEADER = (
    "matrix,n,preconditioner,r,alpha,converged,rel_residual,iterations,"
    "construction_s,solve_s,matvecs_S,note"
).split(",")

# Every label a command runs: no preconditioner, the factor alone, and the builders.
COMMAND_LABELS = ("none", "ichol", *LABELS)
SMALL_PRECONDITIONERS = ("none", "ichol", *EXACT_RULES)
LARGE_PRECONDITIONERS = ("none", "ichol", "nys", "nys_indef", "svd_ks", "breg_alpha")
# The commands' positive part of breg_alpha, as in the paper's table;
# ``appendix_mode`` switches the large suite to Krylov.
POSITIVE_PART = "nystrom"

SMALL_EPSILONS = (0.01, 0.05, 0.1)
LARGE_EPSILONS = (0.0025, 0.0075)
DEFAULT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class ExperimentConfig:
    suite: str = "small"
    matrices: tuple = ()
    epsilons: tuple = ()  # empty means the suite default
    alphas: tuple = DEFAULT_ALPHAS
    tol: float = 1e-10
    maxit: int = 0  # 0 means the suite default (100 small, 350 large)
    seed: int = 0
    preconditioners: tuple = ()  # empty means all for the suite
    appendix_mode: bool = False  # Krylov positive part instead of Nystrom
    rhs_mode: str = "random"
    eig_tol: float = EigsParams.tol
    oversample: int = SketchParams.oversample
    width_factor: float = SketchParams.width_factor
    diag_shift: float = 0.0
    cap: int = DENSIFY_CAP
    out: str = ""

    def resolved_epsilons(self):
        if self.epsilons:
            return tuple(self.epsilons)
        return SMALL_EPSILONS if self.suite == "small" else LARGE_EPSILONS

    def resolved_maxit(self):
        if self.maxit:
            return self.maxit
        return 100 if self.suite == "small" else 350

    def resolved_preconditioners(self):
        """The labels the suite runs: the config's, or all of the suite's
        when none are given.  A label the suite cannot run is a ValueError."""
        known = SMALL_PRECONDITIONERS if self.suite == "small" else COMMAND_LABELS
        unknown = [label for label in self.preconditioners if label not in known]
        if unknown:
            raise ValueError(f"unknown preconditioner {', '.join(unknown)}; expected one of {', '.join(known)}")
        if self.preconditioners:
            return tuple(self.preconditioners)
        return SMALL_PRECONDITIONERS if self.suite == "small" else LARGE_PRECONDITIONERS


_ITEM_TYPES = {"matrices": str, "epsilons": float, "alphas": float, "preconditioners": str}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _to_bool(text: str) -> bool:
    if text.lower() not in _BOOLS:
        raise ValueError(f"bad boolean {text!r}")
    return _BOOLS[text.lower()]


def parse_config(path) -> ExperimentConfig:
    """Read a config file of ``key = value`` lines.

    ``#`` starts a comment, blank lines are skipped, list values are comma
    separated, booleans accept true/false/yes/no/on/off/1/0.  Keys match the
    ExperimentConfig field names, and each value is cast by the type of the
    field's default.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in defaults:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                values[key] = tuple(_ITEM_TYPES[key](tok.strip()) for tok in value.split(",") if tok.strip())
            else:
                values[key] = (_to_bool if isinstance(default, bool) else type(default))(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
        if key == "suite" and value not in ("small", "large"):
            raise ValueError(f"config line {lineno}: unknown suite {value!r}; expected small or large")
    return ExperimentConfig(**values)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _iter_cell(report) -> str:
    if isinstance(report, Exception):
        return "err"
    return str(report.iterations) if report.converged else "-"


def _eig_budget(eps: float, all_eps, base_tol: float, seed: int) -> EigsParams:
    """Lanczos parameters of a large-suite row: 60 restarts and 60 slack
    vectors at the grid's smallest eps, 100 of each otherwise.  A row's
    cost thus depends on the rest of the grid: ``svd_ks`` at r = 11 on the
    15x15-grid Poisson matrix plus 0.01 I takes 85 S-products with
    ``epsilons = 0.05`` and 125 with ``epsilons = 0.01, 0.05``."""
    budget = 60 if eps == min(all_eps) else 100
    return EigsParams(tol=base_tol, max_restarts=budget, slack=budget, seed=seed)


def _capture(where: str, stage, *args, after=None, **kwargs):
    """Run one stage of a table.  A failure is logged and returned in place
    of the result, so it becomes an ``err`` cell or row and the table goes on;
    a stage called ``after=`` a failed stage's exception returns it unrun."""
    if isinstance(after, Exception):
        return after
    try:
        return stage(*args, **kwargs)
    except Exception as exc:
        log.error("%s: %s: %s", where, type(exc).__name__, exc)
        return exc


def factor_stage(s, diag_shift: float = 0.0) -> Preconditioner:
    """The ``ichol`` preconditioner: the factor ``ic0`` of s, timed alone as its construction."""
    started = time.perf_counter()
    q = ic0(s, diag_shift=diag_shift)
    return Preconditioner(q, label="ichol", build_info=BuildInfo(seconds=time.perf_counter() - started))


def _solve(cfg: ExperimentConfig, problem, p):
    return pcg_solve(problem.S, problem.b, p, tol=cfg.tol, maxit=cfg.resolved_maxit())[1]


def _opened(cfg: ExperimentConfig, wanted):
    """The preamble of both suites, for each matrix that loads (the others
    are logged and skipped): solve with ``none``, run the factor stage and
    solve with ``ichol``.  A solve whose label is not in ``wanted`` gives
    None, and so does the factor stage when ``none`` is the only wanted
    label; a failed stage gives its exception.  The right-hand side's seed
    hashes the normalised path."""
    reads_factor = any(label != "none" for label in wanted)
    for path in cfg.matrices:
        seed = rng.derive(cfg.seed, f"rhs|{os.path.normpath(path)}")
        problem = _capture(f"skipping {path}", load_problem, path, seed=seed, rhs_mode=cfg.rhs_mode)
        if isinstance(problem, Exception):
            continue
        name = problem.name
        none = _capture(f"{name} none", _solve, cfg, problem, identity()) if "none" in wanted else None
        ichol = _capture(f"{name} ic0", factor_stage, problem.S, cfg.diag_shift) if reads_factor else None
        report = _capture(f"{name} ichol", _solve, cfg, problem, ichol, after=ichol) if "ichol" in wanted else None
        yield problem, none, ichol, report


def _closed_form(decomp, idx, r: int, rule: str):
    """The cond_ and div_ cells of a truncation.

    W copies r eigenpairs of E, so P^-1 S has the eigenvalue 1 r times and
    1 + theta for every theta left out; the curve rejects theta <= -1
    (mu <= 0) before any cell is formed.
    """
    rest = np.delete(decomp.values, idx)
    div = (nu if rule == "rbld" else gamma)(rest).sum()
    mu = np.concatenate([np.ones(r), 1.0 + rest])
    return _fmt(mu.max() / mu.min()), _fmt(div)


def _truncation_cells(cfg, problem, ichol, decomp, r, row) -> None:
    """Fill the iter_, cond_, div_ and coincidence cells of one rank; a
    failed spectrum leaves them ``err``."""
    selections = {}
    for tag, rule in EXACT_RULES.items():
        where = f"{problem.name} r={r} {tag}"
        idx = selections[tag] = _capture(where, lambda: select_indices(decomp.values, r, rule), after=decomp)
        report = _capture(
            where, lambda: _solve(cfg, problem, assemble(ichol.Q, truncate(decomp, idx), label=tag)), after=idx
        )
        row[f"iter_{tag}"] = _iter_cell(report)
        cells = _capture(where, _closed_form, decomp, idx, r, rule, after=report)
        if not isinstance(cells, Exception):
            row[f"cond_{tag}"], row[f"div_{tag}"] = cells
    if not any(isinstance(idx, Exception) for idx in selections.values()):
        row["truncations_coincide"] = str(selections["rbreg"] == selections["svd"] == selections["breg"]).lower()


def run_small_suite(cfg: ExperimentConfig):
    """Exact-truncation comparison suite.  Returns the CSV rows.

    ``cfg.preconditioners`` is only checked here: a label outside
    ``SMALL_PRECONDITIONERS`` is a ``ValueError``, and a valid subset still
    writes every column, because the table compares all five.
    """
    cfg.resolved_preconditioners()
    rows = []
    for problem, none, ichol, ichol_report in _opened(cfg, SMALL_PRECONDITIONERS):
        name, n = problem.name, problem.n
        decomp = _capture(
            f"{name} spectrum", lambda: sym_eig(scaled_error(problem.S, ichol.Q, cap=cfg.cap)), after=ichol
        )
        for eps in cfg.resolved_epsilons():
            r = int(math.floor(n * eps))
            row = dict.fromkeys(SMALL_HEADER, "err")
            row.update(matrix=name, n=n, r=r, iter_none=_iter_cell(none), iter_ichol=_iter_cell(ichol_report))
            if r < n:
                _truncation_cells(cfg, problem, ichol, decomp, r, row)
            rows.append([row[k] for k in SMALL_HEADER])
    if cfg.out:
        write_csv(cfg.out, SMALL_HEADER, rows)
    return rows


def _large_row(name, n, label, r, alpha, built, report):
    """One large-suite row; an exception in place of ``report`` gives the
    error row, which names the exception's type."""
    head = [name, n, label, "-" if r is None else r, "-" if alpha is None else _fmt(alpha)]
    if isinstance(report, Exception):
        return head + ["false", "nan", 0, "0", "0", 0, f"err:{type(report).__name__}"]
    info = built.build_info
    note_parts = list(info.notes)
    if report.residual_discrepancy:
        note_parts.append("residual-discrepancy")
    if not report.converged:
        note_parts.append(report.reason)
    return head + [
        str(report.converged).lower(),
        _fmt(report.final_rel_residual),
        report.iterations,
        _fmt(info.seconds),
        _fmt(report.time_solve_s),
        info.matvecs_s + report.matvecs_S,
        ";".join(note_parts),
    ]


def run_large_suite(cfg: ExperimentConfig):
    """Scalable-construction benchmark suite.  Returns the CSV rows.

    Each rank gets the same rows whether or not the factor stage succeeds:
    ``none``, ``ichol``, then the builders in ``LABELS`` order with one
    ``breg_alpha`` row per alpha.  When the factor fails, every row after
    ``none`` carries its exception.
    """
    epsilons = cfg.resolved_epsilons()
    wanted = cfg.resolved_preconditioners()
    builders = [label for label in LABELS if label in wanted]
    positive_method = "krylov_schur" if cfg.appendix_mode else POSITIVE_PART
    rows = []
    for problem, none, ichol, ichol_report in _opened(cfg, wanted):
        name, n = problem.name, problem.n
        for eps in epsilons:
            r = int(math.floor(n * eps))
            if none is not None:
                rows.append(_large_row(name, n, "none", None, None, identity(), none))
            if ichol_report is not None:
                rows.append(_large_row(name, n, "ichol", None, None, ichol, ichol_report))
            for label in builders:
                for alpha in cfg.alphas if label == "breg_alpha" else (None,):
                    where = f"{name} r={r} {label}"
                    seed = rng.derive(cfg.seed, f"{name}|{label}|{r}|{alpha}")
                    built = _capture(where, lambda: build(
                        label, problem.S, ichol.Q, r, alpha=alpha,
                        eig=_eig_budget(eps, epsilons, cfg.eig_tol, seed),
                        sketch=SketchParams(cfg.oversample, cfg.width_factor, seed),
                        positive_method=positive_method, cap=cfg.cap,
                    ), after=ichol)
                    report = _capture(where, _solve, cfg, problem, built, after=built)
                    rows.append(_large_row(name, n, label, r, alpha, built, report))
    if cfg.out:
        write_csv(cfg.out, LARGE_HEADER, rows)
    return rows


SPECTRUM_HEADER = ["index", "theta", "gamma_theta", "nu_theta", "abs_theta"]


def spectrum_rows(s, factor, cap: int = DENSIFY_CAP):
    """Scaled-error spectrum with both selection curves, descending."""
    decomp = sym_eig(scaled_error(s, factor, cap=cap))
    rows = []
    for i, theta in enumerate(decomp.values):
        if theta <= -1.0:  # the factor was not usable for curve values
            rows.append([i, _fmt(theta), "nan", "nan", _fmt(abs(theta))])
        else:
            rows.append([i, _fmt(theta), _fmt(gamma(theta)), _fmt(nu(theta)), _fmt(abs(theta))])
    return rows
