"""Benchmark suites over Matrix Market problems, with CSV output.

Two suites mirror the evaluation protocol this package exists to reproduce.
The small suite compares exact truncation preconditioners (forward, reverse,
and magnitude selection) against no preconditioning and the bare incomplete
factor, reporting iteration counts, preconditioned condition numbers, both
divergence directions, and whether the three selections coincided.  The
large suite benchmarks the scalable constructions (sketched and Krylov) with
timings and exact matrix-product counts.

Row content is bitwise reproducible for a fixed seed; only the timing
columns vary between runs.  Per-task seeds are derived from the config seed
and the row's identity, so runs do not depend on execution order.
"""

import csv
import logging
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import rng
from .bregman import gamma, nu, scaled_error, select_indices, truncate
from .dense_kernels import sym_eig
from .eigsolve import EigsParams
from .ichol import ic0
from .matio import load_problem
from .pcg import pcg_solve
from .precond import LABELS, assemble, build, identity
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

SMALL_PRECONDITIONERS = ("none", "ichol", "rbreg", "svd", "breg")
LARGE_PRECONDITIONERS = ("none", "ichol", "nys", "nys_indef", "svd_ks", "breg_alpha")

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
    eig_tol: float = 1e-2
    oversample: int = 60
    width_factor: float = 1.5
    diag_shift: float = 0.0
    cap: int = 4096
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
        if self.preconditioners:
            return tuple(self.preconditioners)
        return SMALL_PRECONDITIONERS if self.suite == "small" else LARGE_PRECONDITIONERS


_LIST_FIELDS = {"matrices": str, "epsilons": float, "alphas": float, "preconditioners": str}
_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def parse_config(path) -> ExperimentConfig:
    """Read a config file of ``key = value`` lines.

    ``#`` starts a comment, blank lines are skipped, list values are comma
    separated, booleans accept true/false/yes/no/on/off/1/0.  Keys match the
    ExperimentConfig field names.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    by_name = {f.name: f for f in fields(ExperimentConfig)}
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
        if key not in by_name:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in _LIST_FIELDS:
            cast = _LIST_FIELDS[key]
            values[key] = tuple(cast(tok.strip()) for tok in value.split(",") if tok.strip())
        elif by_name[key].type == "bool" or isinstance(by_name[key].default, bool):
            low = value.lower()
            if low in _BOOL_TRUE:
                values[key] = True
            elif low in _BOOL_FALSE:
                values[key] = False
            else:
                raise ValueError(f"config line {lineno}: bad boolean {value!r}")
        elif isinstance(by_name[key].default, int) and not isinstance(by_name[key].default, bool):
            values[key] = int(value)
        elif isinstance(by_name[key].default, float):
            values[key] = float(value)
        else:
            values[key] = value
    return ExperimentConfig(**values)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _iter_cell(report) -> str:
    return str(report.iterations) if report.converged else "-"


def _eig_budget(eps: float, all_eps, base_tol: float, seed: int) -> EigsParams:
    budget = 60 if eps == min(all_eps) else 100
    return EigsParams(tol=base_tol, max_restarts=budget, slack=budget, seed=seed)


def run_small_suite(cfg: ExperimentConfig):
    """Exact-truncation comparison suite.  Returns the CSV rows.

    ``cfg.preconditioners`` is only checked here: a label outside
    ``SMALL_PRECONDITIONERS`` is a ``ValueError``, and a valid subset still
    writes every column, because the table compares all five.
    """
    unknown = [label for label in cfg.preconditioners if label not in SMALL_PRECONDITIONERS]
    if unknown:
        raise ValueError(
            f"unknown preconditioner {', '.join(unknown)}; expected one of {', '.join(SMALL_PRECONDITIONERS)}"
        )
    epsilons = cfg.resolved_epsilons()
    maxit = cfg.resolved_maxit()

    def worker(path):
        rows = []
        try:
            problem = load_problem(path, seed=rng.derive(cfg.seed, f"rhs|{path}"), rhs_mode=cfg.rhs_mode)
        except Exception as exc:  # per-row capture: skip the matrix, keep going
            log.error("skipping %s: %s", path, exc)
            return rows
        s, b, name = problem.S, problem.b, problem.name
        n = problem.n

        _, rep_none = pcg_solve(s, b, identity(), tol=cfg.tol, maxit=maxit)

        factor = None
        rep_ichol = None
        decomp = None
        try:
            factor = ic0(s, diag_shift=cfg.diag_shift)
            _, rep_ichol = pcg_solve(s, b, assemble(factor, label="ichol"), tol=cfg.tol, maxit=maxit)
        except Exception as exc:
            factor = None
            log.error("%s: incomplete factorization failed: %s", name, exc)
        if factor is not None:
            try:
                decomp = sym_eig(scaled_error(s, factor, cap=cfg.cap))
            except Exception as exc:
                log.error("%s: scaled error spectrum unavailable: %s", name, exc)

        for eps in epsilons:
            r = int(math.floor(n * eps))
            row = {key: "err" for key in SMALL_HEADER}
            row.update(matrix=name, n=n, r=r, iter_none=_iter_cell(rep_none))
            if factor is None:
                rows.append([row[k] for k in SMALL_HEADER])
                continue
            row["iter_ichol"] = _iter_cell(rep_ichol)
            if decomp is None or r >= n:
                rows.append([row[k] for k in SMALL_HEADER])
                continue
            selections = {}
            for rule, tag in (("rbld", "rbreg"), ("tsvd", "svd"), ("bld", "breg")):
                try:
                    idx = select_indices(decomp.values, r, rule)
                    selections[tag] = idx
                    p = assemble(factor, truncate(decomp, idx), label=tag)
                    _, rep = pcg_solve(s, b, p, tol=cfg.tol, maxit=maxit)
                    row[f"iter_{tag}"] = _iter_cell(rep)
                    # W copies r eigenpairs of E, so P^-1 S has the eigenvalue 1
                    # r times and 1 + theta for every theta left out; the curve
                    # rejects theta <= -1 (mu <= 0) before any cell is written
                    rest = np.delete(decomp.values, idx)
                    curve = nu if rule == "rbld" else gamma
                    div = curve(rest).sum()
                    mu = np.concatenate([np.ones(r), 1.0 + rest])
                    row[f"cond_{tag}"] = _fmt(mu.max() / mu.min())
                    row[f"div_{tag}"] = _fmt(div)
                except Exception as exc:
                    log.error("%s r=%d %s: %s", name, r, tag, exc)
            if len(selections) == 3:
                row["truncations_coincide"] = str(
                    selections["rbreg"] == selections["svd"] == selections["breg"]
                ).lower()
            rows.append([row[k] for k in SMALL_HEADER])
        return rows

    rows = [row for path in cfg.matrices for row in worker(path)]
    if cfg.out:
        write_csv(cfg.out, SMALL_HEADER, rows)
    return rows


def _large_row(name, n, label, r, alpha, built, report):
    note_parts = list(built.build_info.notes) if built is not None else []
    if report.residual_discrepancy:
        note_parts.append("residual-discrepancy")
    if not report.converged:
        note_parts.append(report.reason)
    build_matvecs = built.build_info.matvecs_s if built is not None else 0
    build_seconds = built.build_info.seconds if built is not None else 0.0
    return [
        name,
        n,
        label,
        "-" if r is None else r,
        "-" if alpha is None else _fmt(alpha),
        str(report.converged).lower(),
        _fmt(report.final_rel_residual),
        report.iterations,
        _fmt(build_seconds),
        _fmt(report.time_solve_s),
        build_matvecs + report.matvecs_S,
        ";".join(note_parts),
    ]


def _error_row(name, n, label, r, alpha, exc):
    return [
        name,
        n,
        label,
        "-" if r is None else r,
        "-" if alpha is None else _fmt(alpha),
        "false",
        "nan",
        0,
        "0",
        "0",
        0,
        f"err:{type(exc).__name__}",
    ]


def run_large_suite(cfg: ExperimentConfig):
    """Scalable-construction benchmark suite.  Returns the CSV rows."""
    epsilons = cfg.resolved_epsilons()
    maxit = cfg.resolved_maxit()
    wanted = cfg.resolved_preconditioners()
    unknown = [label for label in wanted if label not in ("none", *LABELS)]
    if unknown:
        raise ValueError(
            f"unknown preconditioner {', '.join(unknown)}; expected none or one of {', '.join(LABELS)}"
        )
    builders = [label for label in LABELS if label in wanted and label != "ichol"]
    positive_method = "krylov_schur" if cfg.appendix_mode else "nystrom"

    def worker(path):
        rows = []
        try:
            problem = load_problem(path, seed=rng.derive(cfg.seed, f"rhs|{path}"), rhs_mode=cfg.rhs_mode)
        except Exception as exc:
            log.error("skipping %s: %s", path, exc)
            return rows
        s, b, name = problem.S, problem.b, problem.name
        n = problem.n

        rep_none = None
        if "none" in wanted:
            _, rep_none = pcg_solve(s, b, identity(), tol=cfg.tol, maxit=maxit)

        factor = None
        factor_exc = None
        factor_seconds = 0.0
        try:
            started = time.perf_counter()
            factor = ic0(s, diag_shift=cfg.diag_shift)
            factor_seconds = time.perf_counter() - started
        except Exception as exc:
            factor_exc = exc
            log.error("%s: incomplete factorization failed: %s", name, exc)

        rep_ichol = None
        if factor is not None and "ichol" in wanted:
            p_ichol = assemble(factor, label="ichol")
            p_ichol.build_info.seconds = factor_seconds
            _, rep_ichol = pcg_solve(s, b, p_ichol, tol=cfg.tol, maxit=maxit)

        for eps in epsilons:
            r = int(math.floor(n * eps))
            if rep_none is not None:
                rows.append(_large_row(name, n, "none", None, None, None, rep_none))
            if factor is None:
                for label in wanted:
                    if label in ("none",):
                        continue
                    rows.append(_error_row(name, n, label, r, None, factor_exc))
                continue
            if rep_ichol is not None:
                rows.append(_large_row(name, n, "ichol", None, None, p_ichol, rep_ichol))

            for label in builders:
                for alpha in cfg.alphas if label == "breg_alpha" else (None,):
                    seed = rng.derive(cfg.seed, f"{name}|{label}|{r}|{alpha}")
                    try:
                        built = build(
                            label, s, factor, r, alpha=alpha,
                            eig=_eig_budget(eps, epsilons, cfg.eig_tol, seed),
                            sketch=SketchParams(cfg.oversample, cfg.width_factor, seed),
                            positive_method=positive_method, cap=cfg.cap,
                        )
                        _, rep = pcg_solve(s, b, built, tol=cfg.tol, maxit=maxit)
                        rows.append(_large_row(name, n, label, r, alpha, built, rep))
                    except Exception as exc:
                        log.error("%s r=%d %s: %s", name, r, label, exc)
                        rows.append(_error_row(name, n, label, r, alpha, exc))
        return rows

    rows = [row for path in cfg.matrices for row in worker(path)]
    if cfg.out:
        write_csv(cfg.out, LARGE_HEADER, rows)
    return rows


SPECTRUM_HEADER = ("index", "theta", "gamma_theta", "nu_theta", "abs_theta")


def spectrum_rows(s, factor, cap: int = 4096):
    """Scaled-error spectrum with both selection curves, descending."""
    decomp = sym_eig(scaled_error(s, factor, cap=cap))
    rows = []
    for i, theta in enumerate(decomp.values):
        if theta <= -1.0:  # the factor was not usable for curve values
            rows.append([i, _fmt(theta), "nan", "nan", _fmt(abs(theta))])
        else:
            rows.append([i, _fmt(theta), _fmt(gamma(theta)), _fmt(nu(theta)), _fmt(abs(theta))])
    return rows
