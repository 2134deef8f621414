"""The benchmark's three workloads.

Each workload generates its inputs from the workload seed, then runs rounds.
One round is the full job a user would run (factor, build, solve, or write
the matrices and produce both paper tables).  Each library call in it is
timed on its own, between probes of the machine's speed (``calibration``),
and the time metrics are built from those calls (``times``).  Output checks
run after the timed part of the round.

The library is reached only through attribute lookups on the ``bregpcg``
package at call time, so the tracer's wrappers see these calls as the
top-level spans of a round.
"""

import csv
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import bregpcg as bp
import calibration
import bregpcg.cli
from bregpcg import rng
from problems import bumped_band, poisson_2d

TOL = 1e-10
MAXIT = 2000  # direct solves; the CLI suites keep their own defaults


@dataclass
class Round:
    """Figures of one round.  Counts exact; times in seconds.

    ``ops`` holds every timed operation under a key that names the same
    operation, on the same inputs, in every round: key -> {"metric",
    "in_wall", "samples"}.  ``metric`` is the time metric the operation adds
    to (setup_s, solve_s or cg_s) or None; ``in_wall`` is False for a figure
    timed inside another operation (the CSV's per-row times).  A key may be
    timed more than once in a round.  A sample holds the seconds ``s`` and
    the probes ``before`` and ``after`` it (``calibration``).
    """

    elapsed_s: float = 0.0  # first library call to last, as measured, less the probes
    iterations: int = 0
    matvecs_S: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # what the program failed at
    problems: list = field(default_factory=list)  # what the benchmark's check rejected
    ops: dict = field(default_factory=dict)

    def start(self) -> None:
        self._started = (time.perf_counter(), CLOCK.spent_s)

    def close(self) -> None:
        """End the timed part: set ``elapsed_s`` and give the last samples their probe."""
        t0, spent0 = self._started
        self.elapsed_s = time.perf_counter() - t0 - (CLOCK.spent_s - spent0)
        CLOCK.probe()

    def add(self, key: str, sample: dict, metric=None, in_wall: bool = True) -> None:
        entry = self.ops.setdefault(key, {"metric": metric, "in_wall": in_wall, "samples": []})
        entry["samples"].append(sample)

    def timed(self, key: str, call, metric=None, in_wall: bool = True):
        """Run ``call`` as a sample of ``key``; returns (result or the exception it raised, sample)."""
        before = CLOCK.before()
        out, seconds = attempt(call)
        sample = {"s": seconds, "before": before, "after": None}
        CLOCK.wait_for_next(sample)
        self.add(key, sample, metric, in_wall)
        return out, sample

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)


CLOCK = calibration.Clock()
TIMES = ("wall_s", "setup_s", "solve_s", "cg_s")


def op_times(rounds, value=calibration.normalised) -> dict:
    """key -> (metric, in_wall, samples per round, median of ``value`` over every sample)."""
    out = {}
    for key in dict.fromkeys(k for rnd in rounds for k in rnd.ops):
        entries = [rnd.ops[key] for rnd in rounds if key in rnd.ops]
        values = [value(sample) for e in entries for sample in e["samples"]]
        per_round = max(len(e["samples"]) for e in entries)
        out[key] = (entries[0]["metric"], entries[0]["in_wall"], per_round, statistics.median(values))
    return out


def times(rounds, value=calibration.normalised) -> dict:
    """The time metrics: sums over operations of each one's median sample.

    Each sample is normalised by the probes around it (``calibration``),
    which takes out most of the machine's own changes of speed; the median
    over the run's rounds damps what is left.  setup_s, solve_s and cg_s
    count each operation once (cg_s is one CG solve per right-hand side);
    wall_s counts every call a round makes.  ``value=raw_seconds`` gives the
    same sums of measured seconds.
    """
    out = dict.fromkeys(TIMES, 0.0)
    for metric, in_wall, per_round, seconds in op_times(rounds, value).values():
        if metric is not None:
            out[metric] += seconds
        if in_wall:
            out["wall_s"] += seconds * per_round
    return out


def raw_seconds(sample: dict) -> float:
    return sample["s"]


def unit_rhs(seed: int, n: int, count: int) -> list:
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = gen.standard_normal(n)
        out.append(v / np.linalg.norm(v))
    return out


def true_rel_residual(a_sp, b, x) -> float:
    """||b - S x|| / ||b|| with scipy, independent of the solver's own figure."""
    return float(np.linalg.norm(b - a_sp @ x) / np.linalg.norm(b))


def attempt(call):
    """(result or the exception it raised, seconds).  A raise is a counted failure."""
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # the program's refusal is an outcome to count, not a crash
        out = exc
    return out, time.perf_counter() - t0


def check_solve(rnd: Round, what: str, a_sp, b, outcome) -> None:
    """Count a raised or non-converged solve as failed; reject a wrong 'converged' answer."""
    rnd.attempted += 1
    if isinstance(outcome, Exception):
        rnd.fail(f"{what}: {type(outcome).__name__}")
        return
    x, report = outcome
    if not report.converged:
        rnd.fail(f"{what}: not converged ({report.reason})")
        return
    rel = true_rel_residual(a_sp, b, x)
    if not rel <= TOL:
        rnd.problems.append(f"{what}: true relative residual {rel:.3e} > tol {TOL:g}")


def timed_cg(rnd: Round, key: str, s, b):
    """One unpreconditioned CG solve to TOL, timed as a cg_s sample of ``key``."""
    return rnd.timed(key, lambda: bp.pcg_solve(s, b, bp.identity(), tol=TOL, maxit=MAXIT), "cg_s")[0]


def timed_matrix(rnd: Round, a_sp):
    """The library's matrix made from a generated one, timed as set-up."""
    m, _ = rnd.timed("from_scipy", lambda: bp.CsrMatrix.from_scipy(a_sp), "setup_s")
    if isinstance(m, Exception):
        raise m  # nothing else can run; the benchmark stops with the error
    return m


def count_solve(rnd: Round, outcome) -> None:
    if not isinstance(outcome, Exception):
        rnd.iterations += outcome[1].iterations
        rnd.matvecs_S += outcome[1].matvecs_S


class IcholPoisson40k:
    """One ic0, then ichol-PCG and plain CG on the same seeded right-hand sides."""

    name = "ichol_poisson40k"
    why = (  # as in BENCHMARK.json
        "n=40,000 Poisson, ic0 then ichol-PCG and plain CG: triangular solves, spmv and "
        "the PCG loop do the work; no Lanczos, sketch or dense kernel runs"
    )
    GRID = 200
    SHIFT = 0.01
    N_RHS = 2  # a round lasts about 4 s, so a run holds enough rounds for best_times

    def __init__(self, seed: int, out_dir: str):
        self.a_sp = poisson_2d(self.GRID, self.SHIFT)
        self.n = self.a_sp.shape[0]
        self.rhs = unit_rhs(seed, self.n, self.N_RHS)

    def sizes(self) -> dict:
        return {"n": self.n, "nnz": self.a_sp.nnz, "rhs": self.N_RHS}

    def warm_up(self) -> None:
        s = bp.CsrMatrix.from_scipy(poisson_2d(20, self.SHIFT))
        b = unit_rhs(0, s.n_rows, 1)[0]
        bp.pcg_solve(s, b, bp.assemble(bp.ic0(s), label="ichol"), tol=TOL, maxit=MAXIT)
        bp.pcg_solve(s, b, bp.identity(), tol=TOL, maxit=MAXIT)

    def run_round(self) -> Round:
        rnd = Round()
        rnd.start()
        s = timed_matrix(rnd, self.a_sp)
        p, _ = rnd.timed("ic0", lambda: bp.assemble(bp.ic0(s), label="ichol"), "setup_s")
        pcg, cg = [], []
        for i, b in enumerate(self.rhs):
            if not isinstance(p, Exception):
                out, _ = rnd.timed(
                    f"pcg:ichol rhs{i}", lambda: bp.pcg_solve(s, b, p, tol=TOL, maxit=MAXIT), "solve_s"
                )
                pcg.append(out)
            cg.append(timed_cg(rnd, f"cg rhs{i}", s, b))
        rnd.close()

        rnd.attempted += 1
        if isinstance(p, Exception):
            rnd.fail(f"ic0: {type(p).__name__}")
        for i, (b, out) in enumerate(zip(self.rhs, pcg)):
            check_solve(rnd, f"pcg ichol rhs{i}", self.a_sp, b, out)
            count_solve(rnd, out)
        for i, (b, out) in enumerate(zip(self.rhs, cg)):
            check_solve(rnd, f"cg rhs{i}", self.a_sp, b, out)
        return rnd


class KrylovPoisson5k:
    """One ic0, then five low-rank builds, each followed by one PCG solve."""

    name = "krylov_poisson5k"
    why = (  # as in BENCHMARK.json
        "n=4,900 Poisson, five rank-36 builds (Lanczos and Nystrom) then PCG: Lanczos "
        "and operator applications dominate; 2 of 5 builds fail at the seed"
    )
    # 70x70 rather than 100x100: the five builds take about 3.5 s instead of
    # 12 s, so a run holds enough rounds for best_times
    GRID = 70
    SHIFT = 0.01
    RANK_FRAC = 0.0075  # the larger rank of the large-suite grid
    # the CLI's solve defaults; build seeds are fixed settings, the seed only
    # makes the right-hand side
    EIG = dict(tol=1e-2, max_restarts=60, slack=60, seed=0)
    SKETCH = dict(oversample=60, width_factor=1.5, seed=0)
    CG_PER_STEP = 3  # one CG solve takes ~15 ms; samples spread over the round

    def __init__(self, seed: int, out_dir: str):
        self.a_sp = poisson_2d(self.GRID, self.SHIFT)
        self.n = self.a_sp.shape[0]
        self.r = int(math.floor(self.RANK_FRAC * self.n))
        self.b = unit_rhs(seed, self.n, 1)[0]
        self.eig = bp.EigsParams(**self.EIG)
        self.sketch = bp.SketchParams(**self.SKETCH)

    def sizes(self) -> dict:
        return {"n": self.n, "nnz": self.a_sp.nnz, "r": self.r}

    def _builds(self, s, factor, r, eig, sketch):
        return [
            ("svd_ks", lambda: bp.build_svd_krylov(s, factor, r, eig, allow_partial=True, label="svd_ks")),
            *[
                (
                    f"breg_alpha={alpha}",
                    lambda alpha=alpha: bp.build_alpha(
                        s, factor, r, alpha, eig, positive_method="krylov_schur",
                        allow_partial=True, label="breg_alpha",
                    ),
                )
                for alpha in (0.0, 0.5)
            ],
            ("nys", lambda: bp.build_randomized(s, factor, r, "nystrom", sketch, label="nys")),
            (
                "nys_indef",
                lambda: bp.build_randomized(s, factor, r, "nystrom_indefinite", sketch, label="nys_indef"),
            ),
        ]

    def warm_up(self) -> None:
        s = bp.CsrMatrix.from_scipy(poisson_2d(12, self.SHIFT))
        b = unit_rhs(0, s.n_rows, 1)[0]
        factor = bp.ic0(s)
        eig = bp.EigsParams(tol=1e-2, max_restarts=10, slack=10, seed=0)
        for _, build in self._builds(s, factor, 2, eig, bp.SketchParams(oversample=4, seed=0)):
            p, _ = attempt(build)
            if not isinstance(p, Exception):
                bp.pcg_solve(s, b, p, tol=TOL, maxit=MAXIT)
        bp.pcg_solve(s, b, bp.identity(), tol=TOL, maxit=MAXIT)

    def run_round(self) -> Round:
        rnd = Round()
        b = self.b
        rnd.start()
        s = timed_matrix(rnd, self.a_sp)
        factor, _ = rnd.timed("ic0", lambda: bp.ic0(s), "setup_s")
        builds, solves = [], []
        cg = [timed_cg(rnd, "cg", s, b) for _ in range(self.CG_PER_STEP)][-1]
        if not isinstance(factor, Exception):
            for label, build in self._builds(s, factor, self.r, self.eig, self.sketch):
                p, _ = rnd.timed(f"build:{label}", build, "setup_s")
                builds.append((label, p))
                if not isinstance(p, Exception):
                    out, _ = rnd.timed(
                        f"pcg:{label}", lambda: bp.pcg_solve(s, b, p, tol=TOL, maxit=MAXIT), "solve_s"
                    )
                    solves.append((label, out))
                cg = [timed_cg(rnd, "cg", s, b) for _ in range(self.CG_PER_STEP)][-1]
        rnd.close()

        for label, p in [("ic0", factor)] + builds:
            rnd.attempted += 1
            if isinstance(p, Exception):
                rnd.fail(f"build {label}: {type(p).__name__}")
            elif label != "ic0":
                rnd.matvecs_S += p.build_info.matvecs_s
        for label, out in solves:
            check_solve(rnd, f"pcg {label}", self.a_sp, b, out)
            count_solve(rnd, out)
        check_solve(rnd, "cg", self.a_sp, b, cg)  # the samples re-time one solve
        return rnd


# -- paper tables ---------------------------------------------------------------

# Columns compared with the reference CSVs.  Every column not named here must
# match as text; timing columns are skipped.  cond_* and div_* come from dense
# LAPACK calls and may differ in the last bits (about 1e-14 relative between
# 1 and 2 BLAS threads), so they get a relative tolerance.  rel_residual is a
# true residual at roundoff level: with identical iteration counts it moved by
# 37% between 1 and 2 BLAS threads, so it is only required to stay <= the
# suites' tolerance, as the reference's did.
SKIP_COLUMNS = ("construction_s", "solve_s")
FLOAT_PREFIXES = ("cond_", "div_")
FLOAT_RTOL = 1e-6
RESIDUAL_COLUMN = "rel_residual"


def _cell_matches(column: str, got: str, want: str) -> bool:
    if got == want or column in SKIP_COLUMNS:
        return True
    try:
        got_f, want_f = float(got), float(want)
    except ValueError:
        return False
    if column == RESIDUAL_COLUMN:
        return got_f <= TOL and want_f <= TOL
    if column.startswith(FLOAT_PREFIXES):
        return abs(got_f - want_f) <= FLOAT_RTOL * abs(want_f)
    return False


def compare_csv(actual: list, reference: list, tag: str) -> list:
    """Differences between two CSV tables (header row first), as messages."""
    if not reference or actual[:1] != reference[:1]:
        return [f"{tag}: header differs from the reference"]
    if len(actual) != len(reference):
        return [f"{tag}: {len(actual) - 1} rows, reference has {len(reference) - 1}"]
    header = reference[0]
    out = []
    for lineno, (row, ref) in enumerate(zip(actual[1:], reference[1:]), start=2):
        if len(row) != len(header):
            out.append(f"{tag} line {lineno}: {len(row)} cells, header has {len(header)}")
            continue
        for column, got, want in zip(header, row, ref):
            if not _cell_matches(column, got, want):
                out.append(f"{tag} line {lineno} {column}: {got!r} != reference {want!r}")
    return out


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class PaperTables:
    """Both paper tables end to end through the CLI on generated .mtx files.

    Each suite runs once per matrix (one ``bench`` call each), so every call
    is a timed operation of its own; the rows do not depend on which other
    matrices share a call, and a suite's table is the calls' rows in order.
    The matrices are fixed; the seed picks one of ``VARIANTS`` values of
    ``bench --seed``, which makes the suites' right-hand sides and sketch
    seeds.  Each variant has a reference table per suite taken from the
    library at the commit that added this benchmark (``make_reference.py``).
    """

    name = "paper_tables"
    why = (  # as in BENCHMARK.json
        "both paper tables through the CLI on generated .mtx files, checked against "
        "reference CSVs: dense diagnostics, matio and the harness, 4 err rows at the seed"
    )
    VARIANTS = 4
    # The CSV's own CG rows cap the small suite at 100 iterations; cg_s
    # instead times, per suite matrix and with the suite's right-hand side,
    # CG solves to tol run before, between and after the suites.
    CG_PER_SLOT = 5
    REFERENCE_DIR = os.path.join("perfbench", "reference")

    def __init__(self, seed: int, out_dir: str):
        self.variant = seed % self.VARIANTS
        self.work = os.path.join(out_dir, "paper_tables")
        os.makedirs(self.work, exist_ok=True)
        # Sizes keep a round near 5 s, so a run holds enough rounds for
        # best_times: the small suite's dense diagnostics grow as n^3, and the
        # large suite's 20 rows per matrix cost over 1.5 s at any n.  Poisson
        # 20x20 keeps the large suite's InfeasibleLowRank rows.
        self.suites = {
            "small": {
                "poisson16": poisson_2d(16),
                "band256": bumped_band(256),
            },
            "large": {
                "poisson20": poisson_2d(20),
                "band256": bumped_band(256),
            },
        }
        self.scipy = {name: a for mats in self.suites.values() for name, a in mats.items()}
        self.matrices = {name: bp.CsrMatrix.from_scipy(a) for name, a in self.scipy.items()}
        # the suites' own right-hand sides, seeded from the matrix path as the harness does
        self.rhs = {
            name: bp.make_rhs(m.n_rows, rng.derive(self.variant, f"rhs|{self._path(name)}"))
            for name, m in self.matrices.items()
        }

    def sizes(self) -> dict:
        return {name: {"n": m.n_rows, "nnz": m.nnz} for name, m in self.matrices.items()}

    def _path(self, name: str) -> str:
        # relative: the CLI derives each matrix's rhs seed from its path
        return os.path.join(self.work, f"{name}.mtx")

    def csv_path(self, suite: str, name: str) -> str:
        return os.path.join(self.work, f"{suite}_{name}.csv")

    def reference_path(self, suite: str) -> str:
        return os.path.join(self.REFERENCE_DIR, f"paper_tables_v{self.variant}_{suite}.csv")

    def _bench(self, suite: str, names, out: str) -> int:
        return bregpcg.cli.main(
            ["bench", *[self._path(n) for n in names], "--suite", suite,
             "--out", out, "--seed", str(self.variant)]
        )

    def warm_up(self) -> None:
        tiny = {"warm_poisson": poisson_2d(10), "warm_band": bumped_band(100, seed=0)}
        for name, a in tiny.items():
            bp.write_matrix_market(self._path(name), bp.CsrMatrix.from_scipy(a))
        for suite in ("small", "large"):
            self._bench(suite, tiny, os.path.join(self.work, f"warm_{suite}.csv"))

    def produce(self, rnd: Round, between=lambda: None) -> dict:
        """Write the matrices and run each suite on each matrix.

        Returns (suite, matrix) -> (exit code or the exception raised, the
        call's sample).  ``between`` runs before each suite and after the last.
        """
        for name, m in self.matrices.items():
            out, _ = rnd.timed(f"write_matrix_market {name}", lambda: bp.write_matrix_market(self._path(name), m))
            if isinstance(out, Exception):
                raise out  # the suites cannot run without their inputs
        calls = {}
        for suite, names in self.suites.items():
            between()
            for name in names:
                calls[suite, name] = rnd.timed(
                    f"bench --suite {suite} {name}",
                    lambda: self._bench(suite, [name], self.csv_path(suite, name)),
                )
        between()
        return calls

    def table(self, suite: str) -> list:
        """The suite's table: the header, then each matrix's rows in order."""
        out = []
        for name in self.suites[suite]:
            rows = read_csv(self.csv_path(suite, name))
            out = out or rows[:1]
            if rows[:1] != out[:1]:
                raise ValueError(f"{suite} {name}: CSV header differs between matrices")
            out += rows[1:]
        return out

    def run_round(self) -> Round:
        rnd = Round()
        cg = {}

        def cg_slot():
            for name, s in self.matrices.items():
                for _ in range(self.CG_PER_SLOT):
                    cg[name] = timed_cg(rnd, f"cg {name}", s, self.rhs[name])

        rnd.start()
        calls = self.produce(rnd, between=cg_slot)
        rnd.close()

        for name, out in cg.items():  # the samples re-time one solve per matrix
            check_solve(rnd, f"cg {name}", self.scipy[name], self.rhs[name], out)

        for (suite, name), (code, _) in calls.items():
            if code != 0:
                rnd.problems.append(f"bench --suite {suite} {name} returned {code!r}")
        for suite, names in self.suites.items():
            if any(calls[suite, name][0] != 0 for name in names):
                continue
            table = self.table(suite)
            rnd.problems += compare_csv(table, read_csv(self.reference_path(suite)), f"{suite}.csv")
            if suite == "small":
                self._count_small(rnd, table)
            else:
                self._count_large(rnd, table, [calls[suite, name][1] for name in names])
        return rnd

    @staticmethod
    def _count_small(rnd: Round, table: list) -> None:
        # iter_none is the unpreconditioned baseline, which the small suite
        # caps at 100 iterations; its '-' is a table entry, not a failure
        header = table[0]
        precond_iters = [header.index(c) for c in ("iter_ichol", "iter_rbreg", "iter_svd", "iter_breg")]
        for row in table[1:]:
            rnd.attempted += 1
            if "err" in row or any(row[i] == "-" for i in precond_iters):
                rnd.fail(f"small {row[0]} r={row[2]}: " + ",".join(row))
            rnd.iterations += sum(int(row[i]) for i in precond_iters if row[i].isdigit())

    def _count_large(self, rnd: Round, table: list, calls: list) -> None:
        # The library's own per-row times go to setup_s and solve_s.  They are
        # part of the bench calls' time, so not added to wall_s again, and
        # share the probes of the call they come from.
        col = {name: i for i, name in enumerate(table[0])}
        probes = {}
        for name, call in zip(self.suites["large"], calls):
            probes[name] = {"before": call["before"], "after": call["after"]}
        for index, row in enumerate(table[1:]):
            rnd.attempted += 1
            label = row[col["preconditioner"]]
            if row[col["note"]].startswith("err:") or row[col["converged"]] != "true":
                rnd.fail(f"large {row[0]} {label} r={row[col['r']]} alpha={row[col['alpha']]}: "
                         f"{row[col['note']]}")
            if label == "none":
                continue
            key = f"large row{index} {row[0]} {label} r={row[col['r']]} alpha={row[col['alpha']]}"
            for column, metric in (("construction_s", "setup_s"), ("solve_s", "solve_s")):
                sample = {"s": float(row[col[column]]), **probes[row[col["matrix"]]]}
                rnd.add(f"{key} {column}", sample, metric, in_wall=False)
            rnd.iterations += int(row[col["iterations"]])
            rnd.matvecs_S += int(row[col["matvecs_S"]])


WORKLOADS = {w.name: w for w in (IcholPoisson40k, KrylovPoisson5k, PaperTables)}
