"""Preconditioning for symmetric positive definite systems: an approximate
factorization corrected by a low-rank term chosen under the log-determinant
matrix divergence, with Krylov and randomized spectral approximations and a
preconditioned conjugate gradient benchmark harness.
"""

from .bregman import (
    LowRank,
    divergence_ld,
    gamma,
    nu,
    scaled_error,
    scaled_operator,
    select_indices,
    truncate,
)
from .eigsolve import (
    CountingOperator,
    EigenEstimate,
    EigsParams,
    LinearOperator,
    lanczos_tr,
    operator_from_dense,
)
from .errors import (
    Breakdown,
    CapExceeded,
    EigenvalueOutOfDomain,
    IndefinitePreconditionerDetected,
    InfeasibleLowRank,
    NoConvergence,
    NotPositiveDefinite,
    ParseError,
    RankCollapse,
    UnsupportedFormat,
)
from .harness import (
    LARGE_HEADER,
    SMALL_HEADER,
    SPECTRUM_HEADER,
    ExperimentConfig,
    parse_config,
    run_large_suite,
    run_small_suite,
    spectrum_rows,
    write_csv,
)
from .ichol import ic0
from .matio import (
    ProblemInstance,
    load_problem,
    make_rhs,
    read_matrix_market,
    write_matrix_market,
)
from .pcg import SolveReport, cond2_preconditioned, divergence_columns, pcg_solve
from .precond import (
    BuildInfo,
    Preconditioner,
    apply_inverse,
    assemble,
    build_alpha,
    build_exact,
    build_randomized,
    build_svd_krylov,
    identity,
    smallest_part,
)
from .sketch import SketchParams, nystrom, nystrom_indefinite
from .sparse_core import CholFactor, CsrMatrix, chol_solve, scaled_apply, sparse_ata, spmv, tri_solve

__version__ = "0.1.0"

__all__ = [
    "Breakdown",
    "BuildInfo",
    "CapExceeded",
    "CholFactor",
    "CountingOperator",
    "CsrMatrix",
    "EigenEstimate",
    "EigenvalueOutOfDomain",
    "EigsParams",
    "ExperimentConfig",
    "IndefinitePreconditionerDetected",
    "InfeasibleLowRank",
    "LARGE_HEADER",
    "LinearOperator",
    "LowRank",
    "NoConvergence",
    "NotPositiveDefinite",
    "ParseError",
    "Preconditioner",
    "ProblemInstance",
    "RankCollapse",
    "SMALL_HEADER",
    "SPECTRUM_HEADER",
    "SketchParams",
    "SolveReport",
    "UnsupportedFormat",
    "apply_inverse",
    "assemble",
    "build_alpha",
    "build_exact",
    "build_randomized",
    "build_svd_krylov",
    "chol_solve",
    "cond2_preconditioned",
    "divergence_columns",
    "divergence_ld",
    "gamma",
    "ic0",
    "identity",
    "lanczos_tr",
    "load_problem",
    "make_rhs",
    "nu",
    "nystrom",
    "nystrom_indefinite",
    "operator_from_dense",
    "parse_config",
    "pcg_solve",
    "read_matrix_market",
    "run_large_suite",
    "run_small_suite",
    "scaled_apply",
    "scaled_error",
    "scaled_operator",
    "select_indices",
    "smallest_part",
    "sparse_ata",
    "spectrum_rows",
    "spmv",
    "tri_solve",
    "truncate",
    "write_csv",
    "write_matrix_market",
]
