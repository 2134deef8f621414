import csv
import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from bregpcg import (
    CsrMatrix,
    ExperimentConfig,
    LARGE_HEADER,
    SMALL_HEADER,
    SPECTRUM_HEADER,
    ic0,
    parse_config,
    run_large_suite,
    run_small_suite,
    spectrum_rows,
    write_matrix_market,
)
from bregpcg import ichol, sparse_core
from bregpcg.bregman import gamma, nu
from bregpcg.precond import LABELS
from conftest import bumped_band, laplacian_2d


TIMING_COLUMNS = {LARGE_HEADER.index("construction_s"), LARGE_HEADER.index("solve_s")}


def write_instance(path, dense):
    write_matrix_market(path, CsrMatrix.from_dense(dense))
    return str(path)


def strip_timing(rows):
    return [
        [cell for i, cell in enumerate(row) if i not in TIMING_COLUMNS] for row in rows
    ]


def test_headers_are_pinned():
    assert SMALL_HEADER == [
        "matrix",
        "n",
        "r",
        "iter_none",
        "iter_ichol",
        "iter_rbreg",
        "iter_svd",
        "iter_breg",
        "cond_rbreg",
        "cond_svd",
        "cond_breg",
        "div_rbreg",
        "div_svd",
        "div_breg",
        "truncations_coincide",
    ]
    assert LARGE_HEADER == [
        "matrix",
        "n",
        "preconditioner",
        "r",
        "alpha",
        "converged",
        "rel_residual",
        "iterations",
        "construction_s",
        "solve_s",
        "matvecs_S",
        "note",
    ]
    assert SPECTRUM_HEADER == ["index", "theta", "gamma_theta", "nu_theta", "abs_theta"]


def test_parse_config_full(tmp_path):
    text = """
# benchmark setup
suite = large
matrices = a.mtx, b.mtx   # two inputs
epsilons = 0.01, 0.05
alphas = 0.0, 1.0
tol = 1e-8
maxit = 250
seed = 7
positive_part = krylov_schur
preconditioners = none, breg_alpha
rhs_mode = atb
oversample = 30
width_factor = 2.0
"""
    path = tmp_path / "bench.cfg"
    path.write_text(text)
    cfg = parse_config(path)
    assert cfg.suite == "large"
    assert cfg.matrices == ("a.mtx", "b.mtx")
    assert cfg.epsilons == (0.01, 0.05)
    assert cfg.alphas == (0.0, 1.0)
    assert cfg.tol == 1e-8
    assert cfg.maxit == 250
    assert cfg.seed == 7
    assert cfg.positive_part == "krylov_schur"
    assert cfg.preconditioners == ("none", "breg_alpha")
    assert cfg.rhs_mode == "atb"
    assert cfg.oversample == 30
    assert cfg.width_factor == 2.0


def test_parse_config_rejects_unknown_and_malformed(tmp_path):
    bad_key = tmp_path / "k.cfg"
    bad_key.write_text("verbosity = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(bad_key)
    bad_line = tmp_path / "l.cfg"
    bad_line.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config(bad_line)
    bad_part = tmp_path / "p.cfg"
    bad_part.write_text("suite = large\npositive_part = lanczos\n")
    with pytest.raises(
        ValueError, match="^config line 2: positive_part must be krylov_schur or nystrom, not 'lanczos'$"
    ):
        parse_config(bad_part)
    old_key = tmp_path / "a.cfg"
    old_key.write_text("appendix_mode = true\n")  # the boolean positive_part replaced
    with pytest.raises(ValueError, match="^config line 1: unknown key 'appendix_mode'$"):
        parse_config(old_key)


def test_config_defaults_resolve_per_suite():
    small = ExperimentConfig(suite="small")
    assert small.resolved_epsilons() == (0.01, 0.05, 0.1)
    assert small.resolved_maxit() == 100
    assert "breg" in small.resolved_preconditioners()
    large = ExperimentConfig(suite="large")
    assert large.resolved_epsilons() == (0.0025, 0.0075)
    assert large.resolved_maxit() == 350
    assert "breg_alpha" in large.resolved_preconditioners()


def test_config_rules_hold_for_python_callers():
    # run_large_suite with epsilons = (-0.5,) wrote an svd_ks row at r = -100
    with pytest.raises(ValueError, match=r"alphas must be in \[0, 1\], not 1.5"):
        ExperimentConfig(alphas=(1.5,))
    with pytest.raises(ValueError, match="maxit must be >= 0, not -1"):
        dataclasses.replace(ExperimentConfig(), maxit=-1)


def test_small_suite_rows_and_csv(tmp_path):
    m1 = write_instance(tmp_path / "band_a.mtx", bumped_band(60, seed=1))
    m2 = write_instance(tmp_path / "band_b.mtx", bumped_band(80, seed=2))
    out = tmp_path / "small.csv"
    cfg = ExperimentConfig(suite="small", matrices=(m1, m2), seed=3, out=str(out))
    rows = run_small_suite(cfg)
    # one row per (matrix, epsilon)
    assert len(rows) == 2 * 3
    for row in rows:
        assert len(row) == len(SMALL_HEADER)
    names = {row[0] for row in rows}
    assert names == {"band_a", "band_b"}
    ranks = [row[2] for row in rows if row[0] == "band_a"]
    assert ranks == [0, 3, 6]  # floor(60 * eps)
    with open(out) as handle:
        reader = list(csv.reader(handle))
    assert reader[0] == SMALL_HEADER
    assert len(reader) == 1 + len(rows)


def test_small_suite_rows_are_pinned(tmp_path, monkeypatch):
    # the right-hand side is seeded from the matrix path, so run from a
    # fixed relative one; the cond_/div_ values were computed from the
    # materialized P with dense Cholesky factors
    monkeypatch.chdir(tmp_path)
    write_instance("band.mtx", bumped_band(60, seed=10))
    rows = run_small_suite(ExperimentConfig(suite="small", matrices=("band.mtx",), seed=31))
    want = [
        ["band", 60, 0, "18", "6", "6", "6", "6", 1.0939183094270073, 1.0939183094270073,
         1.0939183094270073, 0.0029316283844593727, 0.0029314422182906696,
         0.0029314422182906696, "true"],
        ["band", 60, 3, "18", "6", "5", "5", "5", 1.0402186895784489, 1.0402186895784489,
         1.0402186895784489, 0.00059973542708746663, 0.0005954763954392206,
         0.0005954763954392206, "true"],
        ["band", 60, 6, "18", "6", "4", "4", "4", 1.0130711856556178, 1.0130711856556178,
         1.0130711856556178, 7.3150387528642113e-05, 7.3008518377548626e-05,
         7.3008518377548626e-05, "true"],
    ]
    numeric = {i for i, key in enumerate(SMALL_HEADER) if key.startswith(("cond_", "div_"))}
    assert len(rows) == len(want)
    for got, expected in zip(rows, want):
        assert [c for i, c in enumerate(got) if i not in numeric] == [
            c for i, c in enumerate(expected) if i not in numeric
        ]
        for i in sorted(numeric):
            assert float(got[i]) == pytest.approx(expected[i], rel=1e-9)


def test_small_suite_forms_the_scaled_error_once(tmp_path, monkeypatch):
    # cond_ and div_ come from the truncation's own eigendecomposition, so a
    # matrix costs one dense scaled error: one lower and one upper n-column
    # block solve.  Each low-rank preconditioner adds its Woodbury basis
    # Y = Q^-T Z, an r-column upper solve.
    path = write_instance(tmp_path / "band.mtx", bumped_band(120, seed=3))
    original = sparse_core.tri_solve
    blocks = []

    def counted(q, b, *args, **kwargs):
        if np.ndim(b) == 2:
            blocks.append(b.shape[1])
        return original(q, b, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bregpcg" or name.startswith("bregpcg."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    rows = run_small_suite(ExperimentConfig(suite="small", matrices=(path,), seed=5))
    assert len(rows) == 3
    assert not any(cell == "err" for row in rows for cell in row)
    assert [cols for cols in blocks if cols == 120] == [120, 120]
    # breg, rbreg and svd at each rank of the table
    ranks = [row[2] for row in rows]
    assert [cols for cols in blocks if cols != 120] == [r for r in ranks for _ in range(3)]


def test_small_suite_exact_completion_converges_fast(tmp_path):
    gen = np.random.default_rng(5)
    n, r = 60, 6  # rank 6 = floor(60 * 0.1), hit by the last epsilon
    low = np.tril(gen.standard_normal((n, n)), -1)
    low[np.abs(low) < 1.7] = 0.0
    low = 0.2 * low + np.diag(gen.uniform(1.0, 2.0, size=n))
    z, _ = np.linalg.qr(gen.standard_normal((n, r)))
    lam = gen.uniform(-0.4, 1.0, size=r)
    dense = low @ (np.eye(n) + (z * lam) @ z.T) @ low.T
    dense = (dense + dense.T) / 2.0
    # IC(0) needs the factor pattern to live inside the matrix pattern; the
    # product above is effectively dense, so zero-fill loss stays small but
    # nonzero.  The exact-truncation columns still close most of the gap.
    path = write_instance(tmp_path / "completed.mtx", dense)
    cfg = ExperimentConfig(suite="small", matrices=(path,), seed=11)
    rows = run_small_suite(cfg)
    by_rank = {row[2]: row for row in rows}
    full = by_rank[6]
    iter_ichol = int(full[SMALL_HEADER.index("iter_ichol")])
    iter_breg = int(full[SMALL_HEADER.index("iter_breg")])
    assert iter_breg <= iter_ichol


def test_small_suite_coincidence_flag(tmp_path):
    # a PSD low-rank completion gives a PSD scaled error, where all three
    # truncation rules agree
    gen = np.random.default_rng(7)
    n = 50
    low = np.tril(gen.standard_normal((n, n)), -1)
    low[np.abs(low) < 1.7] = 0.0
    low = 0.15 * low + np.eye(n)
    z, _ = np.linalg.qr(gen.standard_normal((n, 10)))
    lam = gen.uniform(0.3, 1.5, size=10)
    dense = low @ (np.eye(n) + (z * lam) @ z.T) @ low.T
    dense = (dense + dense.T) / 2.0
    path = write_instance(tmp_path / "psd_comp.mtx", dense)
    rows = run_small_suite(ExperimentConfig(suite="small", matrices=(path,), seed=13))
    flag_col = SMALL_HEADER.index("truncations_coincide")
    flags = {row[flag_col] for row in rows if row[2] != 0}
    assert "true" in flags or "false" in flags  # populated either way
    # divergence columns are numbers wherever the flag is populated
    div_col = SMALL_HEADER.index("div_breg")
    for row in rows:
        if row[flag_col] in ("true", "false"):
            float(row[div_col])


def test_small_suite_empty_matrix_list(tmp_path):
    out = tmp_path / "empty.csv"
    rows = run_small_suite(ExperimentConfig(suite="small", matrices=(), out=str(out)))
    assert rows == []
    with open(out) as handle:
        reader = list(csv.reader(handle))
    assert reader == [SMALL_HEADER]


def test_small_suite_skips_unreadable_matrix(tmp_path):
    good = write_instance(tmp_path / "fine.mtx", bumped_band(40, seed=4))
    missing = str(tmp_path / "not_there.mtx")
    rows = run_small_suite(
        ExperimentConfig(suite="small", matrices=(missing, good), seed=1)
    )
    assert {row[0] for row in rows} == {"fine"}


def indefinite_tridiagonal(n):
    dense = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    dense[-1, -1] = -1.0  # one negative eigenvalue, on the diagonal, so ic0 rejects it
    return dense


@pytest.mark.parametrize("suite", ["small", "large"])
def test_failing_matrix_does_not_end_the_table(tmp_path, monkeypatch, suite):
    # the right-hand side is seeded from the matrix path, so run from a
    # fixed relative one
    monkeypatch.chdir(tmp_path)
    write_instance("bad.mtx", indefinite_tridiagonal(30))
    write_instance("band.mtx", bumped_band(60))
    run = run_small_suite if suite == "small" else run_large_suite
    rows = run(ExperimentConfig(suite=suite, matrices=("bad.mtx", "band.mtx"), seed=4, oversample=20))
    alone = run(ExperimentConfig(suite=suite, matrices=("band.mtx",), seed=4, oversample=20))
    bad = [row for row in rows if row[0] == "bad"]
    good = [row for row in rows if row[0] == "band"]
    assert rows == bad + good and bad and alone
    if suite == "small":
        assert good == alone
        for row in bad:
            assert row[SMALL_HEADER.index("iter_none")] == "err"
            assert row[SMALL_HEADER.index("iter_ichol")] == "err"
        return
    assert strip_timing(good) == strip_timing(alone)
    col = {key: i for i, key in enumerate(LARGE_HEADER)}
    none = [row for row in bad if row[col["preconditioner"]] == "none"]
    assert none and all(row[col["note"]] == "err:NotPositiveDefinite" for row in none)
    assert all(row[col["note"]] == "err:ValueError" for row in bad if row not in none)
    # a failed ic0 keeps the table's shape: the same (label, alpha) grid as
    # the good matrix, with ichol's r and alpha left blank
    grid = [(row[col["preconditioner"]], row[col["alpha"]]) for row in bad]
    assert grid == [(row[col["preconditioner"]], row[col["alpha"]]) for row in good]
    assert [alpha for label, alpha in grid if label == "breg_alpha"] == ["0", "0.25", "0.5", "0.75", "1"] * 2
    assert all(row[col["r"]] == "-" for row in bad if row[col["preconditioner"]] == "ichol")


def test_large_suite_structure(tmp_path):
    path = write_instance(tmp_path / "wide.mtx", bumped_band(120, seed=8))
    cfg = ExperimentConfig(
        suite="large",
        matrices=(path,),
        epsilons=(0.05,),
        alphas=(0.0, 0.5, 1.0),
        seed=5,
        oversample=20,
    )
    rows = run_large_suite(cfg)
    labels = [row[LARGE_HEADER.index("preconditioner")] for row in rows]
    assert labels.count("none") == 1
    assert labels.count("ichol") == 1
    assert labels.count("nys") == 1
    assert labels.count("nys_indef") == 1
    assert labels.count("svd_ks") == 1
    assert labels.count("breg_alpha") == 3  # one per alpha
    ichol_row = rows[labels.index("ichol")]
    assert ichol_row[LARGE_HEADER.index("r")] == "-"
    assert ichol_row[LARGE_HEADER.index("alpha")] == "-"
    alphas = [
        row[LARGE_HEADER.index("alpha")]
        for row in rows
        if row[LARGE_HEADER.index("preconditioner")] == "breg_alpha"
    ]
    assert [float(a) for a in alphas] == [0.0, 0.5, 1.0]
    r_col = LARGE_HEADER.index("r")
    assert {row[r_col] for row in rows if row[r_col] != "-"} == {6}  # floor(120*0.05)


def test_large_suite_rerun_is_deterministic(tmp_path):
    path = write_instance(tmp_path / "det.mtx", bumped_band(90, seed=9))
    cfg = ExperimentConfig(
        suite="large",
        matrices=(path,),
        epsilons=(0.05,),
        alphas=(0.5,),
        seed=21,
        oversample=20,
    )
    first = strip_timing(run_large_suite(cfg))
    second = strip_timing(run_large_suite(cfg))
    assert first == second


# (preconditioner, r, alpha, iterations, matvecs_S, note) of each row, recorded
# before the builders counted their own S-products; every row converged
_PINNED_SHARED = [
    ("none", "-", "-", 19, 20, ""),
    ("ichol", "-", "-", 6, 7, ""),
    ("nys", 3, "-", 6, 30, ""),
    ("nys_indef", 3, "-", 6, 12, ""),
    ("svd_ks", 3, "-", 6, 70, ""),
]
PINNED_LARGE = {
    "nystrom": _PINNED_SHARED + [
        ("breg_alpha", 3, "0", 6, 131, "eta-probe"),
        ("breg_alpha", 3, "0.25", 6, 131, "eta-probe"),
        ("breg_alpha", 3, "0.5", 6, 151, "eta-probe"),
        ("breg_alpha", 3, "0.75", 6, 151, "eta-probe"),
        ("breg_alpha", 3, "1", 5, 29, ""),
    ],
    "krylov_schur": _PINNED_SHARED + [  # both ends from one run at every alpha
        ("breg_alpha", 3, "0", 6, 70, ""),
        ("breg_alpha", 3, "0.25", 6, 70, ""),
        ("breg_alpha", 3, "0.5", 6, 70, ""),
        ("breg_alpha", 3, "0.75", 6, 70, ""),
        ("breg_alpha", 3, "1", 5, 69, ""),
    ],
}


@pytest.mark.parametrize("positive_part", ["nystrom", "krylov_schur"])
def test_large_suite_rows_are_pinned(tmp_path, monkeypatch, positive_part):
    # the right-hand side is seeded from the matrix path, so run from a
    # fixed relative one
    monkeypatch.chdir(tmp_path)
    write_instance("band.mtx", bumped_band(70, seed=30))
    cfg = ExperimentConfig(
        suite="large", matrices=("band.mtx",), epsilons=(0.05,), seed=2, oversample=20,
        positive_part=positive_part,
    )
    rows = run_large_suite(cfg)
    col = {key: i for i, key in enumerate(LARGE_HEADER)}
    got = [
        tuple(row[col[key]] for key in ("preconditioner", "r", "alpha", "iterations", "matvecs_S", "note"))
        for row in rows
    ]
    assert got == PINNED_LARGE[positive_part]
    for row in rows:
        assert row[col["matrix"]] == "band" and row[col["n"]] == 70
        assert row[col["converged"]] == "true"
        assert float(row[col["rel_residual"]]) <= cfg.tol


@pytest.mark.parametrize("positive_part", ["nystrom", "krylov_schur"])
def test_cli_solve_prints_its_large_suite_row(tmp_path, monkeypatch, capsys, positive_part):
    # solve had its own right-hand side and build seeds, Lanczos budget and
    # maxit, so it could not re-run a row: on this matrix the none row read
    # rel_residual 4.05e-11 where solve printed 3.56e-11, and nys_indef took
    # 7 iterations where solve took 6
    from bregpcg import cli

    monkeypatch.chdir(tmp_path)
    write_instance("band.mtx", bumped_band(120, seed=30))
    cfg = ExperimentConfig(
        suite="large", matrices=("band.mtx",), epsilons=(0.05,), seed=2, positive_part=positive_part
    )
    rows = run_large_suite(cfg)
    col = {key: i for i, key in enumerate(LARGE_HEADER)}
    compared = ("preconditioner", "r", "alpha", "converged", "rel_residual", "iterations", "matvecs_S", "note")
    assert len(rows) == 10
    for row in rows:
        label, alpha = row[col["preconditioner"]], row[col["alpha"]]
        args = ["solve", "band.mtx", "--precond", label, "--rank-frac", "0.05", "--seed", "2"]
        args += ["--positive-part", positive_part] + ([] if alpha == "-" else ["--alpha", alpha])
        status = cli.main(args)
        printed = dict((line.split(None, 1) + [""])[:2] for line in capsys.readouterr().out.splitlines())
        assert {key: printed[key] for key in compared} == {key: str(row[col[key]]) for key in compared}
        assert status == (0 if row[col["converged"]] == "true" else 1)


def test_large_suite_krylov_rows_fit_a_small_matrix(tmp_path):
    # 60 slack vectors on top of r = 5 did not fit n = 50: svd_ks and the
    # four breg_alpha rows that run Lanczos read err:ValueError
    path = write_instance(tmp_path / "small_n.mtx", bumped_band(50))
    rows = run_large_suite(ExperimentConfig(suite="large", matrices=(path,), epsilons=(0.1,)))
    col = {key: i for i, key in enumerate(LARGE_HEADER)}
    krylov = [row for row in rows if row[col["preconditioner"]] in ("svd_ks", "breg_alpha")]
    assert [row[col["r"]] for row in krylov] == [5] * 6
    assert all(row[col["converged"]] == "true" and not row[col["note"]].startswith("err") for row in rows), rows


def test_large_suite_rejects_unknown_label(tmp_path):
    path = write_instance(tmp_path / "typo.mtx", bumped_band(40, seed=3))
    cfg = ExperimentConfig(suite="large", matrices=(path,), preconditioners=("ichol", "breg_alfa"))
    with pytest.raises(ValueError, match="breg_alfa"):
        run_large_suite(cfg)


def test_small_suite_rejects_unknown_label(tmp_path):
    path = write_instance(tmp_path / "typo_small.mtx", bumped_band(40, seed=4))
    cfg = ExperimentConfig(suite="small", matrices=(path,), preconditioners=("breg_alfa",))
    with pytest.raises(ValueError, match="breg_alfa"):
        run_small_suite(cfg)


def test_small_suite_valid_subset_keeps_every_column(tmp_path):
    path = write_instance(tmp_path / "subset.mtx", bumped_band(40, seed=4))
    default = run_small_suite(ExperimentConfig(suite="small", matrices=(path,), seed=5))
    subset = run_small_suite(
        ExperimentConfig(suite="small", matrices=(path,), seed=5, preconditioners=("none",))
    )
    assert len(default) == 3
    assert subset == default


def test_small_suite_rerun_is_deterministic(tmp_path):
    path = write_instance(tmp_path / "det2.mtx", bumped_band(60, seed=10))
    cfg = ExperimentConfig(suite="small", matrices=(path,), seed=31)
    # small rows contain no timing columns at all, so full equality holds
    assert run_small_suite(cfg) == run_small_suite(cfg)


def test_spectrum_rows_match_curves():
    s = CsrMatrix.from_dense(bumped_band(40, seed=12))
    rows = spectrum_rows(s, ic0(s))
    assert len(rows) == 40
    thetas = [float(row[1]) for row in rows]
    assert thetas == sorted(thetas, reverse=True)
    for row in rows:
        theta = float(row[1])
        assert float(row[2]) == pytest.approx(gamma(theta), rel=1e-12)
        assert float(row[3]) == pytest.approx(nu(theta), rel=1e-12)
        assert float(row[4]) == pytest.approx(abs(theta), rel=1e-15)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bregpcg.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("label", ["none", "ichol", *LABELS])
def test_cli_solve_smoke(tmp_path, label):
    path = write_instance(tmp_path / "cli_a.mtx", bumped_band(50, seed=14))
    proc = run_cli("solve", path, "--precond", label, "--rank", "4", "--tol", "1e-10")
    assert proc.returncode == 0, proc.stderr
    assert "converged" in proc.stdout.lower()


def test_cli_solve_missing_file_hints_download(tmp_path):
    proc = run_cli("solve", str(tmp_path / "absent.mtx"))
    assert proc.returncode == 2
    assert "sparse.tamu.edu" in proc.stderr


def test_cli_solve_builder_error_exits_two(tmp_path):
    path = write_instance(tmp_path / "cli_d.mtx", bumped_band(50, seed=14))
    proc = run_cli("solve", path, "--precond", "breg", "--cap", "30")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error: breg: order 50 exceeds the densification cap 30" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("label", ["nys", "svd_ks"])
def test_cli_solve_rank_of_at_least_n_exits_two(tmp_path, label):
    path = write_instance(tmp_path / "cli_r.mtx", bumped_band(50, seed=14))
    proc = run_cli("solve", path, "--precond", label, "--rank", "60")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "RankCollapse" not in proc.stderr
    assert f"error: {label}: rank 60 must satisfy 0 <= r < 50" in proc.stderr
    assert proc.stdout == ""


def test_cli_solve_rhs_atb_on_a_square_matrix_exits_two(tmp_path):
    path = write_instance(tmp_path / "cli_h.mtx", bumped_band(20, seed=14))
    proc = run_cli("solve", path, "--precond", "ichol", "--rhs", "atb")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error: rhs mode 'atb' applies only to normal equations" in proc.stderr


def test_cli_solve_negative_maxit_exits_two(tmp_path):
    # it ran 0 iterations and exited 1, as an unconverged solve does
    path = write_instance(tmp_path / "cli_m.mtx", bumped_band(20, seed=14))
    proc = run_cli("solve", path, "--precond", "none", "--maxit", "-3")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error: maxit must be >= 0, not -3" in proc.stderr
    assert proc.stdout == ""


def test_cli_solve_maxit_zero_is_the_default(tmp_path):
    # 0 means the default, as in a config; it ran 0 iterations and exited 1
    path = write_instance(tmp_path / "cli_m.mtx", bumped_band(20, seed=14))
    zero, default = (run_cli("solve", path, "--precond", "none", *maxit) for maxit in (["--maxit", "0"], []))
    assert zero.returncode == default.returncode == 0, zero.stderr
    untimed = [
        [line for line in proc.stdout.splitlines() if not line.startswith(("construction_s", "solve_s"))]
        for proc in (zero, default)
    ]
    assert untimed[0] == untimed[1]


@pytest.mark.parametrize("flag", ["--tol", "--eig-tol"])
def test_cli_solve_negative_tolerance_exits_two(tmp_path, flag):
    # --tol -1 ran ichol-PCG to an exactly zero residual and ended in an
    # IndefinitePreconditionerDetected traceback
    path = write_instance(tmp_path / "cli_t.mtx", bumped_band(20, seed=14))
    proc = run_cli("solve", path, "--precond", "ichol", flag, "-1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: {flag[2:].replace('-', '_')} must be >= 0, not -1.0" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "command, message",
    [
        (("solve", "--precond", "breg_alpha", "--alpha", "2"), "alphas must be in [0, 1], not 2.0"),
        (("solve", "--rank-frac", "1.5"), "epsilons must be in [0, 1), not 1.5"),
        (("solve", "--precond", "nys", "--oversample", "-1"), "oversample must be >= 0, not -1"),
        (("solve", "--precond", "nys_indef", "--width-factor", "0.5"), "width_factor must be >= 1, not 0.5"),
        (("solve", "--diag-shift", "-2"), "diag_shift must be > -1, not -2.0"),
        (("spectrum", "--diag-shift", "-2"), "diag_shift must be > -1, not -2.0"),
        (("solve", "--diag-shift", "inf"), "diag_shift must be > -1, not inf"),
        (("spectrum", "--diag-shift", "nan"), "diag_shift must be > -1, not nan"),
    ],
)
def test_cli_rejects_flag_values_no_run_can_use(tmp_path, capsys, command, message):
    # each was checked only after the matrix was read and factored, or not
    # at all: on a missing matrix these reported the missing file
    from bregpcg import cli

    assert cli.main([command[0], str(tmp_path / "absent.mtx"), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert f"error: {message}" in err
    assert "sparse.tamu.edu" not in err and out == ""


@pytest.mark.parametrize("command", [("solve", "--precond", "ichol"), ("spectrum",)], ids=["solve", "spectrum"])
@pytest.mark.parametrize("shift", ["0.0", "0.0001"])
def test_cli_breakdown_hint_names_the_given_shift(tmp_path, monkeypatch, capsys, command, shift):
    # ic0 breaks down on the squared 21x21-grid Laplacian in row 439, also
    # with a shift of 1e-4, where the hint asked for a shift already given
    from bregpcg import cli

    monkeypatch.chdir(tmp_path)
    dense = laplacian_2d(21)
    write_instance("p21sq.mtx", dense @ dense)
    assert cli.main([command[0], "p21sq.mtx", *command[1:], "--diag-shift", shift]) == 2
    err = capsys.readouterr().err
    assert f"error: incomplete Cholesky broke down in row 439 at --diag-shift {shift}; retry with a larger one\n" in err


@pytest.mark.parametrize(
    "command", [("solve", "--precond", "ichol"), ("spectrum", "--out", "spec.csv")], ids=["solve", "spectrum"]
)
def test_cli_nonpositive_diagonal_exits_two(tmp_path, monkeypatch, capsys, command):
    from bregpcg import cli

    monkeypatch.chdir(tmp_path)
    write_instance("bad.mtx", indefinite_tridiagonal(30))
    assert cli.main([command[0], "bad.mtx", *command[1:]]) == 2
    assert "error: matrix diagonal must be strictly positive" in capsys.readouterr().err


def count_ic0(monkeypatch):
    """Count factorizations by replacing every bregpcg module's binding of ic0."""
    original = ichol.ic0
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bregpcg" or name.startswith("bregpcg."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("label", ["none", "ichol", *LABELS])
def test_cli_solve_factors_at_most_once(tmp_path, monkeypatch, label):
    from bregpcg import cli

    path = write_instance(tmp_path / "once.mtx", bumped_band(50, seed=14))
    calls = count_ic0(monkeypatch)
    assert cli.main(["solve", path, "--precond", label, "--rank", "4"]) == 0
    assert len(calls) == (0 if label == "none" else 1)


def test_cli_spectrum_and_suites_factor_once_per_matrix(tmp_path, monkeypatch):
    from bregpcg import cli

    paths = [write_instance(tmp_path / f"m{i}.mtx", bumped_band(120, seed=i)) for i in range(2)]
    calls = count_ic0(monkeypatch)
    assert cli.main(["spectrum", paths[0], "--out", str(tmp_path / "spec.csv")]) == 0
    assert len(calls) == 1
    # the small suite fills every column, so it always factors; a large
    # table of none rows alone reads no factor
    configs = [
        (ExperimentConfig(suite="small"), 1),
        (ExperimentConfig(suite="small", preconditioners=("none",)), 1),
        (ExperimentConfig(suite="large", epsilons=(0.05, 0.1), alphas=(0.0, 1.0), oversample=20), 1),
        (ExperimentConfig(suite="large", preconditioners=("none",)), 0),
        (ExperimentConfig(suite="large", epsilons=(0.05,), preconditioners=("ichol", "svd_ks", "breg")), 1),
    ]
    for cfg, per_matrix in configs:
        del calls[:]
        run = run_small_suite if cfg.suite == "small" else run_large_suite
        rows = run(dataclasses.replace(cfg, matrices=tuple(paths)))
        assert rows and len(calls) == per_matrix * len(paths), cfg


def test_large_table_of_none_rows_reads_no_factor(tmp_path, monkeypatch, caplog):
    # ic0 breaks down on the squared 21x21-grid Laplacian (row 439 of 441),
    # which a table that asks for no factor must not run into
    monkeypatch.chdir(tmp_path)
    dense = laplacian_2d(21)
    write_instance("p21sq.mtx", dense @ dense)
    calls = count_ic0(monkeypatch)
    with caplog.at_level("INFO", logger="bregpcg"):
        rows = run_large_suite(ExperimentConfig(suite="large", matrices=("p21sq.mtx",), preconditioners=("none",)))
    assert [row[LARGE_HEADER.index("preconditioner")] for row in rows] == ["none", "none"]
    assert not any(row[LARGE_HEADER.index("note")].startswith("err") for row in rows)
    assert calls == [] and not [msg for msg in caplog.messages if "ic0" in msg]


@pytest.mark.parametrize(
    "command, empty",
    [(("bench", "--suite", "small", "--out"), False), (("spectrum", "--out"), False), (("spectrum", "--out"), True)],
    ids=["bench", "spectrum", "spectrum-empty"],
)
def test_cli_unwritable_output_fails_before_any_run(tmp_path, monkeypatch, capsys, command, empty):
    # an empty --out ran ic0 and the dense spectrum, then exited 2 with the
    # download hint; bench reads an empty --out as results.csv
    from bregpcg import cli

    path = write_instance(tmp_path / "out_m.mtx", bumped_band(60, seed=5))
    out = "" if empty else str(tmp_path / "missing_dir" / "x.csv")
    calls = count_ic0(monkeypatch)
    assert cli.main([command[0], path, *command[1:], out]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out}" in err
    assert "sparse.tamu.edu" not in err
    assert calls == [] and not (tmp_path / "missing_dir").exists()


def test_rhs_seed_reads_the_normalised_path(tmp_path, monkeypatch):
    # on this matrix the spelling ./p15.mtx used to give other iteration counts
    monkeypatch.chdir(tmp_path)
    write_instance("p15.mtx", laplacian_2d(15) + 0.01 * np.eye(225))
    plain = run_small_suite(ExperimentConfig(suite="small", matrices=("p15.mtx",)))
    dotted = run_small_suite(ExperimentConfig(suite="small", matrices=("./p15.mtx",)))
    assert plain == dotted
    assert [row[SMALL_HEADER.index("iter_none")] for row in plain] == ["54"] * 3


def test_cli_solve_ichol_reports_factor_time(tmp_path):
    path = write_instance(tmp_path / "cli_e.mtx", laplacian_2d(30))
    proc = run_cli("solve", path, "--precond", "ichol")
    assert proc.returncode == 0, proc.stderr
    line = next(row for row in proc.stdout.splitlines() if row.startswith("construction_s"))
    assert float(line.split()[-1]) > 0.0
    # the large suite's ichol rows report the factor time as well
    rows = run_large_suite(ExperimentConfig(suite="large", matrices=(path,), preconditioners=("ichol",)))
    assert {row[LARGE_HEADER.index("preconditioner")] for row in rows} == {"ichol"}
    assert all(float(row[LARGE_HEADER.index("construction_s")]) > 0.0 for row in rows)


def test_cli_calls_in_one_process_share_one_parser(tmp_path, capsys):
    # main builds its parser once; a later call sees none of an earlier
    # call's options
    from bregpcg import cli

    parser = cli._build_parser()
    assert cli._build_parser() is parser
    first = parser.parse_args(["solve", "a.mtx", "--seed", "5", "--rank", "3", "--precond", "ichol"])
    again = parser.parse_args(["solve", "a.mtx"])
    assert (first.seed, first.rank, first.precond) == (5, 3, "ichol")
    assert (again.seed, again.rank, again.precond) == (0, None, "breg")
    path = write_instance(tmp_path / "cli_p.mtx", bumped_band(40, seed=16))
    out = tmp_path / "rows.csv"
    assert cli.main(["bench", path, "--suite", "small", "--out", str(out), "--seed", "3"]) == 0
    assert cli.main(["solve", path, "--precond", "ichol"]) == 0
    assert cli.main(["spectrum", path, "--out", str(tmp_path / "spec.csv")]) == 0
    assert cli._build_parser() is parser
    assert "wrote" in capsys.readouterr().out


def test_cli_bench_writes_csv(tmp_path):
    path = write_instance(tmp_path / "cli_b.mtx", bumped_band(60, seed=15))
    out = tmp_path / "rows.csv"
    proc = run_cli("bench", path, "--suite", "small", "--out", str(out), "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    with open(out) as handle:
        reader = list(csv.reader(handle))
    assert reader[0] == SMALL_HEADER
    assert len(reader) > 1


def test_cli_bench_no_matrices_exits_two(tmp_path):
    proc = run_cli("bench", "--suite", "small", "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "sparse.tamu.edu" in proc.stderr


def test_cli_bench_honours_the_config(tmp_path):
    path = write_instance(tmp_path / "cli_f.mtx", bumped_band(60, seed=15))
    out = tmp_path / "from_config.csv"
    config = tmp_path / "f.cfg"
    config.write_text(
        f"suite = large\nmatrices = {path}\nout = {out}\nseed = 7\nepsilons = 0.05\noversample = 20\n"
    )
    proc = run_cli("bench", "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    with open(out) as handle:
        reader = list(csv.reader(handle))
    want = run_large_suite(parse_config(config))
    assert reader[0] == LARGE_HEADER
    assert strip_timing(reader[1:]) == [[str(cell) for cell in row] for row in strip_timing(want)]
    seed_zero = run_large_suite(ExperimentConfig(
        suite="large", matrices=(path,), epsilons=(0.05,), oversample=20
    ))
    assert strip_timing(want) != strip_timing(seed_zero)


def test_cli_bench_flags_override_the_config(tmp_path):
    path = write_instance(tmp_path / "cli_g.mtx", bumped_band(60, seed=15))
    config = tmp_path / "f.cfg"
    config.write_text(
        f"suite = large\nmatrices = {path}\nout = {tmp_path / 'from_config.csv'}\nseed = 7\n"
    )
    out = tmp_path / "flags.csv"
    proc = run_cli("bench", "--config", str(config), "--suite", "small", "--out", str(out), "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "from_config.csv").exists()
    with open(out) as handle:
        reader = list(csv.reader(handle))
    want = run_small_suite(ExperimentConfig(suite="small", matrices=(path,), seed=0))
    assert reader == [SMALL_HEADER] + [[str(cell) for cell in row] for row in want]


@pytest.mark.parametrize("config_part, flag_part", [("krylov_schur", "nystrom"), ("nystrom", "krylov_schur")])
def test_cli_bench_positive_part_flag_overrides_the_config(tmp_path, config_part, flag_part):
    path = write_instance(tmp_path / "cli_p.mtx", bumped_band(100, seed=15))
    config = tmp_path / "p.cfg"
    config.write_text(
        f"suite = large\nmatrices = {path}\nepsilons = 0.05\nalphas = 0.0\n"
        f"preconditioners = breg_alpha\npositive_part = {config_part}\n"
    )
    out = tmp_path / "p.csv"
    proc = run_cli("bench", "--config", str(config), "--out", str(out), "--positive-part", flag_part)
    assert proc.returncode == 0, proc.stderr
    with open(out) as handle:
        got = list(csv.reader(handle))[1:]
    want = run_large_suite(dataclasses.replace(parse_config(config), positive_part=flag_part))
    assert strip_timing(got) == strip_timing([[str(cell) for cell in row] for row in want])
    notes = [row[LARGE_HEADER.index("note")] for row in got]
    assert notes == (["eta-probe"] if flag_part == "nystrom" else [""])


@pytest.mark.parametrize(
    "text, message",
    [
        ("suite = medium\n", "config line 1: suite must be small or large, not 'medium'"),
        ("suite = large\nseed = seven\n", "config line 2: invalid literal for int()"),
    ],
)
def test_cli_bench_rejects_a_bad_config(tmp_path, text, message):
    config = tmp_path / "f.cfg"
    config.write_text(text + f"out = {tmp_path / 'x.csv'}\n")
    proc = run_cli("bench", str(tmp_path / "absent.mtx"), "--config", str(config))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("rhs_mode = bogus", "config line 2: rhs_mode must be random or atb, not 'bogus'"),
        ("maxit = -3", "config line 2: maxit must be >= 0"),
        ("epsilons = 0.05, -0.5", "config line 2: epsilons must be in [0, 1), not -0.5"),
        ("alphas = 0.5, 1.5", "config line 2: alphas must be in [0, 1], not 1.5"),
        ("tol = -1", "config line 2: tol must be >= 0, not -1.0"),
        ("eig_tol = -1e-3", "config line 2: eig_tol must be >= 0, not -0.001"),
        ("oversample = -100", "config line 2: oversample must be >= 0, not -100"),
        ("width_factor = 0", "config line 2: width_factor must be >= 1, not 0.0"),
        ("diag_shift = -2", "config line 2: diag_shift must be > -1, not -2.0"),
        ("epsilons = 1.5", "config line 2: epsilons must be in [0, 1), not 1.5"),
        ("cap = -1", "config line 2: cap must be >= 1, not -1"),
        ("diag_shift = inf", "config line 2: diag_shift must be > -1, not inf"),
    ],
)
def test_cli_bench_rejects_config_values_no_run_can_use(tmp_path, line, message):
    # each value was read as given: every matrix was then skipped (a bad
    # rhs_mode), solved with 0 iterations (a negative maxit) or to an exactly
    # zero residual (a negative tol), or given rows that fail (r = floor(eps
    # * n) outside [0, n), alpha outside [0, 1], a negative oversample, an
    # indefinite sketch narrower than r, a shifted diagonal that is not
    # positive, a cap below 1), and exit 0
    path = write_instance(tmp_path / "cli_v.mtx", bumped_band(40, seed=3))
    config = tmp_path / "v.cfg"
    config.write_text(f"suite = large\n{line}\npreconditioners = none\n")
    proc = run_cli("bench", path, "--config", str(config), "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: {config}: {message}" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_cli_bench_unknown_label_in_config_exits_two(tmp_path):
    path = write_instance(tmp_path / "cli_h.mtx", bumped_band(40, seed=3))
    config = tmp_path / "typo.cfg"
    config.write_text(f"suite = large\nmatrices = {path}\npreconditioners = ichol, breg_alfa\n")
    proc = run_cli("bench", "--config", str(config), "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: {config}: unknown preconditioner breg_alfa" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_cli_bench_missing_config_exits_two(tmp_path):
    path = write_instance(tmp_path / "cli_i.mtx", bumped_band(40, seed=3))
    config = tmp_path / "absent.cfg"
    proc = run_cli("bench", path, "--config", str(config))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: {config}: " in proc.stderr and "No such file" in proc.stderr
    assert "sparse.tamu.edu" not in proc.stderr


@pytest.mark.parametrize(
    "case, message",
    [
        ("size_line", "error: ParseError: line 2: size line must have integers"),
        ("not_symmetric", "error: NotPositiveDefinite: square input is not symmetric"),
        ("indefinite", "error: NotPositiveDefinite: <d, S d> ="),
    ],
)
def test_cli_solve_bad_input_exits_two(tmp_path, case, message):
    path = tmp_path / f"{case}.mtx"
    if case == "size_line":
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 three 1\n1 1 1.0\n")
    elif case == "not_symmetric":
        write_instance(path, np.array([[2.0, 1.0], [0.0, 2.0]]))
    else:
        write_instance(path, indefinite_tridiagonal(30))
    proc = run_cli("solve", str(path), "--precond", "none")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_cli_spectrum_writes_csv(tmp_path):
    path = write_instance(tmp_path / "cli_c.mtx", bumped_band(40, seed=16))
    out = tmp_path / "spec.csv"
    proc = run_cli("spectrum", path, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out) as handle:
        reader = list(csv.reader(handle))
    assert reader[0] == SPECTRUM_HEADER
    assert len(reader) == 41
    # the spectrum has no right-hand side, so it takes no seed
    assert run_cli("spectrum", path, "--seed", "1", "--out", str(out)).returncode == 2
