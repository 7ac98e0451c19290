import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sketchgs
from sketchgs import GsVariant, SketchKind, read_report, write_report
from sketchgs.bench import RunConfig, run_certify, run_qr_bench
from sketchgs.cli import (EXIT_BREAKDOWN, EXIT_CONFIG, EXIT_IO, EXIT_OK,
                          _out_path, _parse_variants, main)


def test_parse_variants():
    assert _parse_variants("rgs") == (GsVariant.RGS,)
    assert _parse_variants("cgs, mgs") == (GsVariant.CGS, GsVariant.MGS)
    with pytest.raises(argparse.ArgumentTypeError, match="unknown variant 'qr'"):
        _parse_variants("qr")
    with pytest.raises(argparse.ArgumentTypeError, match="no variants"):
        _parse_variants(",")
    with pytest.raises(argparse.ArgumentTypeError,
                       match="'rgs' requested twice"):
        _parse_variants("rgs,rgs,mgs")


def test_out_path():
    assert _out_path("a.csv", "rgs", multi=False) == "a.csv"
    assert _out_path("a.csv", "rgs", multi=True) == "a.rgs.csv"
    assert _out_path("noext", "mgs", multi=True) == "noext.mgs"
    # a dot in a directory name is not an extension
    assert _out_path("./qr", "rgs", multi=True) == "./qr.rgs"
    assert _out_path("runs.v2/qr", "rgs", multi=True) == "runs.v2/qr.rgs"


def test_sketch_info(capsys):
    rc = main(["sketch-info", "--sketch", "rademacher", "--eps", "0.5",
               "--delta", "0.01", "--d", "10"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "k >= 2318" in out
    assert "k_phi >= 12581" in out


def test_qr_bench_writes_per_variant(tmp_path, capsys):
    out = tmp_path / "qr.csv"
    rc = main(["qr-bench", "--n", "400", "--m", "12", "--k", "64",
               "--k-phi", "48", "--variants", "rgs,mgs", "--out", str(out)])
    assert rc == EXIT_OK
    rgs = read_report(tmp_path / "qr.rgs.csv")
    mgs = read_report(tmp_path / "qr.mgs.csv")
    assert len(rgs.rows) == len(mgs.rows) == 12
    assert rgs.metadata["variant"] == "rgs"
    assert np.all(np.isfinite(rgs.column("omega")))


def test_qr_bench_single_variant_uses_exact_path(tmp_path):
    out = tmp_path / "only.csv"
    rc = main(["qr-bench", "--n", "400", "--m", "10", "--k", "64",
               "--k-phi", "48", "--variants", "rgs", "--out", str(out)])
    assert rc == EXIT_OK
    assert out.exists()


def test_gmres_bench(tmp_path, capsys):
    out = tmp_path / "g.csv"
    rc = main(["gmres-bench", "--matrix", "laplacian:10", "--m", "50",
               "--k", "80", "--policy", "f64", "--variants", "rgs",
               "--tol", "1e-10", "--out", str(out)])
    assert rc == EXIT_OK
    rep = read_report(out)
    assert rep.column("residual_norm")[-1] < 1e-8
    assert rep.metadata["iterations"] == str(len(rep.rows))
    assert rep.metadata["converged"] == "True"
    assert rep.metadata["breakdown"] == "False"
    printed = capsys.readouterr().out
    assert "final residual" in printed
    assert "converged=True, breakdown=False" in printed


def test_gmres_bench_without_tol(tmp_path, capsys):
    # nothing was asked, so the flag is reported as absent, not as False
    out = tmp_path / "g.csv"
    rc = main(["gmres-bench", "--matrix", "laplacian:15", "--precond",
               "--m", "40", "--k", "200", "--policy", "f64", "--variants",
               "rgs", "--out", str(out)])
    assert rc == EXIT_OK
    rep = read_report(out)
    assert float(rep.metadata["final_residual"]) < 1e-13
    assert "converged" not in rep.metadata
    assert "converged=n/a, breakdown=False" in capsys.readouterr().out


def test_gmres_bench_zero_right_hand_side(tmp_path, capsys):
    # rows that sum to zero give b = A·1 = 0, which x = 0 solves in zero
    # iterations under every variant: no 0/0, no non-finite input
    mtx = tmp_path / "zerosum.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "3 3 7\n"
                   "1 1 1.0\n1 2 -1.0\n2 1 -1.0\n2 2 2.0\n2 3 -1.0\n"
                   "3 2 -1.0\n3 3 1.0\n")
    out = tmp_path / "z.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["gmres-bench", "--matrix", str(mtx), "--m", "2",
                   "--k", "3", "--out", str(out)])
    assert rc == EXIT_OK
    printed = capsys.readouterr().out
    for variant in GsVariant:
        assert (f"{variant.value}: 0 iterations, final residual 0.000e+00"
                in printed)
        rep = read_report(tmp_path / f"z.{variant.value}.csv")
        assert rep.rows == []
        assert rep.metadata["iterations"] == "0"


def test_certify_command(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = main(["certify", "--n", "400", "--m", "10", "--k", "64",
               "--k-phi", "48", "--eps-star", "0.25", "--out", str(out)])
    assert rc == EXIT_OK
    rep = read_report(out)
    assert np.all(rep.column("omega_bar") >= rep.column("omega") - 1e-9)
    assert "omega_bar=" in capsys.readouterr().out


@pytest.mark.parametrize("argv, lines", [
    (["qr-bench", "--n", "400", "--m", "6", "--k", "64", "--k-phi", "48",
      "--variants", "rgs,mgs", "--out", "{dir}/qr.csv"],
     ["rgs: wrote {dir}/qr.rgs.csv", "mgs: wrote {dir}/qr.mgs.csv"]),
    (["gmres-bench", "--matrix", "laplacian:10", "--m", "12", "--k", "40",
      "--policy", "f64", "--variants", "rgs,cgs", "--tol", "1e-3",
      "--out", "{dir}/g.csv"],
     ["rgs: 12 iterations, final residual 1.027e-03, converged=False, "
      "breakdown=False, wrote {dir}/g.rgs.csv",
      "cgs: 12 iterations, final residual 9.035e-04, converged=True, "
      "breakdown=False, wrote {dir}/g.cgs.csv"]),
    (["gmres-bench", "--matrix", "laplacian:6", "--m", "3", "--k", "32",
      "--policy", "f64", "--variants", "rgs", "--out", "{dir}/g.csv"],
     ["rgs: 3 iterations, final residual 2.422e-01, converged=n/a, "
      "breakdown=False, wrote {dir}/g.csv"]),
    (["certify", "--n", "400", "--m", "6", "--k", "64", "--k-phi", "48",
      "--out", "{dir}/c.csv"],
     ["rgs: omega=0.6767 omega_bar=0.8231, wrote {dir}/c.csv"]),
], ids=["qr-bench", "gmres-bench-tol", "gmres-bench", "certify"])
def test_report_commands_print_one_line_per_report(tmp_path, capsys, argv,
                                                   lines):
    # the exact stdout of each report command: one line per file written,
    # the per-variant suffix only when several variants run
    rc = main([arg.format(dir=tmp_path) for arg in argv])
    assert rc == EXIT_OK
    expected = [line.format(dir=tmp_path) for line in lines]
    assert capsys.readouterr().out.splitlines() == expected
    assert sorted(tmp_path.iterdir()) == sorted(
        pathlib.Path(line.rpartition(" wrote ")[2]) for line in expected)


def test_exit_code_config_error(tmp_path, capsys):
    rc = main(["qr-bench", "--matrix", "bogus:1", "--out",
               str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    capsys.readouterr()
    rc = main(["gmres-bench", "--matrix", "bogus", "--out",
               str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    assert "unrecognized matrix source 'bogus'" in capsys.readouterr().err
    rc = main(["qr-bench", "--variants", "nope", "--out",
               str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    # argparse prints the parser's own message, not just the value it refused
    assert "unknown variant 'nope'" in capsys.readouterr().err
    rc = main(["qr-bench", "--n", "400", "--m", "4", "--k", "64",
               "--variants", "rgs,rgs,mgs", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    assert "variant 'rgs' requested twice" in capsys.readouterr().err
    assert not (tmp_path / "x.rgs.csv").exists()
    rc = main(["not-a-subcommand"])
    assert rc == EXIT_CONFIG
    # a sketch seed outside [0, 2**64) is named, not numpy's Philox key error
    capsys.readouterr()
    for option, seed in (("--seed", "-1"), ("--phi-seed", str(2**64))):
        rc = main(["qr-bench", "--n", "400", "--m", "4", "--k", "64",
                   "--variants", "rgs", option, seed,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: sketch seed must lie in [0, 2**64), "
            f"got {seed}\n")
    rc = main(["gmres-bench", "--matrix", "laplacian:4", "--m", "-1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    assert "got m=-1" in capsys.readouterr().err
    for n in ("0", "-5"):  # the P-SRHT bound's log(6 n / delta)
        rc = main(["sketch-info", "--n", n])
        assert rc == EXIT_CONFIG
        assert f"got n={n}" in capsys.readouterr().err
    for option, value, message in (
            ("--d", "0", "d must be a positive integer"),
            ("--eps", "1.0", "epsilon must lie in (0, 1)"),
            ("--delta", "0", "delta must lie in (0, 1)")):
        rc = main(["sketch-info", option, value])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
    # an eps* outside [0, 1) would certify a bound below the exact omega
    for eps_star in ("-0.5", "1.0"):
        rc = main(["certify", "--n", "2000", "--m", "10", "--k", "200",
                   "--k-phi", "100", "--eps-star", eps_star,
                   "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_CONFIG
        assert "eps_star" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()
    rc = main(["qr-bench", "--matrix", "laplacian:5", "--m", "30",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    assert "more columns requested" in capsys.readouterr().err


def test_removed_solver_flag_is_rejected(tmp_path, capsys):
    # the sketched least squares has one solver; a script that still passes
    # the old flag fails loudly instead of running something else
    out = tmp_path / "x.csv"
    rc = main(["qr-bench", "--n", "400", "--m", "4", "--k", "64",
               "--variants", "rgs", "--ls-solver", "householder",
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "--ls-solver" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_io_error(capsys):
    rc = main(["gmres-bench", "--matrix", "/does/not/exist.mtx",
               "--out", "/tmp/unused.csv"])
    assert rc == EXIT_IO


def test_exit_code_breakdown(tmp_path, capsys):
    # a matrix whose third column is identically zero: the projection
    # residual vanishes exactly and the run reports a breakdown
    mtx = tmp_path / "zerocol.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "5 5 4\n"
                   "1 1 1.0\n2 1 2.0\n2 2 3.0\n4 2 1.0\n")
    rc = main(["qr-bench", "--m", "3", "--k", "5", "--policy", "f64",
               "--variants", "cgs", "--matrix", str(mtx),
               "--out", str(tmp_path / "b.csv")])
    assert rc == EXIT_BREAKDOWN
    assert "breakdown" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gmres-bench", "--precond", "--variants", "mgs", "--m", "2"],
     "ILU(0) pivot"),
    (["sketch-info", "--eps", "1e-200"], ""),  # a bound divides by zero
    (["sketch-info", "--delta", "1e-320"], ""),  # a bound overflows a float
], ids=["zero-pivot", "eps", "delta"])
def test_exit_code_arithmetic_error(tmp_path, capsys, argv, message):
    # an ArithmeticError the run raises is a numerical failure, not a crash
    if argv[0] == "gmres-bench":  # an explicit 0.0 as ILU(0)'s first pivot
        mtx = tmp_path / "zeropivot.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "3 3 5\n"
                       "1 1 0.0\n1 2 1.0\n2 1 1.0\n2 2 2.0\n3 3 1.0\n")
        argv = [*argv, "--matrix", str(mtx), "--out", str(tmp_path / "p.csv")]
    rc = main(argv)
    assert rc == EXIT_BREAKDOWN
    assert f"numerical breakdown: {message}" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("entries, argv, message", [
    # A = diag(1e200) is solvable, but ||A·1|| overflows binary64
    (["1 1 1e200", "2 2 1e200", "3 3 1e200"], [],
     "non-finite norm of the right-hand side at column 1"),
    # a NaN pivot, which SuperLU stops on with a RuntimeError
    (["1 1 4.0", "1 2 1.0", "2 2 nan", "3 3 4.0", "3 1 1.0"], ["--precond"],
     "ILU(0) non-finite entry at row 1"),
    # an infinity, which SuperLU factors without a word
    (["1 1 4.0", "2 2 4.0", "2 3 inf", "3 3 4.0", "3 1 1.0"], ["--precond"],
     "ILU(0) non-finite entry at row 1"),
], ids=["norm-overflow", "ilu-nan", "ilu-inf"])
def test_gmres_bench_non_finite_exits_3(tmp_path, capsys, entries, argv,
                                        message):
    mtx = tmp_path / "a.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   f"3 3 {len(entries)}\n" + "\n".join(entries) + "\n")
    rc = main(["gmres-bench", "--matrix", str(mtx), "--m", "2", "--k", "3",
               *argv, "--out", str(tmp_path / "g.csv")])
    assert rc == EXIT_BREAKDOWN
    assert capsys.readouterr().err == f"numerical breakdown: {message}\n"
    assert not list(tmp_path.glob("g*.csv"))


def test_exit_code_nonfinite(tmp_path, capsys):
    # the entry 1e40 overflows binary32 when column 2 is stored under mixed
    mtx = tmp_path / "overflow.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "5 5 4\n"
                   "1 1 1.0\n2 1 2.0\n2 2 1e40\n4 2 1.0\n")
    with np.errstate(all="ignore"):
        rc = main(["qr-bench", "--m", "2", "--k", "5", "--policy", "mixed",
                   "--variants", "rgs", "--matrix", str(mtx),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == EXIT_BREAKDOWN
    assert "non-finite stored column of Q at column 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["qr-bench", "certify"])
def test_exit_code_linalg_failure(tmp_path, capsys, monkeypatch, command):
    # numpy's LinAlgError subclasses ValueError, but it is a numerical
    # failure, not a configuration error; a rank-deficient sketch no longer
    # raises one in the traces, so a failing SVD is injected there
    def fail(R):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("sketchgs.certification._leading_svals", fail)
    only_rgs = ["--variants", "rgs"] if command == "qr-bench" else []
    rc = main([command, "--n", "300", "--m", "8", "--k", "32", *only_rgs,
               "--out", str(tmp_path / "l.csv")])
    assert rc == EXIT_BREAKDOWN
    assert "numerical breakdown: SVD" in capsys.readouterr().err
    assert not (tmp_path / "l.csv").exists()


@pytest.mark.parametrize("command", ["qr-bench", "certify"])
def test_rank_deficient_sketch_writes_full_report(tmp_path, command):
    # in binary32 the basis loses rank, so S^T S is far from the identity;
    # the run still writes every row, omega_bar above omega in each
    out = tmp_path / "f.csv"
    only_rgs = ["--variants", "rgs"] if command == "qr-bench" else []
    rc = main([command, "--n", "300", "--m", "250", "--k", "260",
               "--policy", "f32", *only_rgs, "--out", str(out)])
    assert rc == EXIT_OK
    rep = read_report(out)
    om, ob = rep.column("omega"), rep.column("omega_bar")
    assert len(rep.rows) == 250
    assert not np.isnan(om).any() and not np.isnan(ob).any()
    assert np.all(om <= ob)


_OWN_OPTIONS = {"qr-bench": ["--k-phi", "32", "--variants", "rgs"],
                "gmres-bench": ["--variants", "rgs"],
                "certify": ["--k-phi", "32"]}


@pytest.mark.parametrize("command", ["qr-bench", "gmres-bench", "certify"])
def test_metadata_n_of_matrix_source(tmp_path, command):
    # the system has grid^2 = 36 unknowns, whatever RunConfig's n (1e5) says
    out = tmp_path / "n.csv"
    rc = main([command, "--matrix", "laplacian:6", "--m", "8", "--k", "32",
               "--policy", "f64", *_OWN_OPTIONS[command], "--out", str(out)])
    assert rc == EXIT_OK
    assert read_report(out).metadata["n"] == "36"


_SMALL_RUN = {
    "qr-bench": ["--n", "300", "--m", "4", "--k", "32"],
    "gmres-bench": ["--matrix", "laplacian:6", "--m", "4", "--k", "32"],
    "certify": ["--n", "300", "--m", "4", "--k", "32"]}


@pytest.mark.parametrize("command,option", [
    ("qr-bench", ["--delta-star", "0.01"]), ("qr-bench", ["--precond"]),
    ("qr-bench", ["--tol", "1e-8"]),
    ("gmres-bench", ["--n", "100"]), ("gmres-bench", ["--eps-star", "0.1"]),
    ("gmres-bench", ["--delta-star", "0.01"]),
    ("gmres-bench", ["--k-phi", "32"]), ("gmres-bench", ["--phi-seed", "1"]),
    ("certify", ["--variants", "cgs"]), ("certify", ["--delta-star", "0.01"]),
    ("certify", ["--precond"]), ("certify", ["--tol", "3"]),
], ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"))
def test_option_a_command_does_not_read_is_rejected(tmp_path, capsys,
                                                    command, option):
    # a setting the run would ignore is a configuration error, not a no-op
    out = tmp_path / "u.csv"
    rc = main([command, *_SMALL_RUN[command], *option, "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["qr-bench", "certify"])
def test_zero_k_phi_is_rejected(tmp_path, capsys, command):
    # an explicit --k-phi 0 is not "unset": like a negative value, it exits 2
    rc = main([command, *_SMALL_RUN[command], "--k-phi", "0",
               "--out", str(tmp_path / "z.csv")])
    assert rc == EXIT_CONFIG
    assert "k and n must be positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["qr-bench", "certify"])
def test_report_metadata_reruns_its_rows(tmp_path, command):
    # every setting the rows depend on is in the `#` lines: a RunConfig
    # rebuilt from them alone writes the same rows, omega_bar included
    out = tmp_path / "r.csv"
    rc = main([command, "--n", "400", "--m", "12", "--k", "64",
               "--sketch", "rademacher", "--seed", "5", "--eps-star", "0.3",
               "--k-phi", "40", "--phi-seed", "99",
               *(["--variants", "rgs"] if command == "qr-bench" else []),
               "--out", str(out)])
    assert rc == EXIT_OK
    meta = read_report(out).metadata
    assert (meta["eps_star"], meta["k_phi"], meta["phi_seed"]) == (
        "0.3", "40", "99")
    config = RunConfig(
        n=int(meta["n"]), m=int(meta["m"]), k=int(meta["k"]),
        sketch_kind=SketchKind(meta["sketch"]), seed=int(meta["seed"]),
        policy=meta["policy"], variants=(GsVariant(meta["variant"]),),
        matrix=meta["matrix"], eps_star=float(meta["eps_star"]),
        k_phi=int(meta["k_phi"]), phi_seed=int(meta["phi_seed"]))
    again = tmp_path / "again.csv"
    write_report(run_qr_bench(config)["rgs"] if command == "qr-bench"
                 else run_certify(config), again)

    def rows(path):
        return [l for l in path.read_text().splitlines()
                if not l.startswith("#")]
    assert rows(again) == rows(out)


def test_import_leaves_scipy_io_unloaded():
    # the Matrix Market reader imports scipy.io on use, so the library's
    # import time does not carry it
    code = "import sys, sketchgs; print('scipy.io' in sys.modules)"
    src = pathlib.Path(sketchgs.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_exit_code_zero_columns(tmp_path, capsys):
    rc = main(["qr-bench", "--m", "0", "--k", "16", "--matrix", "laplacian:5",
               "--variants", "rgs,cgs", "--out", str(tmp_path / "z.csv")])
    assert rc == EXIT_CONFIG
    assert "n >= m >= 1" in capsys.readouterr().err


def test_cli_runs_are_bit_identical(tmp_path):
    args = ["qr-bench", "--n", "400", "--m", "12", "--k", "64",
            "--k-phi", "48", "--policy", "f64", "--variants", "rgs"]
    outs = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        assert main(args + ["--out", str(path)]) == EXIT_OK
        text = path.read_text()
        # drop the wall_time metadata line, the only nondeterministic part
        kept = "\n".join(l for l in text.splitlines()
                         if not l.startswith("# wall_time"))
        outs.append(hashlib.sha256(kept.encode()).hexdigest())
    assert outs[0] == outs[1]
