"""CLI commands: artifacts, checks, and exit codes."""

import fractions
import json
import math
import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sigcalc import operators, powerseries, schemes
from sigcalc.cli import main
from sigcalc.montecarlo import gauss_hermite_expectation
from sigcalc.report import RunReport, write_csv, write_svg
from sigcalc.tensor import TensorCoeffs

ROOT = Path(__file__).resolve().parents[1]

@pytest.fixture
def runner():
    return CliRunner()


def read_report(stem):
    with open(str(stem) + ".report.json") as fh:
        return json.load(fh)


def assert_artifacts(stem):
    for suffix in (".csv", ".svg", ".report.json"):
        assert (stem.parent / (stem.name + suffix)).exists(), suffix


def test_gbm_laplace(runner, tmp_path):
    stem = tmp_path / "gbm"
    result = runner.invoke(
        main, ["gbm-laplace", "--T", "0.4", "--steps", "200", "--out", str(stem), "--check"]
    )
    assert result.exit_code == 0, result.output
    assert_artifacts(stem)
    report = read_report(stem)
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert any("quadrature" in n or "deviation" in n for n in names)
    # K=20 at d=1: R reads u_(p.1.1) for |p| <= 18, and one merged product
    # term per unordered pair of exponents {a, b} with a + b <= 20, a, b <= 19
    assert report["field"] == {"words": 21, "linear_terms": 19, "quadratic_terms": 120}


def test_gbm_laplace_check_counts_rows_without_a_value(runner, tmp_path):
    # at K=40 the direct ODE explodes before T=1 and leaves one grid row
    # without a value; that row fails the check, the deviations stay finite
    stem = tmp_path / "gbm"
    result = runner.invoke(main, ["gbm-laplace", "--K", "40", "--out", str(stem), "--check"])
    assert result.exit_code == 1, result.output
    checks = {c["name"]: c for c in read_report(stem)["checks"]}
    assert checks["grid rows without a value"]["value"] == 1
    assert not checks["grid rows without a value"]["pass"]
    assert all(math.isfinite(c["value"]) for c in checks.values())


@pytest.mark.parametrize(
    "T, steps, n_rows",
    [(0.6, 4, 5), (0.73, 1000, 16), (0.07, 1000, 3), (0.12, 1000, 4), (0.03, 1000, 2)],
)
def test_gbm_laplace_rows_sit_on_the_step_grid(runner, tmp_path, T, steps, n_rows):
    # each multiple of 0.05 below T, and T itself, reads its nearest step,
    # at that step's own time: with steps of 0.15 every third multiple is a
    # step time, at T=0.73 none past t=0 is; the last row sits at T, also
    # when T is no multiple of 0.05 or below 0.05; each row holds both
    # bases and the quadrature at its own t
    K = 8
    stem = tmp_path / "coarse"
    result = runner.invoke(
        main,
        ["gbm-laplace", "--T", str(T), "--steps", str(steps), "--K", str(K), "--out", str(stem)],
    )
    assert result.exit_code == 0, result.output
    cfg = schemes.SchemeConfig(T=T, steps=steps)
    u0 = powerseries.gbm_laplace_initial(1.0, 1.0, K)
    model = powerseries.brownian_model(K)
    _, mono = schemes.scheme1_riccati(lambda y: powerseries.R_pow(y, model), u0, cfg)
    _, fact = schemes.scheme1_riccati(
        operators.brownian_spec(1, K).field.riccati.apply, powerseries.to_factorial_basis(u0), cfg
    )
    rows = (tmp_path / "coarse.csv").read_text().splitlines()[1:]
    assert len(rows) == n_rows
    ks = []
    for row in rows:
        t, v1, v2, ref = (float(x) for x in row.split(",")[:4])
        k = t * steps / T
        assert abs(k - round(k)) <= 1e-9
        ks.append(round(k))
        assert (v1, v2) == (mono[round(k)].real, fact[round(k)].real)
        assert ref == gauss_hermite_expectation(lambda z: np.exp(-np.exp(z)), variance=t).real
    assert ks == sorted(set(ks)) and ks[-1] == steps


@pytest.mark.parametrize("K", [67, 170])
def test_gbm_laplace_at_high_truncation_runs_to_the_end(runner, tmp_path, K):
    # from K=67 the d=1 shuffle multiplicities pass 2^63 (C(67, 33) does);
    # they stay exact and the run writes its artifacts.  Its direct ODE
    # blows up before T=1, so --check fails on the rows without a value and
    # on nothing else
    stem = tmp_path / "top"
    result = runner.invoke(main, ["gbm-laplace", "--K", str(K), "--out", str(stem), "--check"])
    assert result.exit_code == 1
    assert result.output.strip().splitlines()[-1] == "Error: failed checks: grid rows without a value"
    assert_artifacts(stem)
    assert [c["name"] for c in read_report(stem)["checks"] if not c["pass"]] == [
        "grid rows without a value"
    ]


def test_gbm_laplace_with_negative_c_y0_runs_at_T0(runner, tmp_path):
    # c y0 < 0 is refused for t > 0 only: at T = 0 the value exp(-c y0) is finite
    stem = tmp_path / "t0"
    result = runner.invoke(
        main, ["gbm-laplace", "--c", "-0.01", "--T", "0", "--K", "8", "--out", str(stem), "--check"]
    )
    assert result.exit_code == 0, result.output
    row = (tmp_path / "t0.csv").read_text().splitlines()[1].split(",")
    assert float(row[0]) == 0.0 and float(row[1]) == pytest.approx(math.exp(0.01), rel=1e-15)


def test_bm_quartic_small(runner, tmp_path):
    # a scaled-down grid exercises both the float64 and the high-precision
    # transport paths plus one direct-ODE overlay
    stem = tmp_path / "quartic"
    result = runner.invoke(
        main,
        [
            "bm-quartic",
            "--T", "0.5",
            "--K", "40",
            "--N", "20",
            "--M", "20,40",
            "--riccati-k", "10",
            "--out", str(stem),
            "--check",
        ],
    )
    assert result.exit_code == 0, result.output
    assert_artifacts(stem)
    report = read_report(stem)
    assert report["passed"]
    assert "explosion_times" in report
    # the transport builds R of brownian_model(40): one merged product term
    # per pair p <= q <= 39 of derivative slots with p + q <= 40
    assert report["field"] == {"words": 41, "linear_terms": 39, "quadratic_terms": 440}


def test_bm_quartic_reports_its_transport_integrator(runner, tmp_path):
    # at the defaults every transport column is cut by the smoothness test:
    # M=80, 160 and 320 keep 68, 75 and 77 of the 81 grid values, and the
    # value cut at grid point n took n half-steps, one R evaluation each
    stem = tmp_path / "quartic"
    result = runner.invoke(main, ["bm-quartic", "--out", str(stem)])
    assert result.exit_code == 0, result.output
    header, *rows = (tmp_path / "quartic.csv").read_text().splitlines()
    columns = header.split(",")
    record = read_report(stem)["transport_integrator"]
    kept = {}
    for m in ("80", "160", "320"):
        col = columns.index(f"transport_M{m}")
        kept[m] = sum(row.split(",")[col] != "nan" for row in rows)
        stats = record[m]
        assert stats["half_steps"] == stats["rhs_evals"] == kept[m]
        assert stats["stop"] == "smoothness test"
        if m == "80":  # lam = 1: the float mixture
            assert "dps" not in stats
        else:
            lam = int(m) / 80
            assert stats["predicted_cancellation_digits"] == 80 * math.log10(2 * lam - 1)
            assert stats["dps"] == math.ceil(stats["predicted_cancellation_digits"]) + 30
    assert kept == {"80": 68, "160": 75, "320": 77}


def test_gbm_laplace_long_horizon_fails_its_checks_without_a_traceback(runner, tmp_path):
    # the quadrature column converges at variance 100; the direct ODE blows
    # up long before T = 100, which only the checks report
    stem = tmp_path / "long"
    result = runner.invoke(main, ["gbm-laplace", "--T", "100", "--out", str(stem)])
    assert result.exit_code == 0, result.output
    assert_artifacts(stem)
    last = (tmp_path / "long.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "100.0" and abs(float(last[3]) - 0.4773232632016447) < 1e-12
    result = runner.invoke(main, ["gbm-laplace", "--T", "100", "--out", str(stem), "--check"])
    assert result.exit_code == 1
    assert not isinstance(result.exception, RuntimeError)
    assert "Traceback" not in result.output
    assert result.output.strip().splitlines()[-1].startswith("Error: failed checks: ")


def test_quadrature_runs_import_no_scipy(tmp_path):
    # the Gaussian quadrature is numpy only: a fresh interpreter that runs
    # gbm-laplace and bm-quartic holds no scipy module afterwards, nor
    # numpy.polynomial, whose 9 modules Model1D's np.polyval does without
    code = textwrap.dedent("""
        import sys
        from sigcalc.cli import main
        for args in (["gbm-laplace", "--T", "0.2", "--steps", "20", "--out", "g"],
                     ["bm-quartic", "--T", "0.5", "--K", "20", "--N", "10",
                      "--M", "10,20", "--riccati-k", "10", "--out", "q"]):
            try:
                main(args)
            except SystemExit as exc:
                assert exc.code == 0, (args, exc.code)
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial")))
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]", out.stdout + out.stderr
    assert (tmp_path / "g.csv").exists() and (tmp_path / "q.csv").exists()


@pytest.mark.parametrize(
    "args,paths",
    [
        (["levy-area", "--steps", "200"], [["integrator"]]),
        (["gbm-laplace", "--T", "0.4", "--steps", "200"],
         [["integrator", "monomial_basis"], ["integrator", "factorial_basis"]]),
        (["bm-quartic", "--N", "20", "--M", "20", "--riccati-k", "10"], [["riccati_integrator", "10"]]),
    ],
)
def test_route1_runs_report_their_integrator(runner, tmp_path, args, paths):
    stem = tmp_path / "run"
    result = runner.invoke(main, [*args, "--out", str(stem)])
    assert result.exit_code == 0, result.output
    steps = 1000 if args[0] == "bm-quartic" else 200  # the direct ODE's max(1000, 10 N)
    for path in paths:
        stats = read_report(stem)
        for key in path:
            stats = stats[key]
        assert stats == {"steps": steps, "rhs_evals": 4 * steps,
                         "max_abs_state": stats["max_abs_state"], "stop": "completed"}
        assert 0 < stats["max_abs_state"] < math.inf


def test_jacobi_mgf(runner, tmp_path):
    stem = tmp_path / "jac"
    result = runner.invoke(
        main,
        ["jacobi-mgf", "--T", "100", "--K", "40", "--num", "5", "--out", str(stem), "--check"],
    )
    assert result.exit_code == 0, result.output
    assert_artifacts(stem)
    assert read_report(stem)["passed"]


def test_jacobi_mgf_forms_one_matrix_exponential(runner, tmp_path, monkeypatch):
    # 25 values of c share one exp(T G): the series block goes through one
    # scheme3_linear call, and no exp_conv runs
    calls = []
    matrix_exp = schemes.matrix_exp

    def counted(*args, **kwargs):
        calls.append(args)
        return matrix_exp(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("exp_conv called")

    monkeypatch.setattr(schemes, "matrix_exp", counted)
    monkeypatch.setattr(powerseries, "exp_conv", refuse)
    stem = tmp_path / "jac"
    result = runner.invoke(main, ["jacobi-mgf", "--num", "25", "--out", str(stem), "--check"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    report = read_report(stem)
    # only L is built: x(1 - x) feeds (1/2)(j+1) v_(j+1) from x and from x^2
    assert report["field"] == {"words": 41, "linear_terms": 78, "quadratic_terms": None}
    assert len(report["checks"]) == 1 and report["passed"]


def test_jacobi_mgf_off_center_x0(runner, tmp_path):
    # the limit law puts mass x0 at 1, so its mgf is (1 - x0) + x0 e^c
    stem = tmp_path / "jac03"
    result = runner.invoke(
        main,
        ["jacobi-mgf", "--T", "100", "--K", "40", "--num", "5", "--x0", "0.3", "--out", str(stem), "--check"],
    )
    assert result.exit_code == 0, result.output
    assert read_report(stem)["passed"]


def test_levy_area(runner, tmp_path):
    stem = tmp_path / "levy"
    result = runner.invoke(
        main,
        ["levy-area", "--lambda", "1.0", "--T", "1.0", "--steps", "400", "--out", str(stem), "--check"],
    )
    assert result.exit_code == 0, result.output
    report = read_report(stem)
    assert report["passed"]
    # d=2, N=2: u_11 and u_22 feed the empty word; each letter i contributes
    # 7 products of u_(p.i) u_(q.i), one per output word of p sh q
    assert report["field"] == {"words": 7, "linear_terms": 2, "quadratic_terms": 14}


@pytest.mark.parametrize("lam", [2.0, 0.0])
def test_levy_area_checks_the_joint_transform(runner, tmp_path, lam):
    # with gamma != 0 the check reads Levy's joint transform of area and
    # endpoint; at lam = 0 its limit exp(-|gamma|^2 t/2)
    stem = tmp_path / "levy"
    result = runner.invoke(
        main,
        ["levy-area", "--lambda", str(lam), "--gamma1", "1", "--gamma2", "0.5", "--out", str(stem), "--check"],
    )
    assert result.exit_code == 0, result.output
    checks = {c["name"]: c for c in read_report(stem)["checks"]}
    assert set(checks) == {"deviation from Levy's closed form", "grid rows without a value"}
    check = checks["deviation from Levy's closed form"]
    assert check["pass"] and check["value"] < 1e-12


def test_levy_area_check_counts_rows_without_a_value(runner, tmp_path):
    # RK4 at lambda h / 2 = 5 is unstable: route 1 explodes at its first
    # step and delivers only the t = 0 row, which matches the closed form
    stem = tmp_path / "levy"
    args = ["levy-area", "--lambda", "2000", "--T", "1", "--steps", "200"]
    result = runner.invoke(main, [*args, "--out", str(stem), "--check"])
    assert result.exit_code == 1, result.output
    checks = {c["name"]: c for c in read_report(stem)["checks"]}
    assert checks["grid rows without a value"]["value"] == 200
    assert checks["deviation from Levy's closed form"]["pass"]


def test_expected_sig(runner, tmp_path):
    stem = tmp_path / "esig"
    result = runner.invoke(
        main,
        ["expected-sig", "--sigma", "0.2", "--s0", "1.0", "--level", "3", "--T", "1.0", "--out", str(stem), "--check"],
    )
    assert result.exit_code == 0, result.output
    assert read_report(stem)["passed"]


@pytest.mark.parametrize(
    "args", [[], ["--level", "8", "--sigma", "0.4", "--s0", "2"]], ids=["defaults", "level8"]
)
def test_expected_sig_checks_pure_asset_words(runner, tmp_path, args):
    # (2,...,2) of length n against E[(S_T - s0)^n]/n! of the lognormal asset
    stem = tmp_path / "esig"
    result = runner.invoke(main, ["expected-sig", *args, "--out", str(stem), "--check"])
    assert result.exit_code == 0, result.output
    checks = {c["name"]: c for c in read_report(stem)["checks"]}
    asset = checks["pure-asset words vs lognormal moments"]
    assert asset["pass"] and asset["tolerance"] == 1e-10


@pytest.mark.parametrize(
    "args",
    [[], ["--level", "8", "--sigma", "0.4", "--s0", "2"], ["--sigma", "1e-30"]],
    ids=["defaults", "level8", "tiny-sigma"],
)
def test_expected_sig_checks_asset_then_time_words(runner, tmp_path, args):
    # (2,...,2,1) of length m + 1 against the time integral of the m-th
    # lognormal moment, at 50 digits; at sigma 1e-30, a_j T is near 1e-60 and
    # (e^(a_j T) - 1)/a_j must not cancel to 0
    stem = tmp_path / "esig"
    result = runner.invoke(main, ["expected-sig", *args, "--out", str(stem), "--check"])
    assert result.exit_code == 0, result.output
    checks = {c["name"]: c for c in read_report(stem)["checks"]}
    words = checks["asset-then-time words vs integrated lognormal moments"]
    assert words["pass"] and words["tolerance"] == 1e-10 and words["value"] < 1e-14


@pytest.mark.parametrize(
    "args", [["--sigma", "1", "--level", "8"], ["--T", "50", "--level", "8"]],
    ids=["sigma1", "T50"],
)
def test_expected_sig_checks_words_relative_to_their_size(runner, tmp_path, args):
    # the words reach 3.6e7 (sigma 1) and 5.2e19 (T 50), where double
    # precision alone leaves absolute errors far above 1e-10: each word is
    # measured against max(1, |reference|)
    stem = tmp_path / "esig"
    result = runner.invoke(main, ["expected-sig", *args, "--out", str(stem), "--check"])
    assert result.exit_code == 0, result.output
    assert all(c["value"] < 1e-13 for c in read_report(stem)["checks"])


@pytest.mark.parametrize(
    "word, name",
    [((2,) * 8, "pure-asset words vs lognormal moments"),
     ((2,) * 7 + (1,), "asset-then-time words vs integrated lognormal moments")],
    ids=["pure-asset", "asset-then-time"],
)
def test_expected_sig_fails_a_word_off_by_one_part_in_a_billion(
    runner, tmp_path, monkeypatch, word, name
):
    from sigcalc import tensor

    expected_signature = schemes.expected_signature

    def perturbed(*args):
        c = expected_signature(*args)
        c[tensor.word_index(word, 2)] *= 1 + 1e-9
        return c

    monkeypatch.setattr(schemes, "expected_signature", perturbed)
    stem = tmp_path / "esig"
    result = runner.invoke(
        main, ["expected-sig", "--sigma", "1", "--level", "8", "--out", str(stem), "--check"]
    )
    assert result.exit_code == 1, result.output
    checks = {c["name"]: c for c in read_report(stem)["checks"]}
    assert not checks[name]["pass"]
    assert [c["name"] for c in checks.values() if not c["pass"]] == [name]


def test_expected_sig_builds_no_quadratic_terms(runner, tmp_path, monkeypatch):
    # field sizes read the linear terms only: R's terms at level 8 are never
    # compiled, and the report says so with a null
    terms = operators._tensor_terms

    def linear_only(b, a, quadratic):
        if quadratic:
            raise AssertionError("quadratic terms built")
        return terms(b, a, quadratic)

    monkeypatch.setattr(operators, "_tensor_terms", linear_only)
    stem = tmp_path / "esig"
    result = runner.invoke(main, ["expected-sig", "--level", "8", "--out", str(stem), "--check"])
    assert result.exit_code == 0, result.output
    assert read_report(stem)["field"] == {
        "words": 511, "linear_terms": 1950, "quadratic_terms": None
    }


def test_expected_sig_forms_no_dense_generator(runner, tmp_path, monkeypatch):
    from sigcalc import operators, schemes

    def refuse(*args, **kwargs):
        raise AssertionError("dense route called")

    for owner, name in [(operators, "expected_signature_matrix"), (operators, "linear_matrix"),
                        (schemes, "matrix_exp"), (schemes, "scheme3_linear")]:
        monkeypatch.setattr(owner, name, refuse)
    result = runner.invoke(main, ["expected-sig", "--level", "6", "--out", str(tmp_path / "e"), "--check"])
    assert result.exit_code == 0, result.output


def test_expected_sig_builds_no_shuffle_table(runner, tmp_path):
    # the word column comes from all_words, not from tables(2, level)
    from sigcalc import tensor

    before = tensor.tables.cache_info()
    result = runner.invoke(main, ["expected-sig", "--level", "4", "--out", str(tmp_path / "esig")])
    assert result.exit_code == 0, result.output
    assert tensor.tables.cache_info() == before  # no call, not even a hit


def test_csv_byte_stable(runner, tmp_path):
    a = tmp_path / "one"
    b = tmp_path / "two"
    for stem in (a, b):
        result = runner.invoke(
            main, ["gbm-laplace", "--T", "0.2", "--steps", "100", "--out", str(stem)]
        )
        assert result.exit_code == 0, result.output
    csv_a = (tmp_path / "one.csv").read_bytes()
    csv_b = (tmp_path / "two.csv").read_bytes()
    assert csv_a == csv_b


def reproduce_commands():
    """The argument lists of the sigcalc runs in the Makefile's reproduce
    recipe, each with the --out stem it writes."""
    recipe = (ROOT / "Makefile").read_text().split("\nreproduce:", 1)[1].split("\n\n", 1)[0]
    return [
        shlex.split(line.split("-m sigcalc.cli", 1)[1])
        for line in recipe.splitlines()
        if "-m sigcalc.cli" in line
    ]


def test_reproduce_artifacts_are_byte_identical(runner, tmp_path):
    # the committed artifacts are the numbers every change must keep
    commands = reproduce_commands()
    assert len(commands) == 5
    for args in commands:
        stem = args[args.index("--out") + 1]
        args[args.index("--out") + 1] = str(tmp_path / stem)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        for suffix in (".csv", ".svg"):
            got = (tmp_path / (stem + suffix)).read_bytes()
            assert got == (ROOT / "artifacts" / (stem + suffix)).read_bytes(), stem + suffix


def test_algebra_commands(runner, tmp_path):
    u = TensorCoeffs.zero(2, 3)
    u[(1,)] = 0.4
    u[(2, 1)] = -0.2
    f = tmp_path / "u.txt"
    f.write_text(u.to_text())

    out_exp = tmp_path / "exp"
    result = runner.invoke(
        main, ["algebra", "exp", "--a", str(f), "--out", str(out_exp), "--check"]
    )
    assert result.exit_code == 0, result.output
    e = TensorCoeffs.from_text((tmp_path / "exp.txt").read_text(), d=2, N=3)
    assert abs(e[()] - 1.0) < 1e-12

    out_log = tmp_path / "log"
    result = runner.invoke(
        main, ["algebra", "log", "--a", str(tmp_path / "exp.txt"), "--out", str(out_log), "--check"]
    )
    assert result.exit_code == 0, result.output
    back = TensorCoeffs.from_text((tmp_path / "log.txt").read_text(), d=2, N=3)
    assert back.allclose(u, tol=1e-10)

    out_sh = tmp_path / "sh"
    result = runner.invoke(
        main,
        ["algebra", "shuffle", "--a", str(f), "--b", str(f), "--out", str(out_sh), "--check"],
    )
    assert result.exit_code == 0, result.output


def test_algebra_sig_command(runner, tmp_path, rng):
    from conftest import path_to_csv, random_path

    path = random_path(rng, 2)
    pf = tmp_path / "path.csv"
    pf.write_text(path_to_csv(path))
    out = tmp_path / "sig"
    result = runner.invoke(
        main,
        ["algebra", "sig", "--path", str(pf), "--level", "4", "--time-extend", "--out", str(out), "--check"],
    )
    assert result.exit_code == 0, result.output
    sig = TensorCoeffs.from_text((tmp_path / "sig.txt").read_text(), d=3, N=4)
    assert abs(sig[()] - 1.0) < 1e-12


@pytest.mark.parametrize(
    "name,text,args,message",
    [
        ("w.txt", "word=1,2,1 re=1.0 im=0.0\n", ["exp", "--N", "2"], "word=1,2,1 has length 3"),
        ("hdr.csv", "t,x1,x2\n", ["sig"], "at least two samples"),
        ("rag.csv", "t,x1\n0,0\n1\n", ["sig"], "line 3 has 1 fields"),
        # non-finite numbers, as the float options reject them
        ("nan.csv", "t,x1\n0,0\nnan,1\n2,3\n", ["sig", "--check"], "must be finite numbers"),
        ("nan.txt", "word= re=nan im=0\n", ["exp"], "not a finite number"),
        # the shuffle logarithm of a zero scalar part is log 0
        ("zero.txt", "word=1 re=1.0 im=0.0\n", ["log"], "nonzero scalar part"),
        # the fields are read by their labels, not by their places
        ("swap.txt", "word=1 im=2 re=3\n", ["exp"], "malformed coefficient line"),
        ("t.csv", "t\n0\n1\n", ["sig"], "path header 't' has no coordinate column"),
    ],
    ids=["word-above-N", "header-only", "ragged-row", "nan-time", "nan-coefficient",
         "log-of-zero-scalar", "swapped-fields", "time-only"],
)
def test_algebra_bad_input_is_a_one_line_error(runner, tmp_path, name, text, args, message):
    f = tmp_path / name
    f.write_text(text)
    opt = "--path" if args[0] == "sig" else "--a"
    result = runner.invoke(
        main, ["algebra", *args, opt, str(f), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 1
    assert not isinstance(result.exception, (IndexError, ValueError))
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ") and message in lines[0]
    assert not list(tmp_path.glob("o*"))  # no report, NaN or otherwise


@pytest.mark.parametrize(
    "args,option",
    [
        (["levy-area", "--steps", "0"], "'--steps'"),
        (["bm-quartic", "--K", "3"], "'--K'"),
        (["bm-quartic", "--riccati-k", "10,3"], "'--riccati-k'"),
        (["bm-quartic", "--N", "0"], "'--N'"),
        (["bm-quartic", "--M", "80,0"], "'--M'"),
        (["bm-quartic", "--M", "8x"], "'--M'"),
        (["jacobi-mgf", "--x0", "1.5"], "'--x0'"),
        (["jacobi-mgf", "--K", "1"], "'--K'"),
        (["jacobi-mgf", "--num", "0"], "'--num'"),
        (["gbm-laplace", "--T", "-1"], "'--T'"),
        (["bm-quartic", "--T", "-1"], "'--T'"),
        (["jacobi-mgf", "--T", "-5"], "'--T'"),
        (["levy-area", "--T", "-1"], "'--T'"),
        (["expected-sig", "--T", "-1", "--check"], "'--T'"),
        (["gbm-laplace", "--K", "-1"], "'--K'"),
        (["gbm-laplace", "--K", "171"], "'--K'"),  # 171! overflows float64
        (["gbm-laplace", "--K", "200"], "'--K'"),
        (["expected-sig", "--level", "-1"], "'--level'"),
        (["algebra", "sig", "--path", "p.csv", "--level", "-1"], "'--level'"),
        (["algebra", "exp", "--a", "a.txt", "--N", "-1"], "'--N'"),
        (["algebra", "shuffle", "--a", "a.txt", "--b", "b.txt", "--N", "-1"], "'--N'"),
        (["algebra", "exp", "--a", "a.txt", "--d", "0"], "'--d'"),
        # float options take finite numbers only
        (["gbm-laplace", "--T", "inf"], "'--T'"),
        (["gbm-laplace", "--c", "nan", "--check"], "'--c'"),
        (["bm-quartic", "--T", "nan"], "'--T'"),
        (["expected-sig", "--sigma", "nan"], "'--sigma'"),
        (["jacobi-mgf", "--cmax", "inf"], "'--cmax'"),
        (["levy-area", "--T", "nan"], "'--T'"),
        (["levy-area", "--lambda", "-inf"], "'--lambda'"),
        # c past the float range of exp(c), and of the series of exp(c x)
        (["jacobi-mgf", "--cmax", "710"], "'--cmin' / '--cmax'"),
        (["jacobi-mgf", "--cmax", "1e9", "--K", "60"], "'--cmin' / '--cmax'"),
        # E[exp(-c y0 e^(B_t))] is infinite for t > 0 once c y0 < 0
        (["gbm-laplace", "--c", "-0.01"], "'--c' / '--y0'"),
        (["gbm-laplace", "--y0", "-1"], "'--c' / '--y0'"),
    ],
)
def test_out_of_range_option_is_a_usage_error(runner, tmp_path, args, option):
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    last = result.output.strip().splitlines()[-1]
    assert last.startswith("Error: Invalid value for ") and option in last
    assert not list(tmp_path.iterdir())


def test_check_flag_fails_on_bad_check(tmp_path):
    # _finish must convert failed checks into a nonzero exit
    report = RunReport("unit", {})
    assert not report.add_check("always-bad", 1.0, 1e-6)
    from click import ClickException

    from sigcalc.cli import _finish

    with pytest.raises(ClickException):
        _finish(report, str(tmp_path / "bad"), check=True)
    # without --check the same report only writes the artifact
    _finish(report, str(tmp_path / "bad2"), check=False)
    assert (tmp_path / "bad2.report.json").exists()


def test_report_and_writers(tmp_path):
    rows = [[0.0, 1.0], [0.5, np.float64(2.0)]]
    f = tmp_path / "t.csv"
    write_csv(str(f), ["t", "v"], rows)
    text = f.read_text()
    assert "np.float64" not in text
    assert text.splitlines()[0] == "t,v"
    svg = tmp_path / "t.svg"
    write_svg(str(svg), [("series", [0.0, 1.0], [1.0, 2.0])], title="t", xlabel="x", ylabel="y")
    assert svg.read_text().startswith("<svg")


def test_write_csv_formats_each_cell_type(tmp_path):
    # floats of every kind print as repr(float(v)); ints, bools and strings
    # print as str(v), except numpy's ints, which are Reals but not ints
    row = [1.5, np.float64(0.1), np.float32(0.5), 3, True, np.int64(4), "exploded",
           fractions.Fraction(1, 4), float("nan"), np.float64("inf")]
    f = tmp_path / "cells.csv"
    write_csv(str(f), ["c"], [row])
    assert f.read_text().splitlines()[1] == "1.5,0.1,0.5,3,True,4.0,exploded,0.25,nan,inf"
