"""CLI commands: artifacts, checks, and exit codes."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from sigcalc.cli import main
from sigcalc.report import RunReport, write_csv, write_svg
from sigcalc.tensor import TensorCoeffs


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


def test_jacobi_mgf(runner, tmp_path):
    stem = tmp_path / "jac"
    result = runner.invoke(
        main,
        ["jacobi-mgf", "--T", "100", "--K", "40", "--num", "5", "--out", str(stem), "--check"],
    )
    assert result.exit_code == 0, result.output
    assert_artifacts(stem)
    assert read_report(stem)["passed"]


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


def test_expected_sig(runner, tmp_path):
    stem = tmp_path / "esig"
    result = runner.invoke(
        main,
        ["expected-sig", "--sigma", "0.2", "--s0", "1.0", "--level", "3", "--T", "1.0", "--out", str(stem), "--check"],
    )
    assert result.exit_code == 0, result.output
    assert read_report(stem)["passed"]


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
    from conftest import random_path

    path = random_path(rng, 2)
    pf = tmp_path / "path.csv"
    pf.write_text(path.to_csv())
    out = tmp_path / "sig"
    result = runner.invoke(
        main,
        ["algebra", "sig", "--path", str(pf), "--level", "4", "--time-extend", "--out", str(out), "--check"],
    )
    assert result.exit_code == 0, result.output
    sig = TensorCoeffs.from_text((tmp_path / "sig.txt").read_text(), d=3, N=4)
    assert abs(sig[()] - 1.0) < 1e-12


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
