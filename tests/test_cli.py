"""CLI surface: output schemas, exit codes, determinism."""

import json
import time

import pytest

from gfcurves.cli import main, parse_scalar
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_scalar():
    assert parse_scalar("3") == Fraction(3)
    assert parse_scalar("3/7") == Fraction(3, 7)
    assert parse_scalar("2.5") == 2.5
    assert parse_scalar("1,2") == complex(1, 2)


def test_enumerate_2_4(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-p", "2", "-n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    counts = {r["rank"]: r["count"] for r in data["ranks"]}
    assert counts == {1: 10, 2: 10, 3: 0}


def test_enumerate_single_rank(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "-p", "2", "-n", "5", "-m", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ranks"][0]["count"] == 1


def test_enumerate_invalid_type(capsys):
    code, _, err = run_cli(capsys, "enumerate", "-p", "4", "-n", "4")
    assert code == 2
    assert "prime" in err


def test_quotient_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "quotient",
        "-p", "2", "-n", "5",
        "--lambda", "6", "2", "3",
        "--k", "a1*a2,a3*a4,a1*a3*a5",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["quotient_genus"] == 3
    assert len(data["model"]["equations"]) == 2
    assert data["verification"]["pass"] is True


def test_quotient_three_equation_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "quotient",
        "-p", "2", "-n", "5",
        "--lambda", "3", "7", "11",
        "--k", "a1*a2,a1*a3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["model"]["equations"]) == 3
    assert data["quotient_genus"] == 5  # 2n - 5 at n = 5


def test_quotient_non_free_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "quotient", "-p", "2", "-n", "4", "--lambda", "3", "7", "--k", "a1",
    )
    assert code == 3
    assert "a1" in err


def test_classify_2_4(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "-p", "2", "-n", "4", "--lambda", "3", "7", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"Case2": 10, "Case4": 10}
    assert data["hyperelliptic_z2n1"] == 10
    assert data["non_hyperelliptic_z2n1"] == 5
    curves = [e for e in data["entries"] if "curve" in e]
    assert len(curves) == 20


def test_classify_case5i(capsys):
    code, out, _ = run_cli(capsys, "classify", "-p", "3", "-n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"Case5i": 1}
    curve = data["entries"][0]["curve"]
    # y^2 = x^3 - 1: monic coefficients [1, 0, 0, -1]
    coeffs = [complex(c[0], c[1]) for c in curve["polynomial_coeffs"]]
    assert len(coeffs) == 4
    assert abs(coeffs[0] - 1) < 1e-12
    assert abs(coeffs[1]) < 1e-9 and abs(coeffs[2]) < 1e-9
    assert abs(coeffs[3] + 1) < 1e-9


def test_classify_2_7_has_not_hyperelliptic(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "-p", "2", "-n", "7",
        "--lambda", "3", "5", "7", "11", "13",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["counts"].get("NotHyperelliptic", 0) > 0
    assert data["counts"].get("Case1") == 1


def test_humbert_demo(capsys):
    code, out, _ = run_cli(
        capsys, "humbert-demo", "--lambda", "3", "7", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["genus3_pairs"]) == 10
    assert len(data["genus2_curves"]) == 10
    assert all(len(e["contains"]) == 3 for e in data["containment"])


def test_moduli_orbit_and_equivalence(capsys):
    code, out, _ = run_cli(capsys, "moduli", "--lambda", "3", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["orbit_size"] == 120

    code2, out2, _ = run_cli(
        capsys, "moduli", "--lambda", "3", "7", "--delta", "1/3", "1/7", "--format", "json"
    )
    assert code2 == 0
    data2 = json.loads(out2)
    assert data2["equivalent"] is True
    assert data2["witness"] == [2, 1, 3, 4, 5]


@pytest.mark.parametrize(
    "lam",
    [
        ("3.0000000005", "0.33333333327777775"),
        ("2.0000000005,0.5", "0.47058823519031145,-0.11764705876816609"),
    ],
)
def test_moduli_float_orbit_of_stabilised_tuple(capsys, lam):
    # (l, 1/l) has a stabiliser of order 2: 120 / 2 = 60, as for Fractions (3, 1/3)
    code, out, _ = run_cli(capsys, "moduli", "--lambda", *lam)
    assert code == 0
    assert out == "orbit size 60\n"


def test_moduli_inequivalent(capsys):
    code, out, _ = run_cli(
        capsys, "moduli", "--lambda", "3", "7", "--delta", "22/7", "355/113", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["equivalent"] is False


def test_verify_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "-p", "3", "-n", "2", "--samples", "25", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True


def test_json_determinism(capsys):
    args = ["classify", "-p", "2", "-n", "4", "--lambda", "3", "7",
            "--format", "json", "--seed", "5"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_bad_lambda_is_invalid_parameters(capsys):
    code, _, err = run_cli(
        capsys, "classify", "-p", "2", "-n", "4", "--lambda", "1", "7"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "-p", "2", "-n", "4", "--lambda", "nan", "7"),
        ("classify", "-p", "2", "-n", "4", "--lambda", "nan,0", "7"),
        ("moduli", "--lambda", "nan", "7"),
        ("moduli", "--lambda", "1,nan", "7"),
    ],
)
def test_nan_lambda_is_invalid_parameters(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-p", "2", "-n", "4"),
        ("quotient", "-p", "2", "-n", "4", "--lambda", "3", "7", "--k", "a1*a2"),
        ("classify", "-p", "2", "-n", "4", "--lambda", "3", "7"),
        ("humbert-demo",),
        ("moduli", "--lambda", "3", "7"),
        ("verify", "-p", "2", "-n", "4", "--lambda", "3", "7"),
    ],
)
def test_nonpositive_or_nonfinite_tol_is_invalid_parameters(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--tol" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("quotient", "-p", "2", "-n", "4", "--lambda", "3", "7", "--k", "a1*a2"),
        ("verify", "-p", "2", "-n", "4", "--lambda", "3", "7"),
    ],
)
def test_no_samples_is_invalid_parameters(capsys, argv, samples):
    code, out, err = run_cli(capsys, *argv, "--samples", samples)
    assert code == 2
    assert out == ""
    assert "--samples" in err


def test_enumeration_over_budget_exits_at_once(capsys):
    # the closed-form count (about 2^40 subgroups) refuses before the walk starts
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "-p", "2", "-n", "40", "-m", "1")
    assert time.perf_counter() - start < 5
    assert code == 5
    assert out == ""
    assert "budget" in err


def test_resource_cutoff_exit_code(capsys):
    # orbit search is capped at n = 8, i.e. seven lambda values
    lam = [str(v) for v in (3, 5, 7, 11, 13, 17, 19)]
    code, _, err = run_cli(capsys, "moduli", "--lambda", *lam)
    assert code == 5
    assert "capped" in err


@pytest.mark.parametrize(
    "command, what", [("classify", "classification"), ("verify", "verification")]
)
def test_batteries_capped_at_n8(capsys, command, what):
    code, out, err = run_cli(capsys, command, "-p", "2", "-n", "9")
    assert code == 2
    assert out == ""
    assert err == f"error: {what} capped at n = 8\n"
