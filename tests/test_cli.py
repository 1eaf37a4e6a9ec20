"""CLI surface: output schemas, exit codes, determinism."""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from itertools import zip_longest
from pathlib import Path
from types import GeneratorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfcurves
from gfcurves import CurveType, DomainError, ResourceLimitError, Subgroup, cli, moduli
from gfcurves.cli import emit, json_text, main, parse_lambda, parse_scalar, require_verify_budget, write_json
from gfcurves.free_action import enumerate_free_subgroups, quotient_genus
from gfcurves.gonal import CyclicGonalModel, cyclic_gonal_model
from gfcurves.hyperelliptic import CaseLabel, build_curve, hyperelliptic_z2n1_subgroups
from gfcurves.riemann_sphere import json_number
from gfcurves.verify import verify_hyperelliptic, verify_quotient_model
from fractions import Fraction
from helpers import count_calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_refused_cli(capsys, *argv):
    """run_cli on an argv that argparse refuses, so that it exits."""
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    captured = capsys.readouterr()
    return exited.value.code, captured.out, captured.err


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

    # 6! / 2, the exhaustive oracle's count; merging image sets printed 672
    code3, out3, _ = run_cli(capsys, "moduli", "--lambda", "1e-5", "2e-5", "3e-5")
    assert (code3, out3) == (0, "orbit size 360\n")


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


@pytest.mark.parametrize("corrupt", ["drop last equation", "double exponents"])
def test_verify_fails_a_model_of_a_larger_quotient(capsys, monkeypatch, corrupt):
    target = Subgroup.from_words(CurveType(2, 5), ["a1*a2", "a3*a4", "a1*a3*a5"])
    honest = cli.cyclic_gonal_model

    def model_of(K, lam, **kwargs):
        model = honest(K, lam, **kwargs)
        if K != target:
            return model
        if corrupt == "drop last equation":
            lattice = model.lattice_basis[:-1]
        else:
            lattice = tuple(tuple(2 * e for e in v) for v in model.lattice_basis)
        return CyclicGonalModel(model.subgroup, model.lam, lattice)

    monkeypatch.setattr(cli, "cyclic_gonal_model", model_of)
    argv = ["verify", "-p", "2", "-n", "5", "--lambda", "6", "2", "3", "--samples", "7"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 4
    failing = [line for line in out.splitlines() if "FAIL" in line]
    assert failing == [
        f"quotient_model <{', '.join(target.generator_words())}>: FAIL",
        "overall: FAIL",
    ]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 4
    [report] = [c["report"] for c in json.loads(out)["checks"] if not c["report"]["pass"]]
    assert all(check["pass"] for check in report["checks"])
    assert report["certificate"]["pass"] is False


def test_verify_reports_a_slope_table_that_misses_the_curve(capsys, monkeypatch):
    # every model reads the slope table of the parsed Lambda; moving t_2's
    # slope there fails the sampled fiber check of every model, reported in
    # full with exit 4, while the certificates and the curves, which read
    # lambda itself, pass
    parse = cli.parse_lambda

    def corrupted(values, n):
        lam = parse(values, n)
        c0, c1 = lam.slopes[1]
        lam.slopes = lam.slopes[:1] + ((c0, c1 + 1),) + lam.slopes[2:]
        return lam

    monkeypatch.setattr(cli, "parse_lambda", corrupted)
    argv = ["verify", "-p", "2", "-n", "5", "--lambda", "6", "2", "3", "--samples", "7"]
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (4, "")
    entries = json.loads(out)["checks"]
    models = [e["report"] for e in entries if e["kind"] == "quotient_model"]
    assert len(models) == sum(len(enumerate_free_subgroups(CurveType(2, 5), m)) for m in range(1, 5))
    for report in models:
        [fiber] = report["checks"]
        assert (fiber["check"], fiber["samples"], fiber["pass"]) == ("fiber_residuals", 7, False)
        assert fiber["max_residual"] > 1e-10 and report["certificate"]["pass"]
    assert all(e["report"]["pass"] for e in entries if e["kind"] != "quotient_model")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (4, "")
    assert [line.endswith("FAIL") for line in out.splitlines()] == [
        e["kind"] == "quotient_model" for e in entries
    ] + [True]


def test_verify_over_budget_refused_at_once(capsys):
    # 231,356 models at n = 8: refused from the closed-form count
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "-p", "2", "-n", "8", "--lambda", "3", "5", "7", "11", "13", "17",
        "--samples", "100",
    )
    assert time.perf_counter() - start < 1
    assert code == 5
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("p, n, samples", [(2, 6, 20), (3, 4, 100), (2, 7, 20)])
def test_verify_budget_admits_benchmark_sizes(p, n, samples):
    require_verify_budget(CurveType(p, n), samples)


def test_verify_budget_refuses_n8():
    for p in (2, 3):
        with pytest.raises(ResourceLimitError):
            require_verify_budget(CurveType(p, 8), 1)


def test_verify_budget_prices_the_fiber_points():
    # one model at (3,2): its samples alone fit the budget, but drawing
    # 3,999,800 fiber points would take minutes and gigabytes
    with pytest.raises(ResourceLimitError):
        require_verify_budget(CurveType(3, 2), 3_999_800)
    require_verify_budget(CurveType(3, 2), 40_000)
    with pytest.raises(ResourceLimitError):
        require_verify_budget(CurveType(2, 5), 100_000, models=1)
    require_verify_budget(CurveType(2, 5), 40_000, models=1)


def test_verify_at_large_p_refused_by_the_budget(capsys, monkeypatch):
    # (101,3) and (139,3) have 20,200 and 38,364 models; refused before the walk
    walks = count_calls(monkeypatch, gfcurves.free_action, "enumerate_free_subgroups")
    for p in ("101", "139"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "-p", p, "-n", "3", "--samples", "1")
        assert time.perf_counter() - start < 1
        assert code == 5
        assert out == "" and "budget" in err
    assert walks == []


@pytest.mark.parametrize("p", [2003, 19997])
def test_verify_at_large_p_priced_by_its_models(capsys, p):
    # the curve checks sort a curve's roots once, so the model price bounds
    # them: (2003,2) has 2,001 models and three Case5i curves of 2,004 roots,
    # and (19997,2) is at the budget's edge, where the next prime is over it
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "-p", str(p), "-n", "2", "--samples", "1")
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == "overall: pass" and len(lines) == p + 2
    assert sum(line.startswith("hyperelliptic_Case5i") for line in lines) == 3
    with pytest.raises(ResourceLimitError):
        require_verify_budget(CurveType(20011, 2), 1)


def test_verify_at_large_n_refused_at_once(capsys, monkeypatch):
    # the exact count of (2,800) at rank 1 would take minutes: the budget
    # sums the cheap ranks first and stops once they overrun it
    walks = count_calls(monkeypatch, gfcurves.free_action, "enumerate_free_subgroups")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "-p", "2", "-n", "800", "--samples", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (5, "") and "budget" in err
    assert walks == []


def test_curves_at_p2_have_few_roots():
    # a curve at p = 2 is priced with its model: at most 4(n - 2) roots
    for n, lam in ((4, (3, 7)), (5, (3, 7, 11)), (6, (3, 7, 11, -5))):
        ct = CurveType(2, n)
        lam = tuple(map(Fraction, lam))
        for m in range(n - 3, n):
            for K in enumerate_free_subgroups(ct, m):
                _, construction = build_curve(K, lam)
                assert construction is None or len(construction.curve.roots) <= 4 * (n - 2)


def test_quotient_over_budget_refused_before_sampling(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("sampled past the budget")

    monkeypatch.setattr(cli, "verify_quotient_model", unreachable)
    code, out, err = run_cli(
        capsys, "quotient", "-p", "2", "-n", "5", "--lambda", "6", "2", "3",
        "--k", "a1*a2,a3*a4,a1*a3*a5", "--samples", "1000000",
    )
    assert code == 5
    assert out == ""
    assert "budget" in err


def test_quotient_at_large_p_still_verifies(capsys):
    code, out, _ = run_cli(
        capsys, "quotient", "-p", "1009", "-n", "2", "--k", "a1*a2^2", "--samples", "5"
    )
    assert code == 0
    assert "verification: pass" in out


def test_json_determinism(capsys):
    args = ["classify", "-p", "2", "-n", "4", "--lambda", "3", "7", "--format", "json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_bad_lambda_is_invalid_parameters(capsys):
    code, _, err = run_cli(
        capsys, "classify", "-p", "2", "-n", "4", "--lambda", "1", "7"
    )
    assert code == 2


@pytest.mark.parametrize("bad", ["1/0", "abc", "3/x", "1,abc"])
def test_malformed_lambda_is_invalid_parameters(capsys, bad):
    # a value that is not a number, or a zero denominator, exits 2 with one
    # line that names it, from every command and from --delta
    with pytest.raises(DomainError, match=re.escape(repr(bad))):
        parse_scalar(bad)
    for argv in (
        ["moduli", "--lambda", bad, "3"],
        ["moduli", "--lambda", "3", "7", "--delta", "3", bad],
        ["classify", "-p", "2", "-n", "4", "--lambda", "3", bad],
        ["verify", "-p", "2", "-n", "4", "--lambda", bad, "3"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and repr(bad) in err and err.count("\n") == 1


# negative values in spellings that argparse once took for options (exit 2,
# "unrecognized arguments"), each with its spelled-out twin
@pytest.mark.parametrize("argv, twin", [
    (["moduli", "--lambda", "-1e-9", "2", "3"], ["moduli", "--lambda", "-0.000000001", "2", "3"]),
    (["moduli", "--lambda", "-.5", "2", "3"], ["moduli", "--lambda", "-0.5", "2", "3"]),
    (["moduli", "--lambda", "-2.5e3,1", "2", "3"], ["moduli", "--lambda", "-2500.0,1", "2", "3"]),
    (["moduli", "--lambda", "3", "5", "--delta", "-2.5e3,1", "2"],
     ["moduli", "--lambda", "3", "5", "--delta", "-2500.0,1", "2"]),
    (["classify", "-p", "2", "-n", "4", "--lambda", "-.5", "3"],
     ["classify", "-p", "2", "-n", "4", "--lambda", "-0.5", "3"]),
])
def test_negative_values_in_any_spelling_are_read(capsys, argv, twin):
    # an argument that starts like a negative number is a value, and
    # parse_scalar reads it or refuses it
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "") and out
    assert run_cli(capsys, *twin, "--format", "json") == (code, out, err)


def test_negative_looking_junk_is_refused_by_the_reader(capsys):
    code, out, err = run_cli(capsys, "moduli", "--lambda", "-1x", "2", "3")
    assert (code, out, err) == (2, "", "error: cannot read '-1x' as a number: expected 're', "
                                       "'re,im' or 'num/den' with den != 0\n")


@pytest.mark.parametrize(
    "lam, delta",
    [
        (("3", "3.0000000000001"), None),
        (("1e-13", "5"), None),
        (("3", "7"), ("3", "3.0000000000001")),
        (("3", "7"), ("0.9999999999999", "5")),
        (("1e200", "2e200"), None),
    ],
)
def test_moduli_checks_lambda_as_classify_does(capsys, lam, delta):
    # float entries within 1e-12 of 0, 1 or each other, or beyond 1e12 in
    # modulus, are refused by every command, --delta included
    bad = delta or lam
    code, out, err = run_cli(capsys, "classify", "-p", "2", "-n", "4", "--lambda", *bad)
    assert (code, out) == (2, "")
    argv = ["moduli", "--lambda", *lam] + (["--delta", *delta] if delta else [])
    assert run_cli(capsys, *argv) == (2, "", err)


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
    if argv[0] in ("classify", "moduli", "verify"):
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert err.count("\n") == 1 and "--tol" in err
    else:
        # the other subcommands read no tolerance and take no --tol at all
        code, out, err = run_refused_cli(capsys, *argv, "--tol", tol)
        assert f"unrecognized arguments: --tol {tol}" in err
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (("enumerate", "-p", "2", "-n", "4"), ("--lambda", "3", "7")),
        (("enumerate", "-p", "2", "-n", "4"), ("--seed", "5")),
        (("enumerate", "-p", "2", "-n", "4"), ("--tol", "1e-6")),
        (("quotient", "-p", "2", "-n", "4", "--lambda", "3", "7", "--k", "a1*a2"), ("--tol", "1e-6")),
        (("classify", "-p", "2", "-n", "4", "--lambda", "3", "7"), ("--seed", "5")),
        (("humbert-demo",), ("--seed", "5")),
        (("humbert-demo",), ("--tol", "1e-6")),
        (("moduli", "--lambda", "3", "7"), ("--seed", "5")),
    ],
)
def test_subcommands_refuse_the_options_they_do_not_read(capsys, argv, option):
    # an option that would change nothing is refused, as any unknown one is
    code, out, err = run_refused_cli(capsys, *argv, *option)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(option)}" in err


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


def test_large_enumeration_refused_before_the_exact_count(capsys):
    # the exact count of (2,800) at m = 1 takes minutes; the lower
    # bound (q-1)^(m-1) (q-2) with q = 2^799 refuses at once
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "-p", "2", "-n", "800", "-m", "1")
    assert time.perf_counter() - start < 5
    assert code == 5
    assert out == ""
    assert "budget" in err


# sha256 of stdout for fixed inputs: output must stay byte-identical across
# internal changes
GOLDEN_STDOUT = {
    "classify -p 2 -n 6 --lambda 3 7 11 -5 --format json":
        "ccbf21d091a50e17fea279e282c0c52812c708ce6e48ba81c193a874e2876ada",
    "enumerate -p 3 -n 4 --format json":
        "2833049f28f67131d46f880cd10209e9f9c8078f42763d6b234f4c08a8c0e2ce",
    "humbert-demo --lambda 3 7 --format json":
        "dfe7f7881269a8a441ab307535eccc1a1480771824c6073df5f8b6120c067e67",
    "verify -p 2 -n 4 --lambda 3 7 --samples 3 --format json":
        "f8e877a002df179be7366d869c8b558a0447b14421edc2b8eb504b24cef897da",
    "verify -p 3 -n 3 --lambda 2,1 --samples 5 --format json":
        "fdaea46b6fda4de59e9fbae676312ef51daa824fd42025a1ec15efe823b26210",
    "quotient -p 2 -n 5 --lambda 6 2 3 --k a1*a2,a3*a4,a1*a3*a5 --format json":
        "182739e5c26752e0a9ad86b5ff8b005cda75a7801a40275f8703d2cda16385be",
    "moduli --lambda 3 7 --delta 1/3 1/7 --format json":
        "eb77d04eb709e80f80e7e98e69b231a5e6210f767e11e5f7f8651e6c91431746",
    "classify -p 3 -n 3 --lambda 2,1 --format json":
        "4c550e04c796e141d2e6b14e03e588f1fe846d438c0caa4f3da3652154e071d5",
    "humbert-demo --lambda 2,1 -1,0.5 --format json":
        "c08d0808cb860ac3ab30e255e4a4b07aa735f209baa36401f1b4e5cd1bddd2db",
    "classify -p 2 -n 6 --lambda 3 7 11 -5":
        "561736d5c952b152cd4198200700eeac049c81b8e26686fe48dc59cab00a4e7f",
    "enumerate -p 3 -n 4":
        "e2602308ffe2329840d87cdd76e8e5e9b62d72fe08fcef001fc42426d25829b1",
    # rank 3 has no free subgroup: an empty generator written as []
    "enumerate -p 2 -n 4 --format json":
        "16dc7c8a8e74d9115e50c8b7268d9a96f04740f6c895247065ef62203d4dddc5",
    # odd n: Case1 and the Case3 test
    "classify -p 2 -n 5 --lambda 3 7 11 --format json":
        "1b45eda9e88c27dadd23a4a8c6d96d58dc76b85f3f8642120d29c148f9e1e0bb",
    # the Case1, Case2, Case3 and Case4 curve reports
    "verify -p 2 -n 5 --lambda -1 2 1/2 --samples 5 --format json":
        "636e407b34fc0efa60232b695cbef3bf5906c240ea10bf77059b5cfe1c1b29a1",
    # Case5i, whose deck check meets an inf root
    "verify -p 5 -n 2 --samples 5 --format json":
        "3bb0474452629e8e3d53106b7c81fddcfd122fc9c8e8b65ac53d10ac3d70c206",
    # the benchmark's catalog sizes: 14,220, 1,716 and 863 subgroups
    "classify -p 2 -n 7 --lambda -1/4 2 7/9 1/3 5/6 --format json":
        "c397b82bf5fa971ed7112be1c6097d8d8474e639e9d5e82065d6c33e7b1120b2",
    "enumerate -p 3 -n 5 --format json":
        "ea8e3658d2da671b665cec3cd4432e2b23f718ab2d0b8095e69c0353c9f43067",
    "enumerate -p 5 -n 4 --format json":
        "fc80d04c05c71595b08dba04e71b52dfd5d91185be0db3e58a39c0d6d42c2d2e",
    # the benchmark's moduli sizes: an n = 7 orbit, a miss and a hit with
    # its witness, a complex n = 6 orbit, and n = 8 at the cap's edge
    "moduli --lambda -1/2 8/9 2/5 3/7 -2/5 --format json":
        "c1fce736f72218f893214eacf11598772211a4676df0bc59575feda107d93163",
    "moduli --lambda -1/2 8/9 2/5 3/7 -2/5 --delta 5/3 -7/2 1/9 4 -3 --format json":
        "9a3243afff24187479146df88d0b4f3946f4bb831059c952fa60cae4bf49dc38",
    "moduli --lambda -1/2 8/9 2/5 3/7 -2/5 --delta 4/9 -1/9 2/3 26/27 25/36 --format json":
        "959e00ded71c208719224e20e9b82e5e244b537815e75ff1c345bb4ca96bfb61",
    "moduli --lambda 1.2345,0.5 -2.1,1.3 0.3,-2.2 2.5,2.5 --format json":
        "8c1ae6b42605f656edf34c8a56cd339d224a32c8b300eeee652f280117ed95c8",
    "moduli --lambda 3 5 7 11 13 17 --format json":
        "52fbd3ca7bd468f9cad453acf635efffd0485d9ad426d4f9763b4cad7359bcf5",
    # the trivial subgroup: empty basis and generators
    "quotient -p 2 -n 4 --lambda 3 7 --k 1 --format json":
        "269c73b0e746357cfc13995e2746cc27fb46011edca48e7375c5afadbd1f7982",
    # a word with an exponent at odd p
    "quotient -p 3 -n 3 --lambda 2,1 --k a1*a2^2 --format json":
        "44708baa89e4764b692e4c3d683d42a226d45bf575cc0074f20cbbe022df10c1",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


def test_json_never_enters_the_stdlib_indent_encoder(capsys, monkeypatch):
    # json.dumps(..., indent=2) runs the stdlib's pure-Python encoder, which
    # json_text replaces for every value the CLI writes
    def entered(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", entered)
    with pytest.raises(AssertionError, match="_make_iterencode"):
        json.dumps([1], indent=2)
    commands = [command for command in sorted(GOLDEN_STDOUT) if command.endswith("--format json")]
    assert {command.split()[0] for command in commands} == {
        "classify", "enumerate", "humbert-demo", "moduli", "quotient", "verify"}
    assert {"classify -p 2 -n 5 --lambda 3 7 11 --format json",
            "moduli --lambda 3 7 --delta 1/3 1/7 --format json"} <= set(commands)
    for command in commands:
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command], command


def test_resource_cutoff_exit_code(capsys):
    # n = 44 has 45 * 44 * 43 ordered triples of cone points, over the work budget
    lam = [str(v) for v in range(2, 44)]
    code, _, err = run_cli(capsys, "moduli", "--lambda", *lam)
    assert code == 5
    assert "budget" in err


@pytest.mark.parametrize(
    "command, what", [("classify", "classification"), ("verify", "verification")]
)
def test_batteries_capped_at_n8(capsys, command, what):
    code, out, err = run_cli(capsys, command, "-p", "2", "-n", "9")
    assert out == ""
    # neither battery has an n cap: the work budget refuses n = 9 as a resource cutoff
    assert code == 5
    assert err.startswith(f"error: {what} of type (2,9) ") and "budget" in err and err.count("\n") == 1


# twelve near-coincident entries 2 + j/10^11, and a delta that swaps the last
# for 5: within --tol the twelve match all eleven cluster entries of delta,
# so no assignment exists, and the factorial search for one runs out of steps
_CLUSTER = [f"2.{j:011d}" for j in range(1, 13)]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "-p", "3", "-n", "7"],
        ["enumerate", "-p", "13", "-n", "5"],
        ["enumerate", "-p", "2", "-n", "40", "-m", "1"],
        ["classify", "-p", "3", "-n", "7", "--lambda", "9", "-1/9", "-2/5", "-7", "5"],
        ["classify", "-p", "2", "-n", "9"],
        ["verify", "-p", "2", "-n", "9"],
        ["moduli", "--lambda", *_CLUSTER, "--delta", *_CLUSTER[:-1], "5"],
    ],
    ids=lambda argv: " ".join(argv[:5]),
)
def test_over_the_work_budget_refused_at_once(capsys, monkeypatch, argv):
    walks = count_calls(monkeypatch, gfcurves.free_action, "enumerate_free_subgroups")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (5, "")
    assert err.startswith("error: ") and "budget" in err and err.count("\n") == 1
    assert walks == []


def test_classify_walks_each_rank_once(capsys, monkeypatch):
    walks = count_calls(monkeypatch, gfcurves.free_action, "enumerate_free_subgroups")
    code, out, _ = run_cli(capsys, "classify", "-p", "2", "-n", "6", "--lambda", "3", "7", "11", "-5",
                           "--format", "json")
    assert code == 0
    assert [m for _, m in walks] == [1, 2, 3, 4, 5]
    data = json.loads(out)
    assert (data["hyperelliptic_z2n1"], data["non_hyperelliptic_z2n1"]) == (21, 7)


def test_classify_builds_each_pivot_table_once(capsys):
    # the walks of ranks 1-6 of (2,7) read the same n - 1 = 6 tables of rows
    gfcurves.free_action._pivot_rows.cache_clear()
    code, _, _ = run_cli(capsys, "classify", "-p", "2", "-n", "7", "--lambda", "9", "-1/9", "-2/5", "-7", "5")
    assert code == 0
    info = gfcurves.free_action._pivot_rows.cache_info()
    assert (info.misses, info.hits) == (6, 30)


def test_classify_trusts_the_walk_and_the_parsed_lambda(capsys, monkeypatch):
    validations = count_calls(monkeypatch, moduli, "validate_lambda")
    imaged = []
    images = Subgroup.generator_images
    monkeypatch.setattr(Subgroup, "generator_images", lambda K: imaged.append(K.rank) or images(K))
    code, out, _ = run_cli(capsys, "classify", "-p", "2", "-n", "6", "--lambda", "3", "7", "11", "-5",
                           "--format", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 1192 and len(validations) == 1
    # ranks n - 3 and n - 2 need K's blocks, read off the walk's own images
    assert imaged == []


@pytest.mark.parametrize(
    "argv, imaged",
    [
        (["enumerate", "-p", "2", "-n", "6"], []),
        (["classify", "-p", "2", "-n", "6", "--lambda", "3", "7", "11", "-5"], []),
        (["classify", "-p", "2", "-n", "7", "--lambda", "9", "-1/9", "-2/5", "-7", "5"], []),
        (["classify", "-p", "5", "-n", "3", "--lambda", "4"], []),
        (["verify", "-p", "2", "-n", "6", "--lambda", "3", "7", "11", "-5", "--samples", "1"], [1, 2, 3, 4, 5]),
    ],
    ids=["enumerate-2-6", "classify-2-6", "classify-2-7", "classify-5-3", "verify-2-6"],
)
def test_walk_attaches_images_only_where_they_are_read(capsys, monkeypatch, argv, imaged):
    # verify reads every model's images; classify looks the undecided ranks'
    # subgroups up in the block table and enumerate reads none
    walks = []
    monkeypatch.setattr(cli, "enumerate_free_subgroups",
                        lambda ct, m, images=False: walks.append((m, images)) or enumerate_free_subgroups(ct, m, images=images))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [m for m, _ in walks] == list(range(1, int(argv[4])))
    assert [m for m, images in walks if images] == imaged


def test_verify_reads_freeness_off_the_walk(capsys, monkeypatch):
    # the 1,192 walked subgroups carry their images: neither the models nor
    # the curves compute generator images, through require_free or otherwise
    imaged = []
    images = Subgroup.generator_images
    monkeypatch.setattr(Subgroup, "generator_images", lambda K: imaged.append(K) or images(K))
    checked = count_calls(monkeypatch, gfcurves.free_action, "require_free")
    code, out, _ = run_cli(capsys, "verify", "-p", "2", "-n", "6", "--lambda", "3", "7", "11", "-5",
                           "--samples", "1")
    assert code == 0
    assert len(checked) >= 1192 and all(K.images is not None for (K,) in checked)
    assert imaged == []


def test_case3_test_trusts_the_parsed_lambda(capsys, monkeypatch):
    # the 15 three-pair subgroups at (2,5) renormalise lambda without re-checking it
    validations = count_calls(monkeypatch, moduli, "validate_lambda")
    code, out, _ = run_cli(capsys, "classify", "-p", "2", "-n", "5", "--lambda", "3", "7", "11")
    assert code == 0
    assert len(validations) == 1


def test_verify_validates_lambda_once_per_model(capsys, monkeypatch):
    # parse_lambda checks lambda; the 1,192 models, the sampler and the
    # curves take the Lambda it returns
    validations = count_calls(monkeypatch, moduli, "validate_lambda")
    code, _, _ = run_cli(capsys, "verify", "-p", "2", "-n", "6", "--lambda", "3", "7", "11", "-5",
                         "--samples", "1")
    assert code == 0
    assert len(validations) == 1


def test_closed_stdout_ends_without_a_traceback():
    src = Path(gfcurves.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gfcurves", "enumerate", "-p", "3", "-n", "5", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()  # the reader goes away, as `| head -c 100` does
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b'{\n  "genus": ')
    assert err == b""


def test_launch_loads_every_layer_and_no_dataclasses():
    # every command runs in a fresh interpreter and pays this import first;
    # the benchmark's tracer wraps, and its import timing reads, each layer
    # module in bench/tracer.py's TARGETS right after it
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_tracer", root / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    script = (
        "import sys; before = set(sys.modules); import gfcurves.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    assert {f"gfcurves.{layer}" for layer in tracer.TARGETS} <= loaded
    # the package runs on the standard library alone
    outside = {
        name for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "gfcurves"
    }
    assert outside == set()


# JSON values that json.dumps(sort_keys=True, indent=2) accepts: nested
# dicts with str keys, lists and tuples (empty too), and every scalar kind.
_text = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f", "é ☃ 𝄞", "\x7f\u2028"])
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf])
    | _text
)


def _json_values(*keys):
    """JSON values whose dicts take their keys from one of ``keys``."""
    return st.recursive(
        _scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(st.integers(), max_size=4)
        | st.lists(_text, max_size=4)
        | st.one_of(*(st.dictionaries(key, inner, max_size=4) for key in keys)),
        max_leaves=20,
    )


_values = _json_values(_text)
# keys that json.dumps turns into strings, of one kind per dict so that they sort
_keyed_values = _json_values(_text, st.integers() | st.floats() | st.booleans(), st.none())
_PADS = ("\n", "\n  ", "\n      ")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_keyed_values, st.sampled_from(_PADS))
def test_json_text_writes_the_bytes_of_json_dumps(value, pad):
    expected = json.dumps(value, sort_keys=True, indent=2)
    assert json_text(value) == expected
    assert json_text(value, pad) == expected.replace("\n", pad)


def test_json_text_memo_keeps_types_and_pads_apart():
    # (1, 0) == (True, False) == (1.0, 0.0), and json_text memoises only the
    # basis rows of subgroups, each for its own pad
    values = [[1, 0], (1, 0), [True, False], [1.0, 0.0], [[1, 0]], {"k": [1, 0]}, {1: "a"}]
    for value in values + values[::-1]:
        assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)
    for i in range(10_000):
        assert json_text([i, -i]) == f"[\n  {i},\n  {-i}\n]"
    # more distinct rows than the memo holds, each at three pads
    subgroups = enumerate_free_subgroups(CurveType(73, 3), 1)
    assert len(subgroups) == 5399
    for pad in _PADS:
        for K in subgroups:
            expected = json.dumps(K.to_json(), sort_keys=True, indent=2).replace("\n", pad)
            assert json_text(K, pad) == expected
    info = cli._basis_row_text.cache_info()
    assert info.currsize <= info.maxsize < len(subgroups)


def _subgroups_to_write():
    for p, n in [(2, 5), (3, 4), (5, 3), (7, 3)]:
        ct = CurveType(p, n)
        for m in range(1, n):
            yield from enumerate_free_subgroups(ct, m)
    yield Subgroup.from_words(CurveType(2, 4), ["1"])
    yield Subgroup.from_words(CurveType(2, 4), ["a1*a2", "a1*a3*a5"])
    yield Subgroup.from_words(CurveType(3, 3), ["a1*a2^2"])
    yield Subgroup.from_words(CurveType(5, 3), ["a1^4*a2^3", "a3^2*a4"])


def test_json_text_writes_a_subgroup_as_its_to_json_dict():
    subgroups = list(_subgroups_to_write())
    # 136, 115, 40 and 84 free subgroups, then four from generators
    assert len(subgroups) == 379
    assert subgroups[-4].rank == 0
    for K in subgroups:
        for pad in ("\n", "\n    ", "\n      "):
            assert json_text(K, pad) == json_text(K.to_json(), pad)


def _classify_payload(ct: CurveType, lam_args) -> dict:
    """classify's JSON payload with every entry a dict, in walk order."""
    lam = parse_lambda(lam_args, ct.n)
    entries, counts = [], {}
    for m in range(1, ct.n):
        for K in enumerate_free_subgroups(ct, m):
            label, construction = build_curve(K, lam)
            entry = {"subgroup": K.to_json(), "rank": m, "quotient_genus": quotient_genus(ct, m),
                     "label": label.value}
            if construction is not None:
                entry["curve"] = construction.curve.to_json()
            entries.append(entry)
            counts[label.value] = counts.get(label.value, 0) + 1
    payload = {"p": ct.p, "n": ct.n, "lambda": list(map(json_number, lam)),
               "entries": entries, "counts": counts}
    if ct.p == 2 and ct.n % 2 == 0:
        hyper, non_hyper = hyperelliptic_z2n1_subgroups(ct)
        payload["hyperelliptic_z2n1"], payload["non_hyperelliptic_z2n1"] = len(hyper), len(non_hyper)
    return payload


# (p, n, lambda, the labels classify gives): between them every label, and
# exact, negative and complex lambda
_CLASSIFY_CASES = [
    (2, 4, ["3", "7"], {"Case2", "Case4"}),
    (2, 5, ["3", "7", "11"], {"Case1", "Case2", "Case4", "NotHyperelliptic"}),
    (2, 5, ["-1", "2", "1/2"], {"Case1", "Case2", "Case3", "Case4", "NotHyperelliptic"}),
    (2, 6, ["3", "7", "11", "-5"], {"Case2", "Case4", "NotHyperelliptic"}),
    (2, 7, ["9", "-1/9", "-2/5", "-7", "5"], {"Case1", "Case2", "Case4", "NotHyperelliptic"}),
    (3, 2, [], {"Case5i"}),
    (3, 3, ["2,1"], {"NotHyperelliptic"}),
    (5, 3, ["3"], {"Case5ii", "NotHyperelliptic"}),
    (7, 3, ["3"], {"Case5ii", "NotHyperelliptic"}),
]


@pytest.mark.parametrize("p, n, lam, labels", _CLASSIFY_CASES)
def test_classify_writes_each_entry_as_its_dict(capsys, p, n, lam, labels):
    # entries without a curve are written from a memoised frame, those with
    # one as dicts: both must give the bytes of json.dumps of the dict route
    payload = _classify_payload(CurveType(p, n), lam)
    assert set(payload["counts"]) == labels
    code, out, _ = run_cli(capsys, "classify", "-p", str(p), "-n", str(n), "--lambda", *lam, "--format", "json")
    assert code == 0
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # line by line, so that a failure shows its first differing line rather
    # than a diff of megabytes
    lines = zip_longest(out.split("\n"), expected.split("\n"))
    assert next(((i, a, b) for i, (a, b) in enumerate(lines) if a != b), None) is None


def test_classify_cases_cover_every_label():
    assert set().union(*(labels for *_, labels in _CLASSIFY_CASES)) == {label.value for label in CaseLabel}


def _verify_payload(ct: CurveType, lam_args, samples: int, model_of) -> dict:
    """verify's JSON payload with every entry the dict of its to_json calls,
    in walk order, for the models that ``model_of(K, lam)`` gives."""
    lam = parse_lambda(lam_args, ct.n)
    subgroups = [K for m in range(1, ct.n) for K in enumerate_free_subgroups(ct, m)]
    reports = verify_quotient_model([model_of(K, lam) for K in subgroups], samples=samples, seed=0)
    entries = []
    for K, report in zip(subgroups, reports):
        entries.append({"subgroup": K.to_json(), "kind": "quotient_model", "report": report.to_json()})
        label, construction = build_curve(K, lam)
        if construction is not None:
            entries.append({"subgroup": K.to_json(), "kind": f"hyperelliptic_{label.value}",
                            "report": verify_hyperelliptic(construction).to_json()})
    return {"p": ct.p, "n": ct.n, "lambda": list(map(json_number, lam)),
            "pass": all(e["report"]["pass"] for e in entries), "checks": entries}


# two subgroups in the middle of the (2,5) walk
_OUTSIDE_K_PERP, _RANK_SHORT = enumerate_free_subgroups(CurveType(2, 5), 2)[4:6]


def _corrupted(K, lam):
    """The honest model, except for two subgroups: a vector outside K^perp,
    whose certificate has a detail, and a dropped equation, whose
    certificate is a rank short and has none."""
    model = cyclic_gonal_model(K, lam)
    if K == _OUTSIDE_K_PERP:
        pivot = K.pivots()[0]  # the unit vector there pairs to 1 with K's first row
        lattice = (tuple(int(j == pivot) for j in range(5)),) + model.lattice_basis[1:]
        return CyclicGonalModel(K, model.lam, lattice)
    if K == _RANK_SHORT:
        return CyclicGonalModel(K, model.lam, model.lattice_basis[:-1])
    return model


@pytest.mark.parametrize("p, n, lam, corrupt", [
    (2, 5, ["3", "7", "11"], False),
    (2, 5, ["-1", "2", "1/2"], False),
    (3, 3, ["2,1"], False),
    (2, 5, ["3", "7", "11"], True),
    (3, 4, ["2,1", "-1,0.5"], False),
])
def test_verify_writes_each_entry_as_its_dict(capsys, monkeypatch, p, n, lam, corrupt):
    # model entries are written from memoised frames, curve entries as
    # dicts: both must give the bytes of json.dumps of the dict route
    model_of = _corrupted if corrupt else cyclic_gonal_model
    payload = _verify_payload(CurveType(p, n), lam, 4, model_of)
    monkeypatch.setattr(cli, "cyclic_gonal_model", lambda K, lam, **kwargs: model_of(K, lam))
    code, out, _ = run_cli(capsys, "verify", "-p", str(p), "-n", str(n), "--lambda", *lam,
                           "--samples", "4", "--format", "json")
    assert code == (4 if corrupt else 0)
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = zip_longest(out.split("\n"), expected.split("\n"))
    assert next(((i, a, b) for i, (a, b) in enumerate(lines) if a != b), None) is None
    failed = [e["report"]["certificate"] for e in payload["checks"] if not e["report"]["pass"]]
    if corrupt:
        assert [bool(c.get("detail")) for c in failed] == [True, False]
    else:
        assert failed == []
    kinds = {e["kind"] for e in payload["checks"]}
    assert ("hyperelliptic_Case2" in kinds) == (p == 2)


@pytest.mark.parametrize("batch", [1, 2, 16, 10**6])
def test_verify_batches_write_the_bytes_of_json_dumps(capsys, monkeypatch, batch):
    # consecutive checks of one kind with equal reports are one run of
    # entries, written in batches of at most CHECK_BATCH
    lam = ["3", "7", "11"]
    payload = _verify_payload(CurveType(2, 5), lam, 4, cyclic_gonal_model)
    runs, entries = [], cli._verify_entries

    def spy(checks):
        for run in entries(checks):
            runs.append(len(run.subgroups))
            yield run

    monkeypatch.setattr(cli, "_verify_entries", spy)
    monkeypatch.setattr(cli, "CHECK_BATCH", batch)
    code, out, _ = run_cli(capsys, "verify", "-p", "2", "-n", "5", "--lambda", *lam,
                           "--samples", "4", "--format", "json")
    assert code == 0 and out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert sum(runs) == len(payload["checks"]) and max(runs) == min(batch, max(runs))
    assert (len(runs) == len(payload["checks"])) == (batch == 1)


@pytest.mark.parametrize("lam", [["1e-9", "2"], ["1e-5", "1e5"], ["1e-5", "2e-5", "1e5"]])
def test_verify_reports_a_case4_root_at_zero(capsys, lam):
    # cancellation in quartic_factor_roots puts a Case4 root at 0, so two
    # roots coincide; the deck map x -> 1/x once raised ZeroDivisionError on
    # it (exit 1, a traceback) where the full report and exit 4 are due
    argv = ["verify", "-p", "2", "-n", str(len(lam) + 2), "--lambda", *lam]
    code, out, err = run_cli(capsys, *argv)
    lines = out.splitlines()
    assert (code, err, lines[-1]) == (4, "", "overall: FAIL")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert (code, err, payload["pass"]) == (4, "", False)
    assert [line.endswith("FAIL") for line in lines[:-1]] == [not e["report"]["pass"] for e in payload["checks"]]
    assert any(c == {"check": "roots_distinct", "max_residual": 0.0, "samples": 4 * len(lam), "pass": False}
               for e in payload["checks"] if e["kind"] == "hyperelliptic_Case4" for c in e["report"]["checks"])


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_p2_below_n4_refused_before_any_walk(capsys, monkeypatch, command):
    # CurveType(2, 3) is a type, but its quotients cannot be classified:
    # refused before any walk or fiber draw, however many samples
    walks = count_calls(monkeypatch, gfcurves.free_action, "enumerate_free_subgroups")
    draws = count_calls(monkeypatch, gfcurves.verify, "sample_points")
    argv = [command, "-p", "2", "-n", "3", "--lambda", "5"]
    if command == "verify":
        argv += ["--samples", "100000"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: p = 2 requires n >= 4\n")
    assert walks == [] and draws == []
    for other in (["enumerate"], ["quotient", "--k", "a1*a2", "--lambda", "5"]):
        code, out, _ = run_cli(capsys, *other, "-p", "2", "-n", "3")
        assert code == 0 and out


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 3), 1j, {(1, 2): "a"}, [1, {"k": Fraction(2)}], {"k": (1, 2j)},
     (x for x in ()), {"k": (x for x in range(2))}, [1, (x for x in ())],
     CaseLabel.CASE1, b"x", {1, 2}, {1: "a", "b": 2}, {"k": [CaseLabel.CASE2]}],
)
def test_json_text_refuses_what_it_cannot_write_the_same_way(value):
    # what json.dumps refuses: a key that is not str, int, float, bool or
    # None, keys that do not sort, and a type it cannot write
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        json_text(value)


def _streamed(value, rnd):
    """value with some lists replaced by generators of the same elements,
    where the writer streams them: in a generator, or in a dict that has a
    generator among its direct values."""
    if type(value) is list and rnd.random() < 0.8:
        return (_streamed(v, rnd) for v in value)
    if type(value) is dict:
        swapped = {k: _streamed(v, rnd) for k, v in value.items()}
        if any(type(v) is GeneratorType for v in swapped.values()):
            return swapped
    return value


def _emitted(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(payload, "json")
    return out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(_text, _values, max_size=4), st.randoms(use_true_random=False))
def test_emit_streams_the_bytes_of_json_dumps(payload, rnd):
    expect = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert _emitted(_streamed(payload, rnd)) == expect


def test_emit_streams_nested_and_empty_generators():
    materialised = {
        "z": [],
        "ranks": [{"rank": m, "subgroups": [{"basis": [m, i]} for i in range(m)]} for m in range(3)],
        "a": [[], {"k": []}],
        "keys": {2: [1.5], 1: None, -3: "x"},
    }
    payload = {
        "z": (x for x in ()),
        "ranks": ({"rank": m, "subgroups": ({"basis": [m, i]} for i in range(m))} for m in range(3)),
        "a": (v for v in [(x for x in ()), {"k": (x for x in ())}]),
        "keys": {2: (x for x in [1.5]), 1: None, -3: "x"},  # int keys, as json.dumps spells them
    }
    assert _emitted(payload) == json.dumps(materialised, sort_keys=True, indent=2) + "\n"


def test_write_json_refuses_generators_inside_lists():
    # a list goes through json_text whole, which cannot write a generator
    with pytest.raises(TypeError):
        write_json(lambda text: None, {"k": [(x for x in ())], "g": (x for x in ())})


class ByteCount(io.TextIOBase):
    """Stand-in for stdout that counts the bytes written and keeps none."""

    def __init__(self):
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        return len(text)


def test_classify_writes_entries_while_it_builds_them(monkeypatch):
    # bytes already written each time an entry's subgroup is serialised
    sink = ByteCount()
    written = []
    # a batch of entries without a curve is written in one piece, and an
    # entry with a curve is a dict, whose subgroup json_text writes itself
    batch, text = cli._entries_text, cli._subgroup_text
    monkeypatch.setattr(cli, "_entries_text",
                        lambda run, pad: written.extend([sink.bytes] * len(run.subgroups)) or batch(run, pad))
    monkeypatch.setattr(cli, "_subgroup_text", lambda K, pad: written.append(sink.bytes) or text(K, pad))
    with contextlib.redirect_stdout(sink):
        code = main(["classify", "-p", "2", "-n", "5", "--lambda", "3", "7", "11", "--format", "json"])
    assert code == 0
    assert len(written) == 136
    assert 0 < written[0] < written[-1] < sink.bytes


def test_classify_json_memory_stays_small():
    # the whole payload of 1,192 entries (about 0.9 MB of JSON) is never held at once
    sink = ByteCount()
    argv = ["classify", "-p", "2", "-n", "6", "--lambda", "3", "7", "11", "-5", "--format", "json"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20


def test_classify_holds_one_rank_at_a_time():
    # (2,7): the counts come from the block table and the closed form, and
    # each rank is walked only when its entries are written, so the 14,220
    # subgroups are never held at once (3.09 MiB traced while they were)
    sink = ByteCount()
    argv = ["classify", "-p", "2", "-n", "7", "--lambda", "9", "-1/9", "-2/5", "-7", "5", "--format", "json"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.bytes == 10730318
    assert peak < 2.5 * 2**20


def _dropping(m: int, index: int, duplicate: int | None = None):
    """enumerate_free_subgroups with the subgroup at ``index`` of rank m
    left out, or replaced by a second copy of the one at ``duplicate``."""
    def walk(ct, rank, images=False):
        subgroups = enumerate_free_subgroups(ct, rank, images=images)
        if rank == m:
            subgroups[index : index + 1] = [] if duplicate is None else [subgroups[duplicate]]
        return subgroups
    return walk


# (2,6) rank 3: subgroup 0 is a Case4 block subgroup, 4 is NotHyperelliptic
@pytest.mark.parametrize("walk, label, met, expected", [
    (_dropping(3, 4), "NotHyperelliptic", 554, 555),
    (_dropping(3, 0), "Case4", 34, 35),
    (_dropping(3, 4, duplicate=0), "Case4", 36, 35),
], ids=["dropped", "dropped-block", "block-twice"])
def test_classify_checks_the_walk_against_the_counts(capsys, monkeypatch, walk, label, met, expected):
    monkeypatch.setattr(cli, "enumerate_free_subgroups", walk)
    code, out, err = run_cli(capsys, "classify", "-p", "2", "-n", "6", "--lambda", "3", "7", "11", "-5",
                             "--format", "json")
    assert code == 4
    # the output is whole, and its counts are those of the closed form
    assert json.loads(out)["counts"] == {"Case2": 21, "Case4": 35, "NotHyperelliptic": 1136}
    assert err == (f"error: rank 3 of type (2,6): the walk met {met} {label} subgroups, "
                   f"the closed form and block table give {expected}\n")


def test_enumerate_builds_only_the_pivot_rows_it_offers(capsys):
    # rank n - 1 of (2,20) takes one row per pivot, not the 2^19 - 1 rows of
    # pivot 0 (1.45 s and 223 MB at n = 18 when every table was built whole)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "enumerate", "-p", "2", "-n", "20", "-m", "19", "--format", "json")
    elapsed = time.perf_counter() - start
    assert (code, out) == (5, "") or (code, json.loads(out)["ranks"][0]["count"]) == (0, 0) and elapsed < 1


def test_classify_builds_curves_only_where_the_rank_leaves_it_open(capsys, monkeypatch):
    # ranks 1-3 of (2,7) are NotHyperelliptic by the rank alone: tallied by
    # count, with no build_curve call; ranks 4 and 5 take one call per block
    # subgroup (56 Case4, 28 Case2) and rank 6 one for its Case1 subgroup
    built = count_calls(monkeypatch, gfcurves.hyperelliptic, "build_curve")
    code, out, _ = run_cli(capsys, "classify", "-p", "2", "-n", "7", "--lambda", "9", "-1/9", "-2/5", "-7", "5")
    assert code == 0
    assert len(built) == 85 and sorted(K.rank for K, *_ in built) == [4] * 56 + [5] * 28 + [6]
    assert out.startswith("type (2,7): 14220 freely-acting subgroups\n")
    assert "NotHyperelliptic: 14" in out.splitlines()[-1]


def test_verify_builds_curves_only_where_the_rank_leaves_it_open(capsys, monkeypatch):
    # ranks 1, 2 and 5 of (2,6) are NotHyperelliptic by the rank alone, and
    # ranks 3 and 4 have curves only on their 35 + 21 block subgroups
    built = count_calls(monkeypatch, gfcurves.hyperelliptic, "build_curve")
    code, _, _ = run_cli(capsys, "verify", "-p", "2", "-n", "6", "--lambda", "3", "7", "11", "-5",
                         "--samples", "1")
    assert code == 0
    assert len(built) == 56 and sorted(K.rank for K, *_ in built) == [3] * 35 + [4] * 21


def _text_rows(payload: dict) -> list[str]:
    """classify's text lines, read off its JSON payload."""
    rows = [f"  rank {e['rank']} <{', '.join(e['subgroup']['generators'])}>: {e['label']}"
            for e in payload["entries"]]
    return rows + ["counts: " + ", ".join(f"{k}: {v}" for k, v in sorted(payload["counts"].items()))]


# (p, n, lambda, batch sizes): at (2,6) the decided ranks 1 and 2 hold 56
# and 455 subgroups, so 7 and 91 split them exactly, 1 and 2 write single
# entries, and 10**6 writes each rank whole; at (5,3) rank 1 holds 27
@pytest.mark.parametrize("p, n, lam, batches", [
    (2, 6, ["3", "7", "11", "-5"], [1, 2, 7, 91, 455, 10**6]),
    (5, 3, ["3"], [1, 3, 27, 28]),
    (3, 3, ["2,1"], [1, 2, 9]),
])
def test_classify_batches_write_the_bytes_of_json_dumps(capsys, monkeypatch, p, n, lam, batches):
    payload = _classify_payload(CurveType(p, n), lam)
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    argv = ["classify", "-p", str(p), "-n", str(n), "--lambda", *lam]
    for batch in batches:
        monkeypatch.setattr(cli, "ENTRY_BATCH", batch)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and out == expected, batch
        # the text lines read the same rows
        code, out, _ = run_cli(capsys, *argv)
        lines = out.splitlines()
        assert code == 0 and lines[0] == f"type ({p},{n}): {len(payload['entries'])} freely-acting subgroups"
        assert lines[1 : len(payload["entries"]) + 2] == _text_rows(payload)


class WriteLog(ByteCount):
    """ByteCount that also keeps the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return super().write(text)


def test_classify_writes_runs_in_bounded_batches():
    # (2,7): the 14,220 entries go out in runs of one label around one frame
    # (the 9,725 of ranks 1-3 are three runs; the 85 with a curve split the
    # rest), each in batches of at most ENTRY_BATCH entries: a few hundred
    # writes, none holding more than a batch, far from the 10.7 MB whole
    sink = WriteLog()
    with contextlib.redirect_stdout(sink):
        code = main(["classify", "-p", "2", "-n", "7", "--lambda", "9", "-1/9", "-2/5", "-7", "5",
                     "--format", "json"])
    assert code == 0
    assert sink.bytes > 10**7
    assert len(sink.sizes) < 400
    assert max(sink.sizes) < cli.ENTRY_BATCH * 1000


def _written_runs(capsys, monkeypatch, entries: str, argv) -> list:
    """The _Entries runs that cli.<entries> yields while argv runs."""
    runs, yielded = [], getattr(cli, entries)

    def spy(*args):
        for value in yielded(*args):
            runs.append(value)
            yield value

    monkeypatch.setattr(cli, entries, spy)
    code, _, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    return [run for run in runs if type(run) is cli._Entries]


@pytest.mark.parametrize("entries, argv, ranks", [
    ("_classify_entries", ["classify", "-p", "2", "-n", "7", "--lambda", "9", "-1/9", "-2/5", "-7", "5"], {1, 2, 3, 4, 5}),
    ("_verify_entries", ["verify", "-p", "3", "-n", "4", "--lambda", "2,1", "-1,0.5", "--samples", "4"], {1, 2, 3}),
])
def test_entries_write_each_prefix_stretch_as_its_dicts(capsys, monkeypatch, entries, argv, ranks):
    # the subgroups of a run that share all but their last basis row are
    # written around one text of those rows: runs whose prefix changes inside
    # a batch, next to its first or last entry, and at the edges between
    # batches (or stays across them) give the bytes of json.dumps of their dicts
    runs = [run for run in _written_runs(capsys, monkeypatch, entries, argv) if run.subgroups[0].rank in ranks]
    prefixes = [[K.basis[:-1] for K in run.subgroups] for run in runs]
    assert any(len(set(p)) > 2 for p in prefixes)
    assert any(len(p) > 1 and (p[0] != p[1] or p[-2] != p[-1]) for p in prefixes)
    assert {a[-1] == b[0] for a, b in zip(prefixes, prefixes[1:])} == {False, True}
    pad = "\n    "
    for run in runs:
        members = run.members(*run.key)
        expected = [json.dumps({**members, "subgroup": K.to_json()}, sort_keys=True, indent=2).replace("\n", pad)
                    for K in run.subgroups]
        assert json_text(run, pad) == ("," + pad).join(expected)
