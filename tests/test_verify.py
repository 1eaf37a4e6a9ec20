"""Numeric oracles: fiber sampling, model verification, identity testing."""

import random
from fractions import Fraction

import pytest

from gfcurves import (
    CurveType,
    DomainError,
    Subgroup,
    curve_case2,
    curve_case4,
    cyclic_gonal_model,
    enumerate_free_subgroups,
    poly_identity_equal,
    sample_fiber,
    verify_hyperelliptic,
    verify_quotient_model,
)
from gfcurves.gonal import CyclicGonalModel
from gfcurves.hyperelliptic import CurveConstruction, HyperellipticCurve
from gfcurves.verify import (
    FiberPoint,
    branch_t1_values,
    fiber_equation_residuals,
    random_rational_lambda,
    random_t1,
)
from helpers import apply_exponents

LAM5 = (Fraction(6), Fraction(2), Fraction(3))


def pairs_kernel():
    return Subgroup.from_words(CurveType(2, 5), ["a1*a2", "a3*a4", "a1*a3*a5"])


def test_sample_fiber_satisfies_equations():
    ct = CurveType(2, 5)
    point = sample_fiber(ct, LAM5, 0.4 + 0.3j, (0, 1, 0, 1, 1))
    assert max(fiber_equation_residuals(point)) < 1e-10
    assert point.x[-1] == 1


def test_base_projection_chart_relation():
    # -(x2/x1)^p = lam_last + 1/t1 on curve points
    from gfcurves.verify import base_projection

    ct = CurveType(2, 5)
    point = sample_fiber(ct, LAM5, 0.8 + 0.5j, (1, 1, 0, 0, 1))
    lhs = complex(base_projection(point))
    rhs = complex(LAM5[2]) + 1 / point.t1
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_sample_fiber_rejects_branch_points():
    ct = CurveType(2, 5)
    for t1 in branch_t1_values(ct, LAM5):
        with pytest.raises(Exception):
            sample_fiber(ct, LAM5, t1, (0, 0, 0, 0, 0))


def test_root_choice_shift_by_subgroup_fixes_monomials():
    ct = CurveType(2, 5)
    K = pairs_kernel()
    model = cyclic_gonal_model(K, LAM5)
    point = sample_fiber(ct, LAM5, 0.7 - 0.9j, (1, 0, 1, 1, 0))
    for row in K.basis:
        shifted_choice = tuple((c + e) % ct.p for c, e in zip((1, 0, 1, 1, 0), row))
        other = sample_fiber(ct, LAM5, 0.7 - 0.9j, shifted_choice)
        for vec in model.lattice_basis:
            a, b = point.monomial(vec), other.monomial(vec)
            assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_generator_action_scales_monomials_by_root_of_unity():
    import cmath, math

    ct = CurveType(3, 3)
    lam = (Fraction(4),)
    K = Subgroup.from_words(ct, ["a2*a1^-1"])
    model = cyclic_gonal_model(K, lam)
    point = sample_fiber(ct, lam, 0.5 + 0.4j, (0, 1, 2))
    # a_1 acts on x_1 only; monomials scale by a p-th root of unity
    moved = apply_exponents(point, (1, 0, 0, 0))
    p = ct.p
    for vec in model.lattice_basis:
        ratio = moved.monomial(vec) / point.monomial(vec)
        assert min(
            abs(ratio - cmath.exp(2j * math.pi * k / p)) for k in range(p)
        ) < 1e-9


def test_verify_quotient_model_passes():
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    [report] = verify_quotient_model([model], samples=100, seed=3)
    assert report.passed
    assert report.max_residual < 1e-9


def test_verify_quotient_model_rejects_no_samples():
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    for samples in (0, -1):
        with pytest.raises(DomainError):
            verify_quotient_model([model], samples=samples)
        with pytest.raises(DomainError):
            verify_quotient_model([], samples=samples)


def test_verify_quotient_model_random_rational_lambda():
    rng = random.Random(12)
    ct = CurveType(2, 4)
    for _ in range(3):
        lam = random_rational_lambda(4, rng)
        for K in enumerate_free_subgroups(ct, 2):
            model = cyclic_gonal_model(K, lam)
            [report] = verify_quotient_model([model], samples=30, seed=5)
            assert report.passed


def not_invariant_model():
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    return CyclicGonalModel(
        model.subgroup,
        model.lam,
        ((1, 0, 0, 0, 1),) + model.lattice_basis[1:],  # not K-invariant
        model.slopes,
    )


def wrong_slope_model():
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    bad_slopes = (model.slopes[0], (-1, -99)) + model.slopes[2:]
    return CyclicGonalModel(model.subgroup, model.lam, model.lattice_basis, bad_slopes)


def test_verify_quotient_model_negative_control():
    [report] = verify_quotient_model([not_invariant_model()], samples=20, seed=3)
    assert not report.passed
    failing = {c.check for c in report.checks if not c.passed}
    assert "k_invariance" in failing


def test_verify_quotient_model_wrong_slope_fails():
    [report] = verify_quotient_model([wrong_slope_model()], samples=20, seed=3)
    assert not report.passed


def all_models(ct, lam):
    return [cyclic_gonal_model(K, lam) for m in range(1, ct.n) for K in enumerate_free_subgroups(ct, m)]


@pytest.mark.parametrize(
    "ct, lam",
    [(CurveType(2, 5), LAM5), (CurveType(3, 4), (complex(2, 1), complex(-1, 0.5)))],
)
def test_batch_matches_batches_of_one(ct, lam):
    models = all_models(ct, lam)
    batch = verify_quotient_model(iter(models), samples=12, seed=8)
    alone = [verify_quotient_model([model], samples=12, seed=8)[0] for model in models]
    assert len(batch) == len(models) > 1
    assert [r.to_json() for r in batch] == [r.to_json() for r in alone]
    assert all(r.passed for r in batch)


def test_corrupted_models_fail_alone_inside_a_batch():
    good = all_models(CurveType(2, 5), LAM5)[:4]
    not_invariant, wrong_slope = not_invariant_model(), wrong_slope_model()
    batch = [good[0], not_invariant, good[1], good[2], wrong_slope, good[3]]
    reports = verify_quotient_model(batch, samples=20, seed=3)
    assert [r.passed for r in reports] == [True, False, True, True, False, True]
    for index, model in ((1, not_invariant), (4, wrong_slope)):
        [alone] = verify_quotient_model([model], samples=20, seed=3)
        assert reports[index].to_json() == alone.to_json()
        assert any(c.detail.startswith("t1=") for c in reports[index].checks if not c.passed)
    assert "k_invariance" in {c.check for c in reports[1].checks if not c.passed}
    assert {c.check for c in reports[4].checks if not c.passed} == {"power_identity"}


def test_batch_rejects_mixed_curves():
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    other_lam = cyclic_gonal_model(pairs_kernel(), (Fraction(6), Fraction(2), Fraction(5)))
    other_type = cyclic_gonal_model(
        Subgroup.from_words(CurveType(2, 4), ["a1*a2"]), (Fraction(3), Fraction(7))
    )
    for stranger in (other_lam, other_type):
        with pytest.raises(DomainError):
            verify_quotient_model(iter([model, stranger]), samples=5)


def test_empty_batch():
    assert verify_quotient_model([], samples=5) == []
    assert verify_quotient_model(iter(()), samples=1) == []


def test_paper_style_redundant_monomial_identity():
    # s3 * t5 = s1 * s2 on samples, for the three-pair kernel
    ct = CurveType(2, 5)
    K = pairs_kernel()
    rng = random.Random(17)
    for _ in range(25):
        t1 = random_t1(ct, LAM5, rng)
        choice = tuple(rng.randrange(2) for _ in range(5))
        point = sample_fiber(ct, LAM5, t1, choice)
        s1 = point.monomial((1, 1, 0, 0, 1))
        s2 = point.monomial((0, 0, 1, 1, 1))
        s3 = point.monomial((1, 1, 1, 1, 0))
        t5 = point.x[4] ** 2
        assert abs(s3 * t5 - s1 * s2) < 1e-9 * max(1.0, abs(s1 * s2))


def test_verify_hyperelliptic_negative_control():
    ct = CurveType(2, 4)
    lam = (Fraction(3), Fraction(7))
    cons = curve_case2(ct, lam, (3, 4, 5))
    roots = list(cons.curve.roots)
    roots[0] += 1e-3
    broken = CurveConstruction(
        cons.label,
        HyperellipticCurve(cons.curve.genus, tuple(roots)),
        cons.curve_type,
        cons.lam,
        cons.details,
    )
    report = verify_hyperelliptic(broken)
    assert not report.passed
    assert any(c.check == "branch_fibers" and not c.passed for c in report.checks)


def test_case4_orientation_oracle():
    ct = CurveType(2, 4)
    lam = (Fraction(3), Fraction(7))
    ok = curve_case4(ct, lam, (1, 2))
    bad = curve_case4(ct, lam, (1, 2), orientation="inverse")
    assert verify_hyperelliptic(ok).passed
    assert not verify_hyperelliptic(bad).passed


def test_poly_identity_equal():
    # the first genus-2 curve equals its published form after x -> ix
    def emitted(lam):
        cons = curve_case2(CurveType(2, 4), lam, (3, 4, 5))
        return [1j * r for r in cons.curve.roots]

    def published(lam):
        import cmath

        roots = []
        for c in (1, lam[0], lam[1]):
            s = cmath.sqrt(complex(-c))
            roots.extend([s, -s])
        return roots

    assert poly_identity_equal(emitted, published, 4)

    def published_wrong(lam):
        return published((lam[1], lam[0] + 1))

    assert not poly_identity_equal(emitted, published_wrong, 4)


def test_poly_identity_coeff_form():
    def f(lam):
        return [1, 0, -complex(lam[0])]

    def g(lam):
        return [1, 0, -complex(lam[0])]

    def h(lam):
        return [1, 0, complex(lam[0])]

    assert poly_identity_equal(f, g, 4, form="coeffs")
    assert not poly_identity_equal(f, h, 4, form="coeffs")


def test_random_rational_lambda_in_domain():
    rng = random.Random(0)
    for n in (4, 5, 6):
        for _ in range(10):
            lam = random_rational_lambda(n, rng)
            assert len(lam) == n - 2
            assert all(v not in (0, 1) for v in lam)
            assert len(set(lam)) == len(lam)


def test_report_json_shape():
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    [report] = verify_quotient_model([model], samples=10, seed=3)
    data = report.to_json()
    assert set(data) == {"pass", "max_residual", "checks"}
    for check in data["checks"]:
        assert {"check", "max_residual", "samples", "pass"} <= set(check)
