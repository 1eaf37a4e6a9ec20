"""Numeric oracles: fiber sampling, model verification, identity testing."""

import cmath
import json
import math
import operator
import random
import re
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from gfcurves import (
    CurveType,
    DomainError,
    Subgroup,
    curve_case2,
    curve_case4,
    curve_case5,
    cyclic_gonal_model,
    enumerate_free_subgroups,
    sample_fiber,
    verify_hyperelliptic,
    verify_quotient_model,
)
from gfcurves import gonal, riemann_sphere
from gfcurves import verify as verify_module
from gfcurves.cli import main
from gfcurves.gonal import CyclicGonalModel, invariant_lattice_basis
from gfcurves.groups import rref_mod_p
from gfcurves.hyperelliptic import CaseLabel, CurveConstruction, HyperellipticCurve, block_subgroups, build_curve
from gfcurves.moduli import validate_lambda
from gfcurves.riemann_sphere import INF, is_inf
from gfcurves.verify import (
    CHECK_TOL,
    CONSTRUCTION_TOL,
    FiberPoint,
    VerificationReport,
    _deck_check,
    _distinctness,
    _fiber_check,
    kummer_certificate,
    branch_t1_values,
    fiber_equation_residuals,
    random_t1,
    sample_points,
)
from helpers import (
    apply_exponents,
    count_calls,
    count_slope_builds,
    curve_case4_inverse,
    monomial,
    poly_identity_equal,
    random_rational_lambda,
    reference_deck_check,
    reference_distinctness,
    reference_fiber_check,
    reference_quotient_checks,
    sampled_invariance_failures,
)

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
    from helpers import base_projection

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
            a, b = monomial(point, vec), monomial(other, vec)
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
        ratio = monomial(moved, vec) / monomial(point, vec)
        assert min(
            abs(ratio - cmath.exp(2j * math.pi * k / p)) for k in range(p)
        ) < 1e-9


def test_slope_table_built_once_per_verification(monkeypatch):
    # one table per Lambda, built where it is first read: by the first
    # call's fiber draw, not by the models, and never looked up by a
    # certificate, however many points the call samples
    builds = count_slope_builds(monkeypatch)
    lam = validate_lambda(LAM5, 5)
    kernels = enumerate_free_subgroups(CurveType(2, 5), 2)[:3]
    models = [cyclic_gonal_model(K, lam) for K in kernels]
    assert builds == []
    calls = count_calls(monkeypatch, gonal, "slope_table")
    counts = []
    for samples in (1, 2, 25):
        calls.clear()
        assert all(report.passed for report in verify_quotient_model(models, samples=samples))
        counts.append(len(calls))
    assert counts == [0, 0, 0]
    assert len(builds) == 1 and builds[0] is lam
    # a plain tuple is checked into a new Lambda per model; the call reads
    # the table of the first, which it samples at
    builds.clear()
    models = [cyclic_gonal_model(K, LAM5) for K in kernels]
    assert len({id(model.lam) for model in models}) == 3
    assert all(report.passed for report in verify_quotient_model(models, samples=2))
    assert [id(b) for b in builds] == [id(models[0].lam)]


def test_verify_certificates_compare_the_models_own_table(monkeypatch, capsys):
    # every model the CLI builds reads the table of the one Lambda that the
    # CLI parsed, and its certificate checks the lattice alone, so it
    # compares no Fraction
    certified, compared, inside = [], [], [False]
    certify, fraction_eq = verify_module.kummer_certificate, Fraction.__eq__

    def certifying(model, *args):
        certified.append(model)
        inside[0] = True
        try:
            return certify(model, *args)
        finally:
            inside[0] = False

    def counted_eq(a, b):
        if inside[0]:
            compared.append((a, b))
        return fraction_eq(a, b)

    monkeypatch.setattr(verify_module, "kummer_certificate", certifying)
    monkeypatch.setattr(Fraction, "__eq__", counted_eq)
    code = main(["verify", "-p", "2", "-n", "5", "--lambda", "6", "2", "3", "--samples", "5"])
    capsys.readouterr()
    assert code == 0
    assert len(certified) == sum(len(enumerate_free_subgroups(CurveType(2, 5), m)) for m in range(1, 5))
    assert len({id(model.lam) for model in certified}) == 1
    assert compared == []


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
    )


def with_slope(lam, n: int, j: int, slope):
    """A Lambda of lam whose slope table has t_j's (c0, c1) replaced by
    slope: its cached table set by hand, since no model takes slopes."""
    lam = validate_lambda(lam, n)
    table = lam.slopes
    lam.slopes = table[: j - 1] + (slope,) + table[j:]
    return lam


def wrong_slope_lambda():
    return with_slope(LAM5, 5, 2, (-1, -99))


NOT_INVARIANT_WITNESS = "exponents=[1, 0, 0, 0, 1], element=[0, 1, 0, 1, 1, 0]"


def test_verify_quotient_model_negative_control():
    [report] = verify_quotient_model([not_invariant_model()], samples=20, seed=3)
    assert not report.passed
    assert not report.certificate.passed
    assert report.certificate.witness == NOT_INVARIANT_WITNESS


def test_verify_quotient_model_wrong_slope_fails():
    # the points are drawn from the Lambda's table and their residuals read
    # lambda itself: a table that misses the curve fails the sampled check of
    # every model, and no certificate
    lam = wrong_slope_lambda()
    models = [cyclic_gonal_model(K, lam) for K in enumerate_free_subgroups(CurveType(2, 5), 2)[:3]]
    assert all(model.slopes is lam.slopes for model in models)
    for report in verify_quotient_model(models, samples=20, seed=3):
        [fiber] = report.checks
        assert (fiber.check, fiber.samples, fiber.passed) == ("fiber_residuals", 20, False)
        assert fiber.max_residual > CONSTRUCTION_TOL
        assert report.certificate.passed and not report.passed


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
    not_invariant = not_invariant_model()
    batch = [good[0], not_invariant, good[1], good[2], good[3]]
    reports = verify_quotient_model(batch, samples=20, seed=3)
    assert [r.passed for r in reports] == [True, False, True, True, True]
    [alone] = verify_quotient_model([not_invariant], samples=20, seed=3)
    assert reports[1].to_json() == alone.to_json()
    assert all(c.passed for c in reports[1].checks)
    assert not reports[1].certificate.passed
    assert reports[1].certificate.witness == NOT_INVARIANT_WITNESS


def with_lattice(model, lattice_basis):
    """The model with its lattice basis replaced."""
    return CyclicGonalModel(model.subgroup, model.lam, lattice_basis)


def dropped_equation_model():
    # the last equation dropped: the monomials present a quotient by a
    # group that K has index p in
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    return with_lattice(model, model.lattice_basis[:-1])


def doubled_exponents_model():
    # every exponent doubled: at p = 2 each monomial is H-invariant, so the
    # model presents S/H, the sphere
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    return with_lattice(model, tuple(tuple(2 * e for e in vec) for vec in model.lattice_basis))


@pytest.mark.parametrize(
    "corrupt, rank", [(dropped_equation_model, 1), (doubled_exponents_model, 0)]
)
def test_model_of_a_larger_quotient_fails_the_certificate(corrupt, rank):
    model = corrupt()
    [alone] = verify_quotient_model([model], samples=20, seed=3)
    # the sampled check cannot tell: every monomial is K-invariant and the
    # slopes are the curve's
    assert all(c.passed for c in alone.checks)
    assert not alone.passed
    assert alone.to_json()["certificate"] == {
        "check": "kummer", "rank": rank, "expected_rank": 2, "pass": False,
    }
    good = all_models(CurveType(2, 5), LAM5)[:3]
    batch = verify_quotient_model([good[0], model, good[1], good[2]], samples=20, seed=3)
    assert [r.passed for r in batch] == [True, False, True, True]
    assert batch[1].to_json() == alone.to_json()


def test_certificate_names_a_vector_outside_k_perp():
    certificate = kummer_certificate(not_invariant_model())
    assert not certificate.passed
    assert certificate.witness == "exponents=[1, 0, 0, 0, 1], element=[0, 1, 0, 1, 1, 0]"


@pytest.mark.parametrize("p, n", [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3)])
def test_every_free_quotient_model_is_certified(p, n):
    ct = CurveType(p, n)
    lam = tuple(Fraction(v) for v in (3, 7, 11, -5)[: n - 2])
    for K in (K for m in range(1, n) for K in enumerate_free_subgroups(ct, m)):
        for paper_style in (False, True):
            certificate = kummer_certificate(cyclic_gonal_model(K, lam, paper_style=paper_style))
            assert certificate.passed, (K.generator_words(), paper_style)
            assert certificate.rank == n - K.rank


SHIFT_SWEEP = {
    (2, 5): LAM5,
    (3, 4): (complex(2, 1), complex(-1, 0.5)),
    (5, 3): (Fraction(4),),
}


def shifted_models(model):
    """The model with one entry of one lattice vector shifted by 1..p-1 mod p."""
    p, basis = model.p, model.lattice_basis
    for k, vec in enumerate(basis):
        for j in range(len(vec)):
            for d in range(1, p):
                bad = vec[:j] + ((vec[j] + d) % p,) + vec[j + 1 :]
                yield with_lattice(model, basis[:k] + (bad,) + basis[k + 1 :])


def test_certificate_fails_wherever_sampled_invariance_fails():
    # the certificate's exact pairing is the only K-invariance check, so it
    # must catch every model that numeric invariance at sample points
    # catches, and name the first pair that moves
    flagged = 0
    for (p, n), lam in SHIFT_SWEEP.items():
        ct = CurveType(p, n)
        points = sample_points(ct, lam, 5, 3)
        for model in (bad for good in all_models(ct, lam) for bad in shifted_models(good)):
            failures = sampled_invariance_failures(model, points)
            if not failures:
                continue
            flagged += 1
            assert all(sum(map(mul, vec, row)) % p for vec, row in failures)
            certificate = kummer_certificate(model)
            assert not certificate.passed
            vec, row = failures[0]
            assert certificate.witness == f"exponents={list(vec)}, element={list(row)}"
    assert flagged > 0


@pytest.mark.parametrize(
    "ct, lam",
    [(CurveType(2, 5), LAM5), (CurveType(3, 4), (complex(2, 1), complex(-1, 0.5)))],
)
def test_fiber_residuals_fail_on_each_perturbed_t_j(ct, lam):
    # s^p = prod t_j^e_j uses the t_j(t_1) of the model's Lambda: moving
    # either coefficient of any one t_j in that table fails the sampled
    # check of every model, even where no exponent vector uses that t_j
    table = validate_lambda(lam, ct.n).slopes
    kernels = [K for m in range(1, ct.n) for K in enumerate_free_subgroups(ct, m)]
    for j, (c0, c1) in enumerate(table, 1):
        for slope in ((c0 + 1, c1), (c0, c1 + 1)):
            bad = with_slope(lam, ct.n, j, slope)
            models = [cyclic_gonal_model(K, bad) for K in kernels[:: max(1, len(kernels) // 6)]]
            reports = verify_quotient_model(models, samples=5, seed=3)
            assert all(not r.checks[0].passed and r.certificate.passed for r in reports), (j, slope)


RANDOM_LATTICE_SWEEP = {
    (2, 5): LAM5,
    (5, 3): (Fraction(4),),
    (13, 3): (Fraction(5),),
}


def spans_k_perp(model, basis) -> bool:
    """Whether ``basis`` spans K^perp mod p, decided by comparing its
    canonical RREF with invariant_lattice_basis, the nullspace route."""
    reduced, _ = rref_mod_p(list(basis), model.p)
    return sorted(reduced) == invariant_lattice_basis(model.subgroup)


def test_certificate_fails_exactly_on_lattices_not_spanning_k_perp():
    # each model's lattice is replaced by random vectors mod p and by random
    # combinations of its own rows; the sampled check passes on all of them,
    # and the report must fail exactly when the replacement does not span
    # K^perp
    rng = random.Random(20)
    outcomes = {True: 0, False: 0}
    for (p, n), lam in RANDOM_LATTICE_SWEEP.items():
        corrupted = []
        for model in all_models(CurveType(p, n), lam):
            rows = model.lattice_basis
            uniform = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in rows)
            mixed = []
            for _ in rows:
                coeffs = [rng.randrange(p) for _ in rows]
                mixed.append(tuple(sum(map(mul, coeffs, col)) % p for col in zip(*rows)))
            corrupted += [with_lattice(model, uniform), with_lattice(model, tuple(mixed))]
        for model, report in zip(corrupted, verify_quotient_model(corrupted, samples=3, seed=1)):
            spans = spans_k_perp(model, model.lattice_basis)
            outcomes[spans] += 1
            assert all(c.passed for c in report.checks)
            assert report.passed == report.certificate.passed == spans
    assert outcomes[True] > 0 and outcomes[False] > 0


def checks_json(checks):
    return json.dumps([c.to_json() for c in checks])


DIFFERENTIAL_BATCHES = {
    "2-5-fraction": lambda: all_models(CurveType(2, 5), LAM5),
    "3-4-complex": lambda: all_models(CurveType(3, 4), (complex(2, 1), complex(-1, 0.5))),
    # a model outside K^perp comes before the correct model of its kernel
    "corrupted-mid-batch": lambda: (
        all_models(CurveType(2, 5), LAM5)[:2]
        + [not_invariant_model(), cyclic_gonal_model(pairs_kernel(), LAM5)]
        + all_models(CurveType(2, 5), LAM5)[2:5]
    ),
}


@pytest.mark.parametrize("batch", sorted(DIFFERENTIAL_BATCHES))
def test_memoised_checks_match_per_point_reference(batch):
    models = DIFFERENTIAL_BATCHES[batch]()
    reports = verify_quotient_model(models, samples=12, seed=3)
    reference = reference_quotient_checks(models, samples=12, seed=3)
    assert len(reports) == len(reference) == len(models)
    for report, checks in zip(reports, reference):
        assert checks_json(report.checks) == checks_json(checks)


def test_memo_lives_for_one_call():
    # each call draws its own points from its own seed
    models = all_models(CurveType(2, 5), LAM5)
    for seed in (8, 9, 8):
        reports = verify_quotient_model(models, samples=6, seed=seed)
        reference = reference_quotient_checks(models, samples=6, seed=seed)
        assert [checks_json(r.checks) for r in reports] == [checks_json(c) for c in reference]


def test_one_residual_evaluation_per_sampled_point(monkeypatch):
    # the report's worst residual is measured once per sampled point: the
    # sampler measures none, and the call's models share one check
    models = all_models(CurveType(2, 5), LAM5)
    reference = reference_quotient_checks(models, samples=9, seed=4)
    evaluated = count_calls(monkeypatch, verify_module, "fiber_equation_residuals")
    for _ in range(2):
        reports = verify_quotient_model(models, samples=9, seed=4)
        assert len(evaluated) == 9
        evaluated.clear()
        assert [checks_json(r.checks) for r in reports] == [checks_json(c) for c in reference]
    assert verify_quotient_model(models[:1], samples=1, seed=4)[0].checks[0].samples == 1
    assert len(evaluated) == 1


def test_reports_of_one_call_share_one_fiber_check():
    # the points are drawn once per call, so their check is built once: every
    # report holds that one object, and a new call builds its own
    models = all_models(CurveType(2, 5), LAM5)
    reports = verify_quotient_model(models, samples=6, seed=8)
    [fiber] = reports[0].checks
    assert fiber.check == "fiber_residuals" and fiber.samples == 6
    assert len(reports) == len(models) > 1
    assert all(len(r.checks) == 1 and r.checks[0] is fiber for r in reports)
    [again] = verify_quotient_model(models[:1], samples=6, seed=8)[0].checks
    assert again == fiber and again is not fiber


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
        s1 = monomial(point, (1, 1, 0, 0, 1))
        s2 = monomial(point, (0, 0, 1, 1, 1))
        s3 = monomial(point, (1, 1, 1, 1, 0))
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


def with_curve(cons, curve):
    """The construction with its curve replaced."""
    return CurveConstruction(cons.label, curve, cons.curve_type, cons.lam, cons.details)


def test_deck_check_rejects_a_moved_root():
    cons = curve_case2(CurveType(2, 4), (Fraction(3), Fraction(7)), (3, 4, 5))
    roots = list(cons.curve.roots)
    roots[0] += 1e-3
    moved = with_curve(cons, HyperellipticCurve(cons.curve.genus, tuple(roots)))
    assert verify_hyperelliptic(cons).passed
    assert [c.passed for c in verify_hyperelliptic(moved).checks if c.check == "deck_symmetry"] == [False]
    # Case5i: x -> zeta x fixes the root at infinity, which stands in for no
    # finite root, and no finite root stands in for it
    cons = curve_case5(CurveType(5, 2))
    assert cons.curve.roots[-1] == INF and verify_hyperelliptic(cons).passed
    for k in (0, -1):
        roots = list(cons.curve.roots)
        roots[k] = 2j
        moved = with_curve(cons, HyperellipticCurve(cons.curve.genus, tuple(roots)))
        assert [c.passed for c in verify_hyperelliptic(moved).checks if c.check == "deck_symmetry"] == [False]


def test_fiber_check_rejects_two_roots_moved_onto_one_target():
    cons = curve_case2(CurveType(2, 4), (Fraction(3), Fraction(7)), (3, 4, 5))
    w_map, targets, roots = cons.details["w_map"], cons.details["kept_points"], cons.curve.roots

    def covering(z):
        return w_map(complex(z) ** 2)

    def merged(z):  # roots[0] lands where roots[2] does
        return covering(roots[2] if z == roots[0] else z)

    assert _fiber_check(targets, roots, covering, 2, CHECK_TOL).passed
    assert not _fiber_check(targets, roots, merged, 2, CHECK_TOL).passed


def _same_check(got, want) -> bool:
    """Equal reports, with max_residual equal to the bit."""
    return got == want and got.max_residual.hex() == want.max_residual.hex()


@pytest.mark.parametrize("ct, lam", [(CurveType(2, 5), LAM5), (CurveType(2, 6), (3, 7, 11, -5))])
def test_fiber_check_matches_per_pair_reference(monkeypatch, ct, lam):
    # _fiber_check makes each image and target complex once; the reference
    # does it at every pair.  Every curve's fiber checks must agree exactly.
    seen, fiber_check = [], verify_module._fiber_check

    def spy(*args):
        seen.append((args, fiber_check(*args)))
        return seen[-1][1]

    monkeypatch.setattr(verify_module, "_fiber_check", spy)
    labels = set()
    for m in range(1, ct.n):
        for K in enumerate_free_subgroups(ct, m):
            label, construction = build_curve(K, lam)
            if construction is not None:
                before = len(seen)
                assert verify_hyperelliptic(construction).passed
                if len(seen) > before:
                    labels.add(label)
    assert {CaseLabel.CASE2, CaseLabel.CASE4} <= labels
    for args, got in seen:
        assert _same_check(got, reference_fiber_check(*args))


def _inverse_square(z):
    if is_inf(z):
        return 0
    return INF if z == 0 else 1 / complex(z) ** 2


FIBER_INPUTS = {
    # the root 0 maps to INF, which lies near the target 3e9 only
    "inf-image": ((Fraction(1, 4), 3e9), (0, 2.00000000002, -2, 2j), _inverse_square, 2),
    # the target INF is hit by the root INF and by the root 1e12, and the
    # finite target by nothing
    "inf-target": ((INF, 0.5 + 0.5j), (INF, 1e12, 1, 1j), lambda z: z if is_inf(z) else z * (1 + 1e-11), 2),
    # a passing check: INF is hit by the image INF of 0 and by the image
    # 1e12 of 1e-6, and each finite target by two images
    "inf-both": ((INF, 1, Fraction(1, 4)), (0, 1e-6, 1, -1, 2, -2.00000000002), _inverse_square, 2),
}


@pytest.mark.parametrize("name", sorted(FIBER_INPUTS))
def test_fiber_check_matches_per_pair_reference_at_infinity(name):
    targets, roots, mapping, expected = FIBER_INPUTS[name]
    got = _fiber_check(targets, roots, mapping, expected, CHECK_TOL)
    assert _same_check(got, reference_fiber_check(targets, roots, mapping, expected, CHECK_TOL))
    assert got.max_residual > 0 or name == "inf-target"
    assert got.passed == (name == "inf-both")


def test_case4_orientation_oracle():
    ct = CurveType(2, 4)
    lam = (Fraction(3), Fraction(7))
    ok = curve_case4(ct, lam, (1, 2))
    bad = curve_case4_inverse(ct, lam, (1, 2))
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
    assert set(data) == {"pass", "max_residual", "checks", "certificate"}
    for check in data["checks"]:
        assert {"check", "max_residual", "samples", "pass"} <= set(check)
    assert [check["check"] for check in data["checks"]] == ["fiber_residuals"]
    assert data["certificate"] == {"check": "kummer", "rank": 2, "expected_rank": 2, "pass": True}
    curve = verify_hyperelliptic(curve_case2(CurveType(2, 4), (Fraction(3), Fraction(7)), (3, 4, 5)))
    assert "root_count" not in {check["check"] for check in curve.to_json()["checks"]}


# -- near-linear curve checks against the all-pairs references -------------------

CURVE_CHECK_REFERENCES = {
    "_fiber_check": reference_fiber_check,
    "_deck_check": reference_deck_check,
    "_distinctness": reference_distinctness,
}


def spy_curve_checks(monkeypatch) -> list:
    """Record (name, args, report) for every curve check that verify runs."""
    seen = []
    for name in CURVE_CHECK_REFERENCES:
        check = getattr(verify_module, name)

        def spy(*args, _name=name, _check=check):
            seen.append((_name, args, _check(*args)))
            return seen[-1][2]

        monkeypatch.setattr(verify_module, name, spy)
    return seen


def table_constructions(ct, lam) -> list:
    """The curve of every positive block subgroup of ct at lam."""
    built = (build_curve(Subgroup(ct, basis), lam)[1] for m in range(1, ct.n) for basis in block_subgroups(ct, m))
    return [construction for construction in built if construction is not None]


def assert_checks_match_references(seen):
    for name, args, got in seen:
        assert _same_check(got, CURVE_CHECK_REFERENCES[name](*args)), (name, args)


TABLE_SWEEP = [
    *((CurveType(2, n), random_rational_lambda(n, random.Random(n))) for n in range(4, 13)),
    (CurveType(2, 7), (1 + 2j, -1 + 0.5j, 2.5 - 1j, 0.3 + 0.3j, -2 - 2j)),
    (CurveType(2, 5), (-1, 2, Fraction(1, 2))),  # Case3 holds for three splits
    *((CurveType(p, 2), ()) for p in (3, 5, 7, 11)),
    *((CurveType(p, 3), lam) for p in (5, 7) for lam in ((3,), (2 + 1j,), (Fraction(-5, 7),))),
]


@pytest.mark.parametrize("ct, lam", TABLE_SWEEP, ids=[f"{ct.p}-{ct.n}-{lam}" for ct, lam in TABLE_SWEEP])
def test_curve_checks_match_all_pairs_references(monkeypatch, ct, lam):
    # every curve check of every table curve gives the all-pairs report, to
    # the bit of its max_residual
    seen = spy_curve_checks(monkeypatch)
    constructions = table_constructions(ct, lam)
    labels = {c.label for c in constructions}
    assert all(verify_hyperelliptic(c).passed for c in constructions)
    assert_checks_match_references(seen)
    assert {name for name, _, _ in seen} == (
        {"_distinctness", "_deck_check"} if labels == {CaseLabel.CASE5I} else set(CURVE_CHECK_REFERENCES)
    )
    if ct == CurveType(2, 5) and lam[0] == -1:
        assert CaseLabel.CASE3 in labels


NEAR_DEGENERATE = [
    (CurveType(2, 4), (1e-9, 2)),
    (CurveType(2, 4), (1e-5, 1e5)),
    (CurveType(2, 5), (1e-5, 2e-5, 1e5)),
]


@pytest.mark.parametrize("ct, lam", NEAR_DEGENERATE)
def test_a_root_at_zero_fails_and_matches_the_references(monkeypatch, ct, lam):
    # cancellation in quartic_factor_roots puts a Case4 root at 0, which
    # x -> 1/x sends to INF: the curve fails distinctness and deck symmetry
    # (it raised ZeroDivisionError before the deck maps were sphere maps)
    seen = spy_curve_checks(monkeypatch)
    zero_root = 0
    for construction in table_constructions(ct, lam):
        report = {c.check: c.passed for c in verify_hyperelliptic(construction).checks}
        if construction.label == CaseLabel.CASE4 and 0 in construction.curve.roots:
            zero_root += 1
            assert not report["roots_distinct"] and not report["deck_symmetry"]
    assert zero_root
    assert_checks_match_references(seen)


def seeded_points(rng: random.Random, tol: float) -> list:
    """A shuffled mix of finite points and the edge cases of the sphere:
    INF, signed zeros, NaN parts, a Fraction, pairs about tol * scale apart
    on both sides of the boundary, and moduli about 1/tol on both sides."""
    def finite():
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

    points = [finite() for _ in range(rng.randrange(2, 8))]
    a = finite() * rng.choice((1, 1e-3, 1e3))
    step = tol * max(1.0, abs(a)) * rng.choice((1, 1j, (1 + 1j) / abs(1 + 1j)))
    edges = [
        INF, 0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
        complex(math.nan, 0), complex(1, math.nan), Fraction(1, 3),
        *(a + step * (1 + k * 2.0**-52) for k in range(-2, 3)), a,
        *(cmath.rect(1 / tol * (1 + k * 2.0**-52), rng.uniform(-4, 4)) for k in range(-2, 3)),
    ]
    points += rng.sample(edges, rng.randrange(3, len(edges)))
    rng.shuffle(points)
    return points


SWEEP_TOLS = (CHECK_TOL, 1e-8, 1e-3, 0.7)


def test_distinctness_matches_reference_on_seeded_points():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(400):
        tol = rng.choice(SWEEP_TOLS)
        points = seeded_points(rng, tol)
        for roots in (points, [r for r in points if r is not INF]):
            got = _distinctness(roots, tol)
            assert _same_check(got, reference_distinctness(roots, tol)), (roots, tol)
            outcomes.add(got.passed)
    assert outcomes == {True, False}


def test_fiber_check_matches_reference_on_seeded_points():
    rng = random.Random(32)
    outcomes = set()
    for _ in range(400):
        tol = rng.choice(SWEEP_TOLS)
        targets = seeded_points(rng, tol)[:4] + [INF, complex(math.nan, 1)][: rng.randrange(3)]
        expected = rng.randrange(1, 3)
        # each target's fiber, some images moved by about tol, and at times
        # a stray image or a missing one
        images = [t for t in targets for _ in range(expected)]
        images = [z * (1 + rng.choice((0, tol, -tol / 2))) if not is_inf(z) else z for z in images]
        images += seeded_points(rng, tol)[: rng.choice((0, 0, 1))]
        images = images[: len(images) - rng.choice((0, 0, 1))]
        rng.shuffle(images)
        roots = range(len(images))  # a root is its index, mapped to its image
        got = _fiber_check(targets, roots, images.__getitem__, expected, tol)
        assert _same_check(got, reference_fiber_check(targets, roots, images.__getitem__, expected, tol))
        outcomes.add(got.passed)
    assert outcomes == {True, False}


def _nan_off_the_axis(z):
    """-z, except for points right of Re = 1, which go to a NaN image."""
    return z if is_inf(z) else complex(math.nan, 1) if complex(z).real > 1 else -z


def test_deck_check_matches_reference_on_seeded_points():
    # the transforms fix INF, where the references map every INF root
    rng = random.Random(33)
    outcomes = set()
    for _ in range(400):
        tol = rng.choice(SWEEP_TOLS)
        roots = seeded_points(rng, tol)
        roots += [-r if not is_inf(r) else r for r in rng.sample(roots, len(roots) // 2)]
        rng.shuffle(roots)
        stretch = 1 + rng.choice((0, tol, 20 * tol))
        transforms = [operator.neg, lambda z: 1j * z, lambda z: -z * stretch, _nan_off_the_axis]
        for chosen in (transforms[:1], rng.sample(transforms, 2)):
            got = _deck_check(roots, chosen, tol)
            assert _same_check(got, reference_deck_check(roots, chosen, tol)), (roots, tol)
            outcomes.add(got.passed)
    assert outcomes == {True, False}


@pytest.mark.parametrize("roots", [(), (INF,), (0,), (INF, INF), (complex(math.nan, 0), 1)])
def test_curve_checks_match_references_on_few_roots(roots):
    for tol in (CHECK_TOL, 0.7):
        assert _same_check(_distinctness(roots, tol), reference_distinctness(roots, tol))
        assert _same_check(_deck_check(roots, [operator.neg], tol), reference_deck_check(roots, [operator.neg], tol))
        args = ((INF, 0), roots, lambda z: z, 1, tol)
        assert _same_check(_fiber_check(*args), reference_fiber_check(*args))


def test_deck_inversion_swaps_zero_and_inf():
    # 1/x is a map of the sphere: {0, INF, 2, 1/2} is invariant, and without
    # INF, the image INF of 0 is infinitely far from every root
    assert _deck_check((0, INF, 2, 0.5), [verify_module._invert], CHECK_TOL).passed
    report = _deck_check((0, 2, 0.5, -1), [verify_module._invert], CHECK_TOL)
    assert not report.passed and report.max_residual == 0.0
    assert _same_check(report, reference_deck_check((0, 2, 0.5, -1), [verify_module._invert], CHECK_TOL))


def test_curve_checks_call_sphere_close_a_few_times_per_root(monkeypatch):
    # the window leaves sphere_close about one call per fiber hit, where the
    # all-pairs checks made one per pair of roots and per (target, root)
    ct = CurveType(2, 12)
    constructions = table_constructions(ct, random_rational_lambda(12, random.Random(12)))
    assert len(constructions) == 364
    calls = count_calls(monkeypatch, riemann_sphere, "sphere_close")
    assert all(verify_hyperelliptic(c).passed for c in constructions)
    assert len(calls) <= 4 * sum(len(c.curve.roots) for c in constructions)


# -- the certificate's rank -------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_certificate_rank_matches_rref(p):
    rng = random.Random(p)
    shapes = {"distinct leads": 0, "zero row": 0, "repeated lead": 0, "dependent": 0}
    for _ in range(600):
        n, r = rng.randrange(1, 6), rng.randrange(0, 5)
        rows = [tuple(rng.randrange(-p, 2 * p) * rng.randrange(2) for _ in range(n)) for _ in range(r)]
        if rows and rng.random() < 0.3:
            rows.append(tuple(3 * x for x in rng.choice(rows)))  # a multiple of a row
        rank = len(rref_mod_p(rows, p)[0])
        assert verify_module._rank_mod_p(rows, p) == rank, rows
        leads = [next((j for j, x in enumerate(row) if x % p), None) for row in rows]
        if None in leads:
            shapes["zero row"] += 1
        elif len(set(leads)) < len(leads):
            shapes["repeated lead"] += 1
        else:
            shapes["distinct leads"] += 1
        shapes["dependent"] += rank < len(rows)
    assert all(shapes.values()), shapes


def test_repeated_leading_column_fails_the_certificate():
    # a lattice row repeated: a repeated leading column, and a rank one short
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    doubled = with_lattice(model, model.lattice_basis[:1] * 2)
    certificate = kummer_certificate(doubled)
    assert (certificate.rank, certificate.expected_rank, certificate.passed) == (1, 2, False)


# -- every check can fail ---------------------------------------------------------


def with_root(cons, index: int, value):
    """The construction with its root at ``index`` replaced by value."""
    roots = list(cons.curve.roots)
    roots[index] = value
    return with_curve(cons, HyperellipticCurve(cons.curve.genus, tuple(roots)))


def with_details(cons, **changes):
    """The construction with some of its details replaced."""
    return CurveConstruction(cons.label, cons.curve, cons.curve_type, cons.lam, {**cons.details, **changes})


def case2_curve():
    return curve_case2(CurveType(2, 4), (Fraction(3), Fraction(7)), (3, 4, 5))


def case3_curve():
    constructions = table_constructions(CurveType(2, 5), (-1, 2, Fraction(1, 2)))
    return next(c for c in constructions if c.label == CaseLabel.CASE3)


FAILING_INPUTS = {
    # the Lambda's table misses the curve
    "fiber_residuals": lambda: verify_quotient_model([cyclic_gonal_model(pairs_kernel(), wrong_slope_lambda())])[0],
    "kummer": lambda: verify_quotient_model([not_invariant_model()])[0],
    "roots_distinct": lambda: verify_hyperelliptic(with_root(case2_curve(), 1, case2_curve().curve.roots[0])),
    "branch_fibers": lambda: verify_hyperelliptic(with_root(case2_curve(), 0, case2_curve().curve.roots[0] + 1e-3)),
    # a deck map whose images are NaN stands for no root
    "deck_symmetry": lambda: VerificationReport([_deck_check((1, 2, -1, -2), [lambda z: complex(math.nan, 0)], 1e-9)]),
    "quartic_branch_values": lambda: verify_hyperelliptic(with_details(case3_curve(), beta=0)),
    "unity_roots": lambda: verify_hyperelliptic(with_root(curve_case5(CurveType(5, 2)), 0, 2j)),
    "involution_signature": lambda: verify_hyperelliptic(
        with_details(curve_case5(CurveType(5, 3), (3,)), sqrt_lambda1=2)
    ),
}


@pytest.mark.parametrize("kind", sorted(FAILING_INPUTS))
def test_each_check_kind_fails_on_a_constructed_input(kind):
    # no check of verify passes whatever its input: each kind it writes
    # reports pass: false on an input built to break it
    source = Path(verify_module.__file__).read_text()
    assert set(FAILING_INPUTS) == set(re.findall(r'CheckReport\(\s*"(\w+)"', source)) | {"kummer"}
    data = FAILING_INPUTS[kind]().to_json()
    checks = data["checks"] + ([data["certificate"]] if "certificate" in data else [])
    assert kind in {check["check"] for check in checks if not check["pass"]}
    assert data["pass"] is False
