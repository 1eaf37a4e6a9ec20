"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import random
import time
from fractions import Fraction

import pytest

from gfcurves import (
    CaseLabel,
    CurveType,
    Subgroup,
    brute_force_free_subgroups,
    build_curve,
    classify,
    curve_case3,
    curve_case4,
    curve_case5,
    cyclic_gonal_model,
    enumerate_free_subgroups,
    genus_fermat,
    hyperelliptic_z2n1_subgroups,
    map_b,
    map_t,
    poly_identity_equal,
    quotient_genus,
    theta,
    theta_orbit,
    validate_lambda,
    verify_hyperelliptic,
    verify_quotient_model,
)
from gfcurves.hyperelliptic import case3_coupling
from gfcurves.humbert import genus2_curves, genus3_pairs
from gfcurves.riemann_sphere import csqrt, is_inf, poly_from_roots, polys_close
from gfcurves.verify import random_rational_lambda
from helpers import case3_quartic_map_branch_values, compose_permutations

TOL = 1e-9


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion}: {text} ... PASS")


def test_criterion_01_enumeration_golden_2_4():
    start = time.monotonic()
    ct = CurveType(2, 4)
    L_words = [
        "a1*a2", "a1*a3", "a1*a4", "a1*a5", "a2*a3",
        "a2*a4", "a2*a5", "a3*a4", "a3*a5", "a4*a5",
    ]
    K_specs = [
        ("a1*a2", "a1*a3"), ("a1*a2", "a1*a4"), ("a1*a2", "a1*a5"),
        ("a1*a3", "a1*a4"), ("a1*a3", "a1*a5"), ("a1*a4", "a1*a5"),
        ("a2*a3", "a2*a4"), ("a2*a3", "a2*a5"), ("a2*a4", "a2*a5"),
        ("a3*a4", "a3*a5"),
    ]
    golden_rank1 = {Subgroup.from_words(ct, [w]) for w in L_words}
    golden_rank2 = {Subgroup.from_words(ct, spec) for spec in K_specs}
    got1 = set(enumerate_free_subgroups(ct, 1))
    got2 = set(enumerate_free_subgroups(ct, 2))
    elapsed = time.monotonic() - start
    assert len(got1) == 10 and got1 == golden_rank1
    assert len(got2) == 10 and got2 == golden_rank2
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"(2,4) rank-1/rank-2 golden lists in {elapsed:.2f}s")


def test_criterion_02_uniqueness_and_parity():
    start = time.monotonic()
    assert len(enumerate_free_subgroups(CurveType(2, 5), 4)) == 1
    assert len(enumerate_free_subgroups(CurveType(2, 7), 6)) == 1
    assert len(enumerate_free_subgroups(CurveType(2, 4), 3)) == 0
    assert len(enumerate_free_subgroups(CurveType(2, 6), 5)) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(2, f"unique top-rank subgroup for odd n, none for even n, {elapsed:.2f}s")


def test_criterion_03_oracle_equivalence():
    cases = []
    for p, n in [(2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5)]:
        for m in range(1, n):
            cases.append((p, n, m))
    for n in (6, 7):
        for m in range(n - 3, n):
            cases.append((2, n, m))
    discrepancies = 0
    for p, n, m in cases:
        ct = CurveType(p, n)
        via_partitions = set(enumerate_free_subgroups(ct, m))
        via_brute_force = set(brute_force_free_subgroups(ct, m))
        if via_partitions != via_brute_force:
            discrepancies += 1
    assert discrepancies == 0
    _report(3, f"partition vs subspace enumeration on {len(cases)} (p,n,m) cases")


def test_criterion_04_overgroup_counting():
    h4, nh4 = hyperelliptic_z2n1_subgroups(CurveType(2, 4))
    h6, nh6 = hyperelliptic_z2n1_subgroups(CurveType(2, 6))
    assert (len(h4), len(nh4)) == (10, 5)
    assert (len(h6), len(nh6)) == (21, 7)
    for n, h, nh in ((4, h4, nh4), (6, h6, nh6)):
        assert len(h) == n * (n + 1) // 2
        assert len(nh) == n + 1
    _report(4, "rank n-1 overgroup counts (10, 5) and (21, 7)")


def _golden_pairs(l1, l2):
    return [
        (l1, l2),
        (1 - l1, l2 * (1 - l1) / (l2 - l1)),
        (l1 / (l1 - 1), (l2 - l1) / (1 - l1)),
        (1 / l1, l2 / l1),
        (1 - l2, l1 * (1 - l2) / (l1 - l2)),
        (l2 / (l2 - 1), (l1 - l2) / (1 - l2)),
        (1 / l2, l1 / l2),
        ((1 - l1) / (1 - l2), l2 * (1 - l1) / (l1 * (1 - l2))),
        (l2 / l1, (1 - l2) / (1 - l1)),
        (l1 / l2, l1 * (1 - l2) / (l2 * (1 - l1))),
    ]


def _golden_curve_constants(l1, l2):
    return [
        (1, l1, l2),
        (1, 1 - l1, 1 - l2),
        (l1, l1 - 1, l1 - l2),
        (l2, l2 - 1, l2 - l1),
        (1, (l1 - 1) / l1, (l2 - 1) / l2),
        (1, 1 - l1, (l2 - l1) / l2),
        (1, 1 - l2, (l1 - l2) / l1),
        (1, l1, (l2 - l1) / (l2 - 1)),
        (1, l2, (l1 - l2) / (l1 - 1)),
        (1, l2 / l1, (l2 - 1) / (l1 - 1)),
    ]


def _run_humbert_command(lam):
    """Invoke the CLI demo command and parse its JSON payload."""
    import io
    import json
    from contextlib import redirect_stdout

    from gfcurves.cli import main

    argv = ["humbert-demo", "--format", "json", "--lambda"] + [str(v) for v in lam]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0
    return json.loads(buffer.getvalue())


def _parse_value(v):
    from gfcurves.cli import parse_scalar

    if isinstance(v, str):
        return complex(parse_scalar(v))
    if isinstance(v, list):
        return complex(v[0], v[1])
    return complex(v)


def test_criterion_05_humbert_tables(capsys):
    start = time.monotonic()
    rng = random.Random(20240517)
    demo_cache = {}

    def demo(lam):
        if lam not in demo_cache:
            demo_cache[lam] = _run_humbert_command(lam)
        return demo_cache[lam]

    def pair_key(pair):
        return tuple(
            sorted(
                (round(complex(v).real, 9), round(complex(v).imag, 9))
                for v in pair
            )
        )

    for _ in range(5):
        lam = random_rational_lambda(4, rng)
        payload = demo(lam)
        got = sorted(
            pair_key([_parse_value(v) for v in e["pair"]])
            for e in payload["genus3_pairs"]
        )
        want = sorted(pair_key(p) for p in _golden_pairs(*lam))
        assert got == want

    # curves C1..C10 from the command output, via polynomial identity testing
    for index in range(10):

        def emitted(lam, index=index):
            entry = demo(tuple(lam))["genus2_curves"][index]
            return [_parse_value(r) for r in entry["curve"]["roots"]]

        def published(lam, index=index):
            roots = []
            for c in _golden_curve_constants(*lam)[index]:
                s = csqrt(-c)
                roots.extend([s, -s])
            return roots

        assert poly_identity_equal(
            emitted, published, 4, samples=5, tol=TOL, rng=random.Random(index)
        )
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(5, f"demo command pairs and curves C1..C10 at random tuples, {elapsed:.2f}s")


QUOTIENT_LAMBDAS = {
    (2, 4): (Fraction(3), Fraction(7)),
    (2, 5): (Fraction(3), Fraction(7), Fraction(11)),
    (2, 6): (Fraction(3), Fraction(7), Fraction(11), Fraction(-5)),
    (3, 3): (Fraction(4),),
    (5, 2): (),
}


@pytest.mark.parametrize("p,n", sorted(QUOTIENT_LAMBDAS))
def test_criterion_06_quotient_model_verification(p, n):
    ct = CurveType(p, n)
    lam = QUOTIENT_LAMBDAS[(p, n)]
    subgroups = [K for m in range(1, n) for K in enumerate_free_subgroups(ct, m)]
    reports = verify_quotient_model(
        (cyclic_gonal_model(K, lam) for K in subgroups), samples=100, seed=7
    )
    total = len(reports)
    assert total == len(subgroups) > 0
    for K, report in zip(subgroups, reports):
        assert report.passed, (p, n, K.generator_words())
    worst = max(report.max_residual for report in reports)
    assert worst < TOL
    _report(6, f"({p},{n}): {total} models, 100 samples each, max residual {worst:.2e}")


def test_criterion_07_hyperelliptic_verification():
    lam_by_n = {
        4: (Fraction(3), Fraction(7)),
        5: (Fraction(3), Fraction(7), Fraction(11)),
        6: (Fraction(3), Fraction(7), Fraction(11), Fraction(-5)),
    }
    total = 0
    for n, lam in lam_by_n.items():
        ct = CurveType(2, n)
        for m in range(1, n):
            for K in enumerate_free_subgroups(ct, m):
                label, cons = build_curve(K, lam)
                if cons is None:
                    continue
                report = verify_hyperelliptic(cons, tol=TOL)
                assert report.passed, (n, K.generator_words(), label)
                g = quotient_genus(ct, K.rank)
                assert cons.curve.genus == g
                assert len(cons.curve.roots) == 2 * g + 2
                total += 1
    # p >= 3 constructions
    for p, n, lam in [(3, 2, ()), (5, 2, ()), (3, 3, (Fraction(4),)), (5, 3, (Fraction(4),))]:
        cons = curve_case5(CurveType(p, n), lam)
        assert verify_hyperelliptic(cons, tol=TOL).passed, (p, n)
        total += 1
    # genuine three-pair curve at a compatible tuple
    cons3 = curve_case3(CurveType(2, 5), (Fraction(6), Fraction(2), Fraction(3)))
    assert verify_hyperelliptic(cons3, tol=TOL).passed
    total += 1
    # branch values of the coupling map at the stated degenerate-style input
    values = case3_quartic_map_branch_values((4, 2, 2))
    assert is_inf(values[0])
    assert abs(complex(values[1]) - 5) == 0
    assert abs(complex(values[2]) - 4) == 0
    _report(7, f"{total} curves pass root-count and fiber checks")


def test_criterion_08_design_decision_regressions():
    lam = (Fraction(3), Fraction(7))
    ct = CurveType(2, 4)
    # (a) the quartic parameter orientation: q = T(p) passes, q = T^{-1}(p)
    # fails; tested on big parts whose normalizing map is not an involution
    # (for big part (4,5) the anchors are already (inf,0,1) and T = id)
    passes = 0
    fails = 0
    for big in [(1, 2), (1, 3), (2, 4)]:
        ok = curve_case4(ct, lam, big)
        bad = curve_case4(ct, lam, big, orientation="inverse")
        passes += verify_hyperelliptic(ok, tol=TOL).passed
        fails += not verify_hyperelliptic(bad, tol=TOL).passed
    assert passes == 3 and fails == 3
    # (b) halved constant reproduces the branch value 1 + l1 exactly
    l1, l2, l3 = Fraction(6), Fraction(2), Fraction(3)
    alpha, beta = case3_coupling((l1, l2, l3))
    assert 2 * alpha + beta == 1 + l1
    assert -2 * alpha + beta == l2 + l3
    beta_unhalved = 1 + l1 + l2 + l3
    assert 2 * alpha + beta_unhalved != 1 + l1
    _report(8, "orientation and halved-constant choices validated by oracles")


def test_criterion_09_moduli_properties():
    lam = (Fraction(3), Fraction(7))
    # exact identities on rationals
    assert theta((2, 1, 3, 4, 5), lam) == map_b(lam)
    assert theta((2, 3, 4, 5, 1), lam) == map_t(lam)
    # homomorphism on 50 random triples
    rng = random.Random(424242)
    checked = 0
    while checked < 50:
        cand = tuple(
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(2)
        )
        try:
            validate_lambda(cand, 4)
        except Exception:
            continue
        sigma = tuple(rng.sample(range(1, 6), 5))
        tau = tuple(rng.sample(range(1, 6), 5))
        lhs = theta(compose_permutations(sigma, tau), cand)
        rhs = theta(sigma, theta(tau, cand))
        for a, b in zip(lhs, rhs):
            assert abs(a - b) <= TOL * max(1.0, abs(a), abs(b))
        checked += 1
    # generic orbit size by enumeration
    assert len(theta_orbit(lam)) == 120
    _report(9, "homomorphism on 50 triples, exact generators, orbit size 120")


def test_criterion_10_genus_ledger():
    assert genus_fermat(CurveType(2, 4)) == 5
    assert genus_fermat(CurveType(2, 5)) == 17
    assert quotient_genus(CurveType(2, 4), 2) == 2
    assert quotient_genus(CurveType(2, 4), 1) == 3
    assert quotient_genus(CurveType(2, 5), 3) == 3
    assert quotient_genus(CurveType(2, 4), 1) == 2 * 4 - 5
    assert quotient_genus(CurveType(2, 5), 2) == 2 * 5 - 5
    assert quotient_genus(CurveType(2, 7), 5) == 5
    for p in (3, 5, 7):
        assert quotient_genus(CurveType(p, 2), 1) == (p - 1) // 2
        assert quotient_genus(CurveType(p, 3), 2) == p - 1
    _report(10, "all stated genera reproduced exactly")
