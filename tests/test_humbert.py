"""Golden tables for the type (2, 4) worked example.

The expected values below are the published tables, frozen as formulas in
lambda.  Three entries of the genus-2 table are corrected where the printed
source is inconsistent with its own covering maps (checked in
test_printed_table_inconsistencies): the fifth curve's last denominator and
the signs in the eighth and ninth.
"""

import random
from fractions import Fraction

import pytest

from gfcurves import CurveType, Subgroup, curve_case2, hyperelliptic
from gfcurves.humbert import (
    CASE4_ANCHOR_ORDER,
    containment_table,
    full_report,
    genus2_curves,
    genus3_pairs,
)
from gfcurves.riemann_sphere import (
    Moebius,
    poly_from_roots,
)
from helpers import count_calls, multisets_close, poly_identity_equal, polys_close, random_rational_lambda


def golden_pairs(l1, l2):
    """The ten quartic parameter pairs, in the published order."""
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


def golden_curve_constants(l1, l2):
    """x^2 + c constants of the ten genus-2 curves, C1 through C10."""
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


def _pair_key(pair):
    return tuple(
        sorted(
            (round(complex(v).real, 9), round(complex(v).imag, 9)) for v in pair
        )
    )


def _const_key(constants):
    return tuple(
        sorted(
            (round(complex(v).real, 9), round(complex(v).imag, 9))
            for v in constants
        )
    )


@pytest.mark.parametrize(
    "lam",
    [
        (Fraction(3), Fraction(7)),
        (Fraction(-2), Fraction(5)),
        (Fraction(1, 2), Fraction(9, 4)),
    ],
)
def test_genus3_pair_multiset(lam):
    got = sorted(_pair_key(e["pair"]) for e in genus3_pairs(lam))
    want = sorted(_pair_key(p) for p in golden_pairs(*lam))
    assert got == want


@pytest.mark.parametrize(
    "lam",
    [
        (Fraction(3), Fraction(7)),
        (Fraction(-2), Fraction(5)),
        (Fraction(2, 3), Fraction(11, 5)),
    ],
)
def test_genus2_curve_table(lam):
    entries = genus2_curves(lam)
    want = golden_curve_constants(*lam)
    assert len(entries) == 10
    for entry, constants in zip(entries, want):
        got = _const_key(f["constant"] for f in entry["factors"])
        assert got == _const_key(constants), f"curve C{entry['index']}"


def _realizable_as_even_cover(constants, kept_points, omitted_points) -> bool:
    """Can x^2 + c factors come from one cover Q(z) = M(z^2) with the given
    kept cone points and branch values at the omitted pair?"""
    from itertools import permutations

    from gfcurves.riemann_sphere import INF, is_inf

    ws = [complex(-c) for c in constants]
    for perm in permutations(kept_points):
        pts = list(zip(ws, perm))
        inf_sources = [w for w, t in pts if is_inf(t)]
        if len(inf_sources) != 1:
            continue
        (w_inf,) = inf_sources
        (w0, t0), (w1, t1) = [(w, complex(t)) for w, t in pts if not is_inf(t)]
        # M(w) = (alpha w + beta) / (w - w_inf) through the two finite targets
        rhs0 = t0 * (w0 - w_inf)
        rhs1 = t1 * (w1 - w_inf)
        det = w0 - w1
        alpha = (rhs0 - rhs1) / det
        beta = (w0 * rhs1 - w1 * rhs0) / det
        M = Moebius(alpha, beta, 1, -w_inf)
        branch = sorted(
            (round(complex(M(v)).real, 6), round(complex(M(v)).imag, 6))
            for v in (0, INF)
        )
        expect = sorted(
            (round(complex(v).real, 6), round(complex(v).imag, 6))
            for v in omitted_points
        )
        if branch == expect:
            return True
    return False


def test_printed_table_inconsistencies():
    """The printed eighth curve cannot come from any even degree-2 cover
    with its own branch data, while the corrected sign can; likewise the
    correction is forced for the fifth and ninth curves."""
    from gfcurves.riemann_sphere import INF

    l1, l2 = 3.0, 7.0
    kept8 = (INF, 0.0, l2)
    omitted8 = (1.0, l1)
    printed8 = (1.0, l1, (l2 - l1) / (1.0 - l2))
    corrected8 = (1.0, l1, (l2 - l1) / (l2 - 1.0))
    assert not _realizable_as_even_cover(printed8, kept8, omitted8)
    assert _realizable_as_even_cover(corrected8, kept8, omitted8)

    kept5 = (INF, l1, l2)
    omitted5 = (0.0, 1.0)
    printed5 = (1.0, (l1 - 1.0) / l1, (l2 - 1.0) / l1)
    corrected5 = (1.0, (l1 - 1.0) / l1, (l2 - 1.0) / l2)
    assert not _realizable_as_even_cover(printed5, kept5, omitted5)
    assert _realizable_as_even_cover(corrected5, kept5, omitted5)

    kept9 = (INF, 0.0, l1)
    omitted9 = (1.0, l2)
    printed9 = (1.0, l2, (l1 - l2) / (1.0 - l1))
    corrected9 = (1.0, l2, (l1 - l2) / (l1 - 1.0))
    assert not _realizable_as_even_cover(printed9, kept9, omitted9)
    assert _realizable_as_even_cover(corrected9, kept9, omitted9)


def test_case2_construction_matches_demo_up_to_normalization():
    lam = (Fraction(3), Fraction(7))
    ct = CurveType(2, 4)
    for entry in genus2_curves(lam):
        cons = curve_case2(ct, lam, entry["kept"])
        demo_poly = poly_from_roots(entry["curve"].roots)
        candidates = []
        for s in (1, 1j, -1, -1j):
            candidates.append(poly_from_roots([s * r for r in cons.curve.roots]))
            candidates.append(
                poly_from_roots([s / r for r in cons.curve.roots])
            )
        assert any(polys_close(demo_poly, c) for c in candidates), entry["index"]


def test_c3_c4_rescaling_identities():
    """C3 at (x, y) -> (sqrt(l1) x, sqrt(l1)^3 y) becomes C3', same for C4."""
    from gfcurves.riemann_sphere import csqrt

    def c3(lam):
        entry = genus2_curves(lam)[2]
        return [r / csqrt(lam[0]) for r in entry["curve"].roots]

    def c3_prime(lam):
        l1, l2 = lam
        roots = []
        for c in (1, (l1 - 1) / l1, (l1 - l2) / l1):
            s = csqrt(-c)
            roots.extend([s, -s])
        return roots

    assert poly_identity_equal(c3, c3_prime, 4)

    def c4(lam):
        entry = genus2_curves(lam)[3]
        return [r / csqrt(lam[1]) for r in entry["curve"].roots]

    def c4_prime(lam):
        l1, l2 = lam
        roots = []
        for c in (1, (l2 - 1) / l2, (l2 - l1) / l2):
            s = csqrt(-c)
            roots.extend([s, -s])
        return roots

    assert poly_identity_equal(c4, c4_prime, 4)


def test_anchor_table_is_a_valid_normalization_choice():
    # every frozen anchor triple is a permutation of the non-big-part indices
    for big, anchors in CASE4_ANCHOR_ORDER.items():
        assert sorted(anchors) == sorted(set(range(1, 6)) - set(big))


def test_containment_structure():
    lam = (Fraction(3), Fraction(7))
    table = containment_table(lam)
    assert len(table) == 10
    ct = CurveType(2, 4)
    K1 = Subgroup.from_words(ct, ["a1*a2", "a1*a3"])
    entry = next(e for e in table if e["subgroup"] == K1)
    contained = {c["subgroup"] for c in entry["contains"]}
    expected = {
        Subgroup.from_words(ct, ["a1*a2"]),
        Subgroup.from_words(ct, ["a1*a3"]),
        Subgroup.from_words(ct, ["a2*a3"]),
    }
    assert contained == expected
    for e in table:
        assert len(e["contains"]) == 3
        for cover in e["contains"]:
            assert cover["curve"].genus == 3
            assert e["subgroup"].contains_subgroup(cover["subgroup"])


def test_section53_display():
    l1, l2 = Fraction(3), Fraction(7)
    table = containment_table((l1, l2))
    entry = next(e for e in table if e["omitted"] == (4, 5))
    by_b3 = {c["b3"]: c for c in entry["contains"]}
    # b3 = cone point 1 (index 3): quartic constants {1, l2/l1}
    assert _const_key(by_b3[3]["quartic_constants"]) == _const_key((1, l2 / l1))
    # b3 = inf (index 1): {l2/l1, (l2-1)/(l1-1)}
    assert _const_key(by_b3[1]["quartic_constants"]) == _const_key(
        (l2 / l1, (l2 - 1) / (l1 - 1))
    )
    # b3 = 0 (index 2): {1, (l2-1)/(l1-1)}
    assert _const_key(by_b3[2]["quartic_constants"]) == _const_key(
        (1, (l2 - 1) / (l1 - 1))
    )


def test_full_report_random_rational():
    rng = random.Random(99)
    for _ in range(3):
        lam = random_rational_lambda(4, rng)
        report = full_report(lam)
        assert len(report["genus3"]) == 10
        assert len(report["genus2"]) == 10
        assert report["genus3_value"] == 3
        assert report["genus2_value"] == 2
        got = sorted(_pair_key(e["pair"]) for e in report["genus3"])
        want = sorted(_pair_key(p) for p in golden_pairs(*lam))
        assert got == want


def test_full_report_builds_each_genus2_curve_once(monkeypatch):
    # the containment table reads the genus-2 entries the report already has
    builds = count_calls(monkeypatch, hyperelliptic, "curve_case2")
    report = full_report((Fraction(3), Fraction(7)))
    assert len(builds) == 10
    assert [e["curve"] for e in report["containment"]] == [e["curve"] for e in report["genus2"]]
