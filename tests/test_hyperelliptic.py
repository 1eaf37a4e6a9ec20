"""Classification shapes, explicit curve constructions, counting results."""

from fractions import Fraction
from math import comb

import pytest

import gfcurves.free_action
from gfcurves import (
    CaseLabel,
    CurveType,
    DomainError,
    HyperellipticCurve,
    NotFreeSubgroupError,
    Subgroup,
    build_curve,
    classify,
    count_free_subgroups,
    curve_case1,
    curve_case2,
    curve_case3,
    curve_case4,
    curve_case5,
    enumerate_free_subgroups,
    hyperelliptic_z2n1_subgroups,
    quotient_genus,
    standard_generators,
)
from gfcurves.free_action import AdmissiblePartition, kernel_of_partition
from gfcurves.hyperelliptic import (
    _shape,
    block_subgroups,
    case2_square_map,
    case3_condition_holds,
    case3_coupling,
    expected_label_counts,
    rank_label,
)
from gfcurves.moduli import cone_points
from gfcurves.riemann_sphere import INF, is_inf, sphere_close
from helpers import (
    blocks_of,
    case3_quartic_map_branch_values,
    count_calls,
    curve_from_json,
    multisets_close,
    reference_case5_label,
    reference_shape,
)

LAM4 = (Fraction(3), Fraction(7))
LAM5 = (Fraction(3), Fraction(7), Fraction(11))
LAM5_SPECIAL = (Fraction(6), Fraction(2), Fraction(3))  # l2 * l3 = l1
LAM6 = (Fraction(3), Fraction(7), Fraction(11), Fraction(-5))


def test_blocks_recover_partition():
    ct = CurveType(2, 5)
    K = Subgroup.from_words(ct, ["a1*a2", "a3*a4", "a1*a3*a5"])
    assert sorted(blocks_of(K)) == [(1, 2), (3, 4), (5, 6)]
    # odd n: the two leftover indices share a block (shape (n-1, 2, 0))
    K2 = Subgroup.from_words(ct, ["a1*a2", "a1*a3", "a1*a4"])
    assert sorted(blocks_of(K2)) == [(1, 2, 3, 4), (5, 6)]
    # even n: they split into singletons (shape (n-1, 1, 1))
    ct4 = CurveType(2, 4)
    K3 = Subgroup.from_words(ct4, ["a1*a2", "a1*a3"])
    assert sorted(blocks_of(K3)) == [(1, 2, 3), (4,), (5,)]


def test_classify_examples():
    ct5 = CurveType(2, 5)
    K1 = Subgroup.from_words(ct5, ["a1*a2", "a1*a3", "a1*a4", "a1*a5"])
    assert classify(K1, LAM5) == CaseLabel.CASE1

    ct4 = CurveType(2, 4)
    K2 = Subgroup.from_words(ct4, ["a1*a2", "a1*a3"])
    assert classify(K2, LAM4) == CaseLabel.CASE2

    ct7 = CurveType(2, 7)
    P = AdmissiblePartition.from_parts(ct7, 2, [{1, 2, 3, 4}, {5, 6, 7, 8}, set()])
    K3 = kernel_of_partition(P)
    lam7 = tuple(Fraction(v) for v in (3, 5, 7, 11, 13))
    assert classify(K3, lam7) == CaseLabel.NOT_HYPERELLIPTIC


def test_classify_requires_free():
    ct = CurveType(2, 4)
    with pytest.raises(NotFreeSubgroupError):
        classify(Subgroup.from_words(ct, ["a1"]), LAM4)


def test_classification_complete_on_2_4():
    ct = CurveType(2, 4)
    for K in enumerate_free_subgroups(ct, 1):
        assert classify(K, LAM4) == CaseLabel.CASE4
    for K in enumerate_free_subgroups(ct, 2):
        assert classify(K, LAM4) == CaseLabel.CASE2


def test_classification_2_5_shapes():
    ct = CurveType(2, 5)
    labels = {}
    for m in range(1, 5):
        for K in enumerate_free_subgroups(ct, m):
            labels.setdefault((m, classify(K, LAM5)), 0)
            labels[(m, classify(K, LAM5))] += 1
    assert labels[(2, CaseLabel.CASE4)] == 20
    assert labels[(3, CaseLabel.CASE2)] == 15
    assert labels[(4, CaseLabel.CASE1)] == 1
    # generic lambda: the fifteen three-pair kernels are not hyperelliptic
    assert labels[(3, CaseLabel.NOT_HYPERELLIPTIC)] == 15
    assert (1, CaseLabel.NOT_HYPERELLIPTIC) in labels
    assert {lbl for (_, lbl) in labels} == {
        CaseLabel.CASE1,
        CaseLabel.CASE2,
        CaseLabel.CASE4,
        CaseLabel.NOT_HYPERELLIPTIC,
    }


def test_classification_case3_at_special_lambda():
    ct = CurveType(2, 5)
    standard_pairs = Subgroup.from_words(ct, ["a1*a2", "a3*a4", "a1*a3*a5"])
    assert classify(standard_pairs, LAM5_SPECIAL) == CaseLabel.CASE3
    assert classify(standard_pairs, LAM5) == CaseLabel.NOT_HYPERELLIPTIC


def test_classification_p_odd():
    for K in enumerate_free_subgroups(CurveType(5, 2), 1):
        assert classify(K, ()) == CaseLabel.CASE5I
    # at p = 7 some rank-1 subgroups fall outside the difference shape
    labels = [classify(K, ()) for K in enumerate_free_subgroups(CurveType(7, 2), 1)]
    assert labels.count(CaseLabel.CASE5I) == 3
    assert labels.count(CaseLabel.NOT_HYPERELLIPTIC) == 2
    # p = 3, n = 3: the difference-shape groups are not free, nothing matches
    assert all(
        classify(K, (Fraction(4),)) == CaseLabel.NOT_HYPERELLIPTIC
        for K in enumerate_free_subgroups(CurveType(3, 3), 2)
    )
    # p = 5, n = 3: exactly the four difference-shape subgroups match
    labels53 = [
        classify(K, (Fraction(4),))
        for K in enumerate_free_subgroups(CurveType(5, 3), 2)
    ]
    assert labels53.count(CaseLabel.CASE5II) == 4


def test_curve_case1():
    ct = CurveType(2, 5)
    cons = curve_case1(ct, LAM5)
    assert cons.curve.genus == 2 == (ct.n - 1) // 2
    assert set(cons.curve.finite_roots()) == {0, 1, *LAM5}
    assert any(is_inf(r) for r in cons.curve.roots)
    # degree/genus oracle at n = 7: degree-7 polynomial, genus 3
    ct7 = CurveType(2, 7)
    lam7 = tuple(Fraction(v) for v in (3, 5, 7, 11, 13))
    cons7 = curve_case1(ct7, lam7)
    assert cons7.curve.genus == 3
    assert len(cons7.curve.polynomial_coeffs()) == 8  # degree 7, monic
    with pytest.raises(DomainError):
        curve_case1(CurveType(2, 4), LAM4)


def test_curve_case2_example():
    ct = CurveType(2, 4)
    cons = curve_case2(ct, LAM4, kept_indices=(3, 4, 5))
    # omitted (inf, 0): Q(z) = z^2, preimages of 1, l1, l2
    expect = []
    for q in (1, *LAM4):
        s = complex(q) ** 0.5
        expect.extend([s, -s])
    assert multisets_close(cons.curve.roots, expect)
    assert cons.curve.genus == 2


def test_curve_case2_q_is_even():
    ct = CurveType(2, 4)
    for kept in [(3, 4, 5), (1, 2, 3), (2, 3, 4)]:
        cons = curve_case2(ct, LAM4, kept_indices=kept)
        w_map = cons.details["w_map"]
        for z in (0.7 + 0.1j, -1.3j, 2.4):
            assert sphere_close(w_map(z**2), w_map((-z) ** 2), 1e-12)


def test_curve_case3_construction():
    ct = CurveType(2, 5)
    cons = curve_case3(ct, LAM5_SPECIAL)
    assert cons.curve.genus == 3
    assert len(cons.curve.roots) == 8
    a2, b2 = cons.details["a_squared"], cons.details["b_squared"]
    # root multiset is {±a, ±1/a, ±b, ±1/b}
    squares = sorted(
        (round(complex(r * r).real, 9), round(complex(r * r).imag, 9))
        for r in cons.curve.roots
    )
    expect = sorted(
        (round(complex(v).real, 9), round(complex(v).imag, 9))
        for v in (a2, a2, 1 / a2, 1 / a2, b2, b2, 1 / b2, 1 / b2)
    )
    assert squares == expect
    with pytest.raises(DomainError):
        curve_case3(ct, LAM5)  # cross-condition violated


def test_case3_condition_invariant_under_block_relabeling():
    # the applicability condition depends only on the unordered pair split,
    # not on which pair is sent to which normalized slot or the order inside
    from itertools import permutations

    base_split = [(1, 2), (3, 4), (5, 6)]
    for lam in (LAM5_SPECIAL, LAM5):
        expect = case3_condition_holds(lam, base_split)
        for perm in permutations(range(3)):
            for flips in range(8):
                split = []
                for slot, block_index in enumerate(perm):
                    pair = base_split[block_index]
                    if flips >> slot & 1:
                        pair = (pair[1], pair[0])
                    split.append(pair)
                assert case3_condition_holds(lam, split) == expect


@pytest.mark.parametrize(
    "lam, split",
    [
        ((3, 3, 7), [(1, 2), (3, 4), (5, 6)]),
        ((1, 3, 7), [(1, 2), (3, 4), (5, 6)]),
        ((3, 7), [(1, 2), (3, 4), (5, 6)]),
        (LAM5, [(1, 2), (3, 4), (4, 6)]),
    ],
)
def test_case3_condition_keeps_its_checks(lam, split):
    # classification renormalises a trusted lambda; the public test checks
    with pytest.raises(DomainError):
        case3_condition_holds(lam, split)


def test_case3_count_invariant_under_moduli_action():
    # conformally equivalent parameter tuples classify the same number of
    # three-pair subgroups as hyperelliptic (with relabeled subgroups)
    import random

    from gfcurves import theta

    ct = CurveType(2, 5)
    rng = random.Random(31)
    kernels = enumerate_free_subgroups(ct, 3)

    def case3_count(lam):
        return sum(1 for K in kernels if classify(K, lam) == CaseLabel.CASE3)

    assert case3_count(LAM5_SPECIAL) == 1
    for _ in range(4):
        sigma = tuple(rng.sample(range(1, 7), 6))
        moved = theta(sigma, LAM5_SPECIAL)
        assert case3_count(moved) == 1, sigma


def test_case2_omitted_order_gives_equivalent_curve():
    from gfcurves import verify_hyperelliptic

    ct = CurveType(2, 4)
    kept = (2, 3, 4)
    b1, b5 = cone_points(LAM4)[0], cone_points(LAM4)[4]
    a = curve_case2(ct, LAM4, kept, square_map=case2_square_map(b1, b5))
    b = curve_case2(ct, LAM4, kept, square_map=case2_square_map(b5, b1))
    assert verify_hyperelliptic(a).passed and verify_hyperelliptic(b).passed
    assert not multisets_close(a.curve.roots, b.curve.roots)  # different charts


def test_case2_default_square_map_and_a_wrong_one():
    # the default is the omitted pair's map in index order; a map that does
    # not send 0 and inf to the omitted pair is refused
    ct = CurveType(2, 4)
    pts = cone_points(LAM4)
    assert curve_case2(ct, LAM4, (2, 3, 4)) == curve_case2(
        ct, LAM4, (2, 3, 4), square_map=case2_square_map(pts[0], pts[4])
    )
    with pytest.raises(DomainError):
        curve_case2(ct, LAM4, (2, 3, 4), square_map=case2_square_map(pts[0], pts[3]))


def test_case3_branch_value_table():
    # branch values of the quartic map at a (4, 2, 2)-type input: inf, 5, 4
    values = case3_quartic_map_branch_values((4, 2, 2))
    assert is_inf(values[0])
    assert values[1] == 5
    assert values[2] == 4


def test_case3_sqrt_branch_flip_swaps_parameters():
    ct = CurveType(2, 5)
    cons = curve_case3(ct, LAM5_SPECIAL)
    alpha, beta = cons.details["alpha"], cons.details["beta"]
    l1 = complex(cons.details["lam_normalized"][0])
    sq = complex(l1) ** 0.5
    # solving with -sqrt swaps the two quadratic targets
    s_plus = (2 * sq - beta) / alpha
    s_minus = (-2 * sq - beta) / alpha
    flipped = curve_case3(ct, LAM5_SPECIAL)
    assert multisets_close(cons.curve.roots, flipped.curve.roots)
    a2 = cons.details["a_squared"]
    assert abs(a2 * a2 - s_plus * a2 + 1) < 1e-9 * max(1, abs(a2) ** 2)
    b2 = cons.details["b_squared"]
    assert abs(b2 * b2 - s_minus * b2 + 1) < 1e-9 * max(1, abs(b2) ** 2)


def test_case3_halved_constant_regression():
    # halved constant reproduces M(2) = 1 + l1 exactly; unhalved does not
    l1, l2, l3 = Fraction(6), Fraction(2), Fraction(3)
    alpha, beta = case3_coupling((l1, l2, l3))
    assert 2 * alpha + beta == 1 + l1
    assert -2 * alpha + beta == l2 + l3
    beta_unhalved = 1 + l1 + l2 + l3
    assert 2 * alpha + beta_unhalved != 1 + l1


def test_curve_case4_example():
    ct = CurveType(2, 4)
    cons = curve_case4(ct, LAM4, big_part=(4, 5))
    # anchors (inf, 0, 1): T is the identity, q values are the lambdas
    assert cons.details["q_values"] == LAM4
    assert cons.curve.genus == 3
    # quartic roots satisfy ((1 + x^2) / 2x)^2 = q
    for root, q in zip(cons.curve.roots[:4], [LAM4[0]] * 4):
        z = complex(root)
        val = ((1 + z * z) / (2 * z)) ** 2
        assert abs(val - complex(q)) < 1e-9 * max(1, abs(complex(q)))


def test_curve_case4_genus_scaling():
    for n, lam in [(4, LAM4), (5, LAM5), (6, LAM6)]:
        ct = CurveType(2, n)
        big = tuple(range(1, n - 1))
        cons = curve_case4(ct, lam, big_part=big)
        assert cons.curve.genus == 2 * n - 5 == quotient_genus(ct, n - 3)
        assert len(cons.curve.roots) == 4 * (n - 2)


def test_curve_case5():
    cons3 = curve_case5(CurveType(3, 2))
    assert cons3.curve.genus == 1
    assert len(cons3.curve.finite_roots()) == 3
    cons5 = curve_case5(CurveType(5, 2))
    assert cons5.curve.genus == 2

    cons33 = curve_case5(CurveType(3, 3), (Fraction(4),))
    assert cons33.curve.genus == 2
    assert abs(cons33.details["alpha_p"] - 9) < 1e-12
    # all six roots distinct, cube roots of 1 and of 9
    cubes = sorted(round(abs(complex(r) ** 3), 9) for r in cons33.curve.roots)
    assert cubes == [1.0, 1.0, 1.0, 9.0, 9.0, 9.0]


def test_case5_labels_match_the_difference_subgroups():
    # the block-shape rule against the set of difference subgroups it replaced
    positives = {}
    for p in (3, 5, 7, 11):
        for n in (2, 3):
            ct = CurveType(p, n)
            lam = (Fraction(4),) if n == 3 else ()
            positives[p, n] = 0
            for m in range(1, n):
                for K in enumerate_free_subgroups(ct, m):
                    label = classify(K, lam)
                    assert label == reference_case5_label(K), (ct, K.generator_words())
                    positives[p, n] += label != CaseLabel.NOT_HYPERELLIPTIC
    assert positives == {(3, 2): 1, (3, 3): 0} | {(p, n): n + 1 for p in (5, 7, 11) for n in (2, 3)}


def test_build_curve_reads_generator_images_once(monkeypatch):
    # a subgroup built from its basis alone is checked once, unless it is a
    # block subgroup, which is free by construction; the walk's own subgroup
    # carries its images and is not checked at all
    ct5, ct6 = CurveType(2, 5), CurveType(2, 6)
    cases = [(K, LAM5) for m in range(1, 5) for K in enumerate_free_subgroups(ct5, m)]
    cases.append((Subgroup.from_words(ct5, ["a1*a2", "a3*a4", "a1*a3*a5"]), LAM5_SPECIAL))
    cases += [(K, LAM6) for m in range(1, 6) for K in enumerate_free_subgroups(ct6, m)]
    calls = []
    images = Subgroup.generator_images
    monkeypatch.setattr(Subgroup, "generator_images", lambda K: calls.append(K) or images(K))
    labels = set()
    for K, lam in cases:
        calls.clear()
        label, _ = build_curve(Subgroup(K.curve_type, K.basis), lam)
        assert calls == ([] if K.basis in block_subgroups(K.curve_type, K.rank) else [K]), K.generator_words()
        if K.images is not None:
            calls.clear()
            assert build_curve(K, lam)[0] == label and calls == []
        labels.add(label)
    assert labels == {
        CaseLabel.CASE1,
        CaseLabel.CASE2,
        CaseLabel.CASE3,
        CaseLabel.CASE4,
        CaseLabel.NOT_HYPERELLIPTIC,
    }


def test_free_curve_path_matches_the_checked_one():
    cases = [(K, lam) for lam in (LAM5, LAM5_SPECIAL) for m in range(1, 5)
             for K in enumerate_free_subgroups(CurveType(2, 5), m)]
    cases += [(K, LAM6) for m in range(1, 6) for K in enumerate_free_subgroups(CurveType(2, 6), m)]
    cases += [(K, (Fraction(4),)) for m in (1, 2) for K in enumerate_free_subgroups(CurveType(5, 3), m)]
    cases += [(K, ()) for K in enumerate_free_subgroups(CurveType(5, 2), 1)]
    labels = set()
    for K, lam in cases:
        label, cons = build_curve(K, lam)
        assert (label, cons) == build_curve(Subgroup(K.curve_type, K.basis), lam)
        labels.add(label)
    assert len(labels) == len(CaseLabel)


def test_public_classification_keeps_its_checks():
    ct = CurveType(2, 5)
    fixed = Subgroup.from_words(ct, ["a1", "a2*a3"])
    rank1 = enumerate_free_subgroups(ct, 1)[0]  # its label follows from the rank alone
    for check in (classify, build_curve):
        with pytest.raises(NotFreeSubgroupError) as caught:
            check(fixed, LAM5)
        assert caught.value.witness.word() == "a1"
        for bad in ((Fraction(3), Fraction(1), Fraction(11)), LAM4):
            with pytest.raises(DomainError):
                check(rank1, bad)
    repeated = (Fraction(3), Fraction(3))
    for build in (
        lambda: curve_case2(CurveType(2, 4), repeated, kept_indices=(3, 4, 5)),
        lambda: curve_case4(CurveType(2, 4), repeated, big_part=(1, 2)),
        lambda: curve_case1(CurveType(2, 5), (*repeated, Fraction(5))),
        lambda: curve_case3(ct, (*repeated, Fraction(9))),
        lambda: curve_case5(CurveType(3, 3), (Fraction(1),)),
    ):
        with pytest.raises(DomainError):
            build()


def test_build_curve_dispatch():
    ct = CurveType(2, 4)
    for K in enumerate_free_subgroups(ct, 1):
        label, cons = build_curve(K, LAM4)
        assert label == CaseLabel.CASE4 and cons is not None
        assert cons.curve.genus == 3
    ct33 = CurveType(3, 3)
    for K in enumerate_free_subgroups(ct33, 2):
        label, cons = build_curve(K, (Fraction(4),))
        assert label == CaseLabel.NOT_HYPERELLIPTIC and cons is None


# (p, n, lambda): lambda at (2,5) meets the Case3 condition, so every label
# that the blocks give at p = 2 occurs
_RANK_RULE_TYPES = [
    (2, 4, LAM4),
    (2, 5, LAM5_SPECIAL),
    (2, 6, LAM6),
    (2, 7, tuple(map(Fraction, (9, Fraction(-1, 9), Fraction(-2, 5), -7, 5)))),
    (3, 2, ()),
    (3, 3, (Fraction(4),)),
    (5, 2, ()),
    (5, 3, (Fraction(3),)),
    (7, 3, (Fraction(3),)),
]


@pytest.mark.parametrize("p, n, lam", _RANK_RULE_TYPES)
def test_rank_rule_agrees_with_each_subgroup(p, n, lam):
    # a rank that the rank alone labels gives that label to every subgroup
    # in it, as the per-subgroup classification finds it
    ct = CurveType(p, n)
    decided = undecided = 0
    for m in range(1, n):
        label = rank_label(ct, m)
        subgroups = enumerate_free_subgroups(ct, m)
        if label is None:
            undecided += len(subgroups)
            continue
        decided += len(subgroups)
        assert all(classify(K, lam) is label for K in subgroups)
    # at odd p only rank n - 1 is left to the blocks; at p = 2 ranks n - 2 and n - 3
    assert undecided == sum(len(enumerate_free_subgroups(ct, m)) for m in range(1, n)
                            if m in ((n - 1,) if p > 2 else (n - 2, n - 3)))
    assert decided + undecided > 0


# (p, n, lambda): the two Case3 lambdas at (2,5) make 4 and 2 of the 15
# splits Case3
_TABLE_TYPES = [
    (2, 4, LAM4),
    (2, 5, LAM5),
    (2, 5, (Fraction(-1), Fraction(2), Fraction(1, 2))),
    (2, 5, (Fraction(-2), Fraction(4), Fraction(-1, 2))),
    (2, 6, LAM6),
    (2, 7, tuple(map(Fraction, (9, Fraction(-1, 9), Fraction(-2, 5), -7, 5)))),
    (2, 8, tuple(map(Fraction, (9, Fraction(-1, 9), Fraction(-2, 5), -7, 5, 13)))),
    (3, 2, ()),
    (3, 3, (Fraction(4),)),
    (5, 2, ()),
    (5, 3, (Fraction(3),)),
    (7, 2, ()),
    (7, 3, (Fraction(3),)),
    (13, 3, (Fraction(5),)),
]


@pytest.mark.parametrize("p, n, lam", _TABLE_TYPES)
def test_block_table_agrees_with_the_blocks(p, n, lam):
    # label and curve data by one lookup in the block table, against the
    # blocks read off each subgroup's images, on every free subgroup of the
    # ranks that rank_label does not label NotHyperelliptic; the table is
    # empty at those
    ct = CurveType(p, n)
    found = {}
    for m in range(1, n):
        table, count = block_subgroups(ct, m), count_free_subgroups(ct, m)
        if rank_label(ct, m) is CaseLabel.NOT_HYPERELLIPTIC:
            assert table == {}
            if count:
                found[CaseLabel.NOT_HYPERELLIPTIC] = found.get(CaseLabel.NOT_HYPERELLIPTIC, 0) + count
            continue
        met = 0
        for K in enumerate_free_subgroups(ct, m, images=True):
            label, data = reference_shape(K, lam)
            assert _shape(K, lam, 1e-9)[1:] == (label, data), K.generator_words()
            if K.basis in table:  # found by its basis alone
                assert _shape(Subgroup(ct, K.basis), lam, 1e-9)[1:] == (label, data)
                met += 1
            found[label] = found.get(label, 0) + 1
        assert met == len(table)
    assert found == _summed(expected_label_counts(ct, lam))


def _summed(counts: dict) -> dict:
    total = {}
    for tally in counts.values():
        for label, count in tally.items():
            total[label] = total.get(label, 0) + count
    return total


# the label counts of each type, as the walk gave them before the block table
_LABEL_COUNTS = {
    (2, 4, LAM4): {"Case2": 10, "Case4": 10},
    (2, 5, LAM5): {"Case1": 1, "Case2": 15, "Case4": 20, "NotHyperelliptic": 100},
    (2, 5, (Fraction(-1), Fraction(2), Fraction(1, 2))):
        {"Case1": 1, "Case2": 15, "Case3": 4, "Case4": 20, "NotHyperelliptic": 96},
    (2, 5, (Fraction(-2), Fraction(4), Fraction(-1, 2))):
        {"Case1": 1, "Case2": 15, "Case3": 2, "Case4": 20, "NotHyperelliptic": 98},
    (2, 6, LAM6): {"Case2": 21, "Case4": 35, "NotHyperelliptic": 1136},
    (2, 7, tuple(map(Fraction, (3, 7, 11, -5, 13)))): {"Case1": 1, "Case2": 28, "Case4": 56, "NotHyperelliptic": 14135},
    (3, 2, ()): {"Case5i": 1},
    (5, 2, ()): {"Case5i": 3},
    (7, 2, ()): {"Case5i": 3, "NotHyperelliptic": 2},
    (3, 3, (Fraction(4),)): {"NotHyperelliptic": 12},
    (5, 3, (Fraction(4),)): {"Case5ii": 4, "NotHyperelliptic": 36},
    (7, 3, (Fraction(4),)): {"Case5ii": 4, "NotHyperelliptic": 80},
    (11, 3, (Fraction(4),)): {"Case5ii": 4, "NotHyperelliptic": 216},
    (13, 3, (Fraction(4),)): {"Case5ii": 4, "NotHyperelliptic": 308},
}


@pytest.mark.parametrize("p, n, lam", list(_LABEL_COUNTS), ids=lambda v: str(v))
def test_expected_label_counts_match_the_walk(p, n, lam):
    ct = CurveType(p, n)
    expected = expected_label_counts(ct, lam)
    walked = {}
    for m in range(1, n):
        tally = {}
        for K in enumerate_free_subgroups(ct, m, images=True):
            label = classify(K, lam)
            tally[label] = tally.get(label, 0) + 1
        if tally:
            walked[m] = tally
    assert expected == walked
    assert {label.value: count for label, count in _summed(expected).items()} == _LABEL_COUNTS[p, n, lam]
    if p == 2:
        # Case2 = C(n+1, 2) and Case4 = C(n+1, 3) block subgroups, Case1 = [n odd]
        summed = _summed(expected)
        assert summed[CaseLabel.CASE2] == comb(n + 1, 2) and summed[CaseLabel.CASE4] == comb(n + 1, 3)
        assert summed.get(CaseLabel.CASE1, 0) == n % 2


def test_rank_rule_labels():
    # p = 2: outside n-3, n-2, n-1 (n odd) or n-3, n-2 (n even) the rank decides
    assert [rank_label(CurveType(2, 7), m) for m in range(1, 7)] == [
        CaseLabel.NOT_HYPERELLIPTIC] * 3 + [None, None, CaseLabel.CASE1]
    assert [rank_label(CurveType(2, 6), m) for m in range(1, 6)] == [
        CaseLabel.NOT_HYPERELLIPTIC] * 2 + [None, None, CaseLabel.NOT_HYPERELLIPTIC]
    assert [rank_label(CurveType(5, 3), m) for m in (1, 2)] == [CaseLabel.NOT_HYPERELLIPTIC, None]
    assert rank_label(CurveType(3, 4), 3) is CaseLabel.NOT_HYPERELLIPTIC
    with pytest.raises(DomainError, match="p = 2 requires n >= 4"):
        rank_label(CurveType(2, 3), 2)


def test_degree_genus_consistency_up_to_n8():
    lam_pool = [Fraction(v) for v in (3, 7, 11, -5, 13, 17)]
    for n in range(4, 9):
        ct = CurveType(2, n)
        lam = tuple(lam_pool[: n - 2])
        for m in sorted({n - 3, n - 2, n - 1} & set(range(1, n))):
            for K in enumerate_free_subgroups(ct, m):
                label, cons = build_curve(K, lam)
                if cons is None:
                    continue
                g = quotient_genus(ct, K.rank)
                assert cons.curve.genus == g
                assert len(cons.curve.roots) == 2 * g + 2


def test_overgroup_counting():
    h4, nh4 = hyperelliptic_z2n1_subgroups(CurveType(2, 4))
    assert (len(h4), len(nh4)) == (10, 5)
    h6, nh6 = hyperelliptic_z2n1_subgroups(CurveType(2, 6))
    assert (len(h6), len(nh6)) == (21, 7)
    # all produced subgroups have rank n-1
    assert all(L.rank == 3 for L in h4 | nh4)
    assert all(L.rank == 5 for L in h6 | nh6)


def test_overgroup_counting_reads_the_table_with_no_walk(monkeypatch):
    # the C(9, 2) = 36 Case2 subgroups come from the block table: no walk and
    # no generator_images call
    walks = count_calls(monkeypatch, gfcurves.free_action, "enumerate_free_subgroups")
    calls = []
    images = Subgroup.generator_images
    monkeypatch.setattr(Subgroup, "generator_images", lambda K: calls.append(K) or images(K))
    h8, nh8 = hyperelliptic_z2n1_subgroups(CurveType(2, 8))
    assert (len(h8), len(nh8)) == (36, 9) and calls == [] and walks == []


def test_overgroup_collapse():
    # <U1, a_r> = <U2, a_r> when r avoids both generating index sets
    ct = CurveType(2, 4)
    gens = standard_generators(ct)
    U1 = Subgroup.from_generators(ct, [gens[0] * gens[1], gens[0] * gens[2]])
    U2 = Subgroup.from_generators(ct, [gens[1] * gens[2], gens[1] * gens[3]])
    r = 5
    assert U1.join(gens[r - 1]) == U2.join(gens[r - 1])


def test_hyperelliptic_curve_validation():
    with pytest.raises(DomainError):
        HyperellipticCurve(2, (1, 2, 3))  # wrong root count
    with pytest.raises(DomainError):
        HyperellipticCurve(1, (INF, INF, 1, 2))  # two infinite roots


def test_curve_json_round_trip():
    ct = CurveType(2, 4)
    cons = curve_case4(ct, LAM4, big_part=(4, 5))
    data = cons.curve.to_json()
    again = curve_from_json(data)
    assert again.genus == cons.curve.genus
    assert multisets_close(again.roots, cons.curve.roots, 1e-12)
    cons1 = curve_case1(CurveType(2, 5), LAM5)
    assert "inf" in cons1.curve.to_json()["roots"]
    assert curve_from_json(cons1.curve.to_json()).roots == cons1.curve.roots
