"""Group element arithmetic, canonical forms, and subgroup normal forms."""

import pytest

from gfcurves import (
    CurveType,
    DomainError,
    GroupElement,
    Subgroup,
    element_from_word,
    genus_fermat,
    has_fixed_points,
    standard_generators,
    subgroup_from_generators,
)
from helpers import elements_with_fixed_points
from itertools import product


def test_curve_type_validation():
    CurveType(2, 4)
    CurveType(3, 3)
    CurveType(3, 2)  # genus-one boundary case stays constructible
    with pytest.raises(DomainError):
        CurveType(4, 3)  # composite p
    with pytest.raises(DomainError):
        CurveType(2, 3 - 2)
    with pytest.raises(DomainError):
        CurveType(2, 2)  # (p-1)(n-1) = 1


def test_standard_generators_canonical_forms():
    ct = CurveType(2, 4)
    gens = standard_generators(ct)
    assert len(gens) == 5
    assert gens[4].exponents == (1, 1, 1, 1, 0)
    ct33 = CurveType(3, 3)
    gens33 = standard_generators(ct33)
    assert gens33[3].exponents == (2, 2, 2, 0)


@pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (3, 3), (5, 2)])
def test_generator_product_is_identity(p, n):
    ct = CurveType(p, n)
    gens = standard_generators(ct)
    prod = gens[0]
    for g in gens[1:]:
        prod = prod * g
    assert prod.is_identity()


def test_fixed_points_examples():
    ct = CurveType(2, 4)
    a = standard_generators(ct)
    assert has_fixed_points(a[0])
    assert not has_fixed_points(a[0] * a[1])
    ct32 = CurveType(3, 2)
    b = standard_generators(ct32)
    assert not has_fixed_points(b[1] * b[0].inverse())
    assert has_fixed_points(GroupElement.identity(ct))


@pytest.mark.parametrize(
    "p,n", [(2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (5, 2), (3, 5)]
)
def test_fixed_point_characterizations_agree(p, n):
    # direct span membership in some <a_j> versus the support criterion
    ct = CurveType(p, n)
    gens = standard_generators(ct)
    power_classes = {GroupElement.identity(ct)}
    for g in gens:
        for c in range(1, p):
            power_classes.add(g**c)
    for exps in product(range(p), repeat=n):
        h = GroupElement.from_exponents(ct, exps + (0,))
        assert has_fixed_points(h) == (h in power_classes)


@pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (2, 6), (3, 3), (5, 2)])
def test_fixed_point_count(p, n):
    ct = CurveType(p, n)
    elems = set(elements_with_fixed_points(ct))
    assert len(elems) == (n + 1) * (p - 1)


def test_subgroup_canonical_and_idempotent():
    ct = CurveType(2, 4)
    a = standard_generators(ct)
    k1 = subgroup_from_generators(ct, [a[0] * a[1], a[1] * a[0]])
    assert k1.rank == 1
    assert k1.basis == ((1, 1, 0, 0, 0),)
    # order-insensitive
    k2 = subgroup_from_generators(ct, [a[0] * a[2], a[0] * a[1]])
    k3 = subgroup_from_generators(ct, [a[0] * a[1], a[0] * a[2], a[1] * a[2]])
    assert k2 == k3
    assert k2.rank == 2


def test_subgroup_rank_bounded_by_n():
    # n+1 generators only span an n-dimensional group
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        ct = CurveType(p, n)
        K = subgroup_from_generators(ct, standard_generators(ct))
        assert K.rank == n


def test_subgroup_examples_from_words():
    ct25 = CurveType(2, 5)
    words = ["a1*a2", "a1*a3", "a1*a4", "a1*a5"]
    K = Subgroup.from_words(ct25, words)
    assert K.rank == 4
    ct33 = CurveType(3, 3)
    K2 = Subgroup.from_words(ct33, ["a2*a1^-1", "a3*a1^-1"])
    assert K2.rank == 2


def test_element_word_round_trip():
    ct = CurveType(3, 3)
    for word in ["a1", "a1*a2^2", "a2*a1^-1", "1"]:
        g = element_from_word(ct, word)
        again = element_from_word(ct, g.word())
        assert g == again
    with pytest.raises(DomainError):
        element_from_word(ct, "a9")
    with pytest.raises(DomainError):
        element_from_word(ct, "b1")


def test_subgroup_contains_and_elements():
    ct = CurveType(2, 4)
    K = Subgroup.from_words(ct, ["a1*a2", "a1*a3"])
    assert K.order == 4
    elems = list(K.elements())
    assert len(set(elems)) == 4
    assert K.contains(element_from_word(ct, "a2*a3"))
    assert not K.contains(element_from_word(ct, "a1"))


def test_genus_values():
    assert genus_fermat(CurveType(2, 4)) == 5
    assert genus_fermat(CurveType(2, 5)) == 17
    assert genus_fermat(CurveType(2, 6)) == 49
    assert genus_fermat(CurveType(2, 7)) == 129
    # general-n closed form for p = 2
    for n in range(4, 9):
        assert genus_fermat(CurveType(2, n)) == 1 + 2 ** (n - 2) * (n - 3)


def test_genus_at_least_two_when_strict():
    for p, n in [(2, 4), (2, 9), (3, 3), (5, 2), (7, 2), (3, 5)]:
        if (p - 1) * (n - 1) > 2:
            assert genus_fermat(CurveType(p, n)) >= 2


def test_subgroup_json_round_trip():
    ct = CurveType(3, 3)
    K = Subgroup.from_words(ct, ["a2*a1^-1", "a3*a1^-1"])
    assert Subgroup.from_json(K.to_json()) == K
