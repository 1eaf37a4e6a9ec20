"""Invariant-monomial lattices and cyclic p-gonal quotient models."""

from fractions import Fraction

import pytest

from gfcurves import (
    CurveType,
    DomainError,
    NotFreeSubgroupError,
    Subgroup,
    affine_representation,
    cyclic_gonal_model,
    invariant_lattice_basis,
    standard_generators,
    subgroup_from_generators,
)
from gfcurves.gonal import CyclicGonalModel, slope_table
from helpers import rhs_value

LAM5 = (Fraction(6), Fraction(2), Fraction(3))


def pairs_kernel():
    ct = CurveType(2, 5)
    return Subgroup.from_words(ct, ["a1*a2", "a3*a4", "a1*a3*a5"])


def test_affine_representation_examples():
    ct = CurveType(2, 5)
    K = pairs_kernel()
    rows = set(affine_representation(K))
    # row space must contain the defining elements in affine coordinates
    assert len(rows) == 3

    ct4 = CurveType(2, 4)
    K45 = Subgroup.from_words(ct4, ["a4*a5"])
    assert affine_representation(K45) == ((1, 1, 1, 0),)

    ct33 = CurveType(3, 3)
    K21 = Subgroup.from_words(ct33, ["a2*a1^-1"])
    assert affine_representation(K21) == ((1, 2, 0),)


def test_lattice_orthogonality():
    for K in (pairs_kernel(), Subgroup.from_words(CurveType(3, 3), ["a2*a1^-1"])):
        p = K.curve_type.p
        rows = affine_representation(K)
        for vec in invariant_lattice_basis(K):
            for row in rows:
                assert sum(a * b for a, b in zip(vec, row)) % p == 0


def test_lattice_examples():
    # three-pair kernel at n = 5: monomials x3 x4 x5 and x1 x2 x5
    assert invariant_lattice_basis(pairs_kernel()) == [
        (0, 0, 1, 1, 1),
        (1, 1, 0, 0, 1),
    ]
    # big-block subgroups: x1...x_{n-1} and x_n
    for n in (4, 5, 6):
        ct = CurveType(2, n)
        gens = standard_generators(ct)
        K = subgroup_from_generators(ct, [gens[0] * gens[j] for j in range(1, n - 1)])
        assert invariant_lattice_basis(K) == [
            (0,) * (n - 1) + (1,),
            (1,) * (n - 1) + (0,),
        ]
    # rank n-3 subgroup: three monomials
    ct6 = CurveType(2, 6)
    gens = standard_generators(ct6)
    K = subgroup_from_generators(ct6, [gens[0] * gens[j] for j in range(1, 4)])
    assert invariant_lattice_basis(K) == [
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 1, 0),
        (1, 1, 1, 1, 0, 0),
    ]


def test_lattice_size_is_corank():
    for words, p, n in [
        (["a1*a2", "a1*a3"], 2, 4),
        (["a1*a2"], 2, 4),
        (["a2*a1^-1"], 3, 3),
    ]:
        K = Subgroup.from_words(CurveType(p, n), words)
        assert len(invariant_lattice_basis(K)) == n - K.rank


def test_slope_table():
    ct = CurveType(2, 5)
    slopes = slope_table(ct, LAM5)
    # t1 free; t2 = -(1 + l3 t1); t3 = 1 + (l3-1) t1; t4, t5 follow
    assert slopes[0] == (0, 1)
    assert slopes[1] == (-1, -LAM5[2])
    assert slopes[2] == (1, LAM5[2] - 1)
    assert slopes[3] == (1, LAM5[2] - LAM5[0])
    assert slopes[4] == (1, LAM5[2] - LAM5[1])
    # the substitutions satisfy the defining linear identities in t1
    rows = [
        (1, slopes[0], slopes[1], slopes[2]),
        (LAM5[0], slopes[0], slopes[1], slopes[3]),
        (LAM5[1], slopes[0], slopes[1], slopes[4]),
    ]
    for coeff, s1, s2, s3 in rows:
        assert coeff * s1[0] + s2[0] + s3[0] == 0
        assert coeff * s1[1] + s2[1] + s3[1] == 0
    # the final identity lam_{n-2} t1 + t2 + 1 = 0 holds coefficientwise
    assert LAM5[2] * slopes[0][0] + slopes[1][0] + 1 == 0
    assert LAM5[2] * slopes[0][1] + slopes[1][1] == 0


def test_slope_table_n2():
    ct = CurveType(3, 2)
    slopes = slope_table(ct, ())
    assert slopes == ((0, 1), (-1, -1))


def test_model_construction_and_worked_example():
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    assert model.num_equations() == 2
    # s^2 = t1 t2 t5 for the monomial x1 x2 x5: check at a numeric point
    t1 = 0.37 + 0.21j
    t2 = -(1 + complex(LAM5[2]) * t1)
    t5 = 1 + complex(LAM5[2] - LAM5[1]) * t1
    expect = -t1 * (1 + complex(LAM5[2]) * t1) * (1 + complex(LAM5[2] - LAM5[1]) * t1)
    got = rhs_value(model, (1, 1, 0, 0, 1), t1)
    assert abs(complex(got) - expect) < 1e-12
    assert abs(complex(got) - t1 * t2 * t5) < 1e-12


def test_paper_style_adds_products():
    model = cyclic_gonal_model(pairs_kernel(), LAM5, paper_style=True)
    assert (1, 1, 1, 1, 0) in model.lattice_basis
    assert model.num_equations() == 3


def test_big_block_rhs_matches_display():
    # s2^2 = 1 + (l_{n-2} - l_{n-3}) t1 for the x_n monomial
    ct = CurveType(2, 5)
    gens = standard_generators(ct)
    K = subgroup_from_generators(ct, [gens[0] * gens[j] for j in range(1, 4)])
    model = cyclic_gonal_model(K, LAM5)
    t1 = 1.3 - 0.2j
    got = complex(rhs_value(model, (0, 0, 0, 0, 1), t1))
    assert abs(got - (1 + complex(LAM5[2] - LAM5[1]) * t1)) < 1e-12


def test_rhs_degree_bound_p2():
    # at p = 2 every equation's right-hand side has t1-degree at most n
    from gfcurves import enumerate_free_subgroups

    lam_by_n = {4: (Fraction(3), Fraction(7)), 5: LAM5}
    for n, lam in lam_by_n.items():
        ct = CurveType(2, n)
        for m in range(1, n):
            for K in enumerate_free_subgroups(ct, m):
                model = cyclic_gonal_model(K, lam)
                for vec in model.lattice_basis:
                    assert model.rhs_degree(vec) <= n


def test_enumerated_top_rank_subgroup_identity():
    from gfcurves import enumerate_free_subgroups

    ct = CurveType(2, 5)
    (K,) = enumerate_free_subgroups(ct, 4)
    assert K == Subgroup.from_words(ct, ["a1*a2", "a1*a3", "a1*a4", "a1*a5"])


def test_non_free_subgroup_rejected():
    ct = CurveType(2, 4)
    K = Subgroup.from_words(ct, ["a1"])
    with pytest.raises(NotFreeSubgroupError):
        cyclic_gonal_model(K, (Fraction(3), Fraction(7)))


def test_bad_lambda_rejected():
    with pytest.raises(DomainError):
        cyclic_gonal_model(pairs_kernel(), (Fraction(1), Fraction(2), Fraction(3)))


def test_model_json_round_trip():
    model = cyclic_gonal_model(pairs_kernel(), LAM5)
    data = model.to_json()
    assert data["p"] == 2
    again = CyclicGonalModel.from_json(data, model.subgroup, model.lam)
    assert again.lattice_basis == model.lattice_basis
    assert [complex(c) for c0, c1 in again.slopes for c in (c0, c1)] == [
        complex(c) for c0, c1 in model.slopes for c in (c0, c1)
    ]
