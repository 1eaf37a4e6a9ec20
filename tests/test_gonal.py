"""Invariant-monomial lattices and cyclic p-gonal quotient models."""

import json
import random
from fractions import Fraction

import pytest

from gfcurves import (
    CurveType,
    DomainError,
    NotFreeSubgroupError,
    Subgroup,
    cyclic_gonal_model,
    enumerate_free_subgroups,
    standard_generators,
)
from gfcurves.gonal import affine_representation, evaluate_slope, invariant_lattice_basis, slope_table
from gfcurves.moduli import validate_lambda
from gfcurves.riemann_sphere import json_number
from helpers import _blocks, model_from_json, reference_blocks, reference_evaluate_slope, rhs_degree, rhs_value

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
        K = Subgroup.from_generators(ct, [gens[0] * gens[j] for j in range(1, n - 1)])
        assert invariant_lattice_basis(K) == [
            (0,) * (n - 1) + (1,),
            (1,) * (n - 1) + (0,),
        ]
    # rank n-3 subgroup: three monomials
    ct6 = CurveType(2, 6)
    gens = standard_generators(ct6)
    K = Subgroup.from_generators(ct6, [gens[0] * gens[j] for j in range(1, 4)])
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


def test_slope_table_is_kept_per_lambda_object():
    # equal lambdas that hash alike still write different tables, so each
    # Lambda builds its own, once
    exact, real = validate_lambda((3,), 3), validate_lambda((3.0,), 3)
    assert exact == real and hash(exact) == hash(real)
    assert type(exact.slopes[1][1]) is int and type(real.slopes[1][1]) is float
    minus, plus = validate_lambda((complex(2, -0.0),), 3), validate_lambda((complex(2, 0.0),), 3)
    assert minus == plus and hash(minus) == hash(plus)
    assert json.dumps(json_number(minus.slopes[1][1])) != json.dumps(json_number(plus.slopes[1][1]))
    again = validate_lambda((3,), 3)
    assert slope_table(CurveType(2, 3), exact) is exact.slopes is exact.slopes
    assert again.slopes == exact.slopes and again.slopes is not exact.slopes


def test_evaluate_slope_matches_the_fraction_route_bit_for_bit():
    # complex(c0) + complex(c1) * t1 is what Fraction's operators compute,
    # signs of zero included
    rng = random.Random(23)
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    zeros += [complex(x, z) for x in (0.5, -1.25) for z in (0.0, -0.0)]
    zeros += [complex(z, x) for x in (0.5, -1.25) for z in (0.0, -0.0)]
    lambdas = [
        (Fraction(6), Fraction(2), Fraction(3)),
        (Fraction(-7, 3), Fraction(5, 11)),
        (2.5, -0.75, 4.0),
        (complex(2, -0.0), complex(0.5, 1.5)),
        (),
    ]
    cases = 0
    for lam in lambdas:
        table = validate_lambda(lam, len(lam) + 2).slopes
        t1s = zeros + [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(200)]
        for t1 in t1s:
            for slope in table:
                got, want = evaluate_slope(slope, t1), complex(reference_evaluate_slope(slope, t1))
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (slope, t1)
                cases += 1
    assert cases > 3000


@pytest.mark.parametrize("lam", [(3, 7), (3, 3, 7), (0, 3, 7), (1, 3, 7)])
def test_slope_table_checks_lambda(lam):
    # cyclic_gonal_model validates lambda itself; the public table still does
    with pytest.raises(DomainError):
        slope_table(CurveType(2, 5), lam)


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
    K = Subgroup.from_generators(ct, [gens[0] * gens[j] for j in range(1, 4)])
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
                    assert rhs_degree(model, vec) <= n


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
    again = model_from_json(data, model.subgroup, model.lam)
    assert again.lattice_basis == model.lattice_basis
    assert [complex(c) for c0, c1 in again.slopes for c in (c0, c1)] == [
        complex(c) for c0, c1 in model.slopes for c in (c0, c1)
    ]
    # a model reads its slopes off its lambda: written slopes of another
    # lambda are refused, not carried
    other = cyclic_gonal_model(pairs_kernel(), (Fraction(6), Fraction(2), Fraction(5))).to_json()
    with pytest.raises(DomainError):
        model_from_json({**data, "t1_slopes": other["t1_slopes"]}, model.subgroup, model.lam)


@pytest.mark.parametrize("p, n", [(2, 5), (2, 6), (3, 4), (5, 3), (7, 3)])
def test_lattice_from_the_walk_matches_the_nullspace_route(p, n):
    # one RREF of K's image columns against nullspace + RREF of K's basis;
    # the images give K's blocks as pairwise membership does
    ct = CurveType(p, n)
    lam = tuple(Fraction(v) for v in (3, 7, 11, -5)[: n - 2])
    for m in range(1, n):
        for K in enumerate_free_subgroups(ct, m):
            model = cyclic_gonal_model(K, lam)
            assert list(model.lattice_basis) == invariant_lattice_basis(K), K.generator_words()
            assert model == cyclic_gonal_model(Subgroup(ct, K.basis), lam)
            assert _blocks(K.generator_images()) == reference_blocks(K)
