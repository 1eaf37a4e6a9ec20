"""The parameter-domain symmetry action and orbit equivalence."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcurves import (
    DomainError,
    map_b,
    map_t,
    orbit_size,
    same_orbit,
    theta,
    theta_orbit,
    validate_lambda,
)
from gfcurves.moduli import invert_permutation
from helpers import (
    compose_permutations,
    exhaustive_orbit_size,
    exhaustive_same_orbit,
    identity_permutation,
    j_invariants,
    permutation_images,
)

LAM = (Fraction(3), Fraction(7))


def test_validate_lambda():
    validate_lambda(LAM, 4)
    with pytest.raises(DomainError):
        validate_lambda((Fraction(0), Fraction(3)), 4)
    with pytest.raises(DomainError):
        validate_lambda((Fraction(1), Fraction(3)), 4)
    with pytest.raises(DomainError):
        validate_lambda((Fraction(3), Fraction(3)), 4)
    with pytest.raises(DomainError):
        validate_lambda((Fraction(3),), 4)
    for bad in (float("nan"), complex(float("nan"), 0), complex(1, float("nan"))):
        with pytest.raises(DomainError):
            validate_lambda((bad, Fraction(3)), 4)
        with pytest.raises(DomainError):
            validate_lambda((bad, 3.0), 4, tol=1e-12)


def test_map_b_is_componentwise_inversion_and_involution():
    assert map_b(LAM) == (Fraction(1, 3), Fraction(1, 7))
    assert map_b(map_b(LAM)) == LAM


def test_map_t_formula_n4():
    l1, l2 = LAM
    assert map_t(LAM) == (l2 / (l2 - 1), l2 / (l2 - l1))


def test_theta_special_permutations_exact():
    # transposition of the first two cone points acts as b
    assert theta((2, 1, 3, 4, 5), LAM) == map_b(LAM)
    # full cycle acts as t
    assert theta((2, 3, 4, 5, 1), LAM) == map_t(LAM)
    # identity acts trivially
    assert theta(identity_permutation(4), LAM) == LAM


def test_theta_special_permutations_other_n():
    lam5 = (Fraction(3), Fraction(7), Fraction(11))
    assert theta((2, 1, 3, 4, 5, 6), lam5) == map_b(lam5)
    assert theta((2, 3, 4, 5, 6, 1), lam5) == map_t(lam5)


def test_theta_homomorphism_numeric():
    rng = random.Random(11)
    checked = 0
    while checked < 50:
        lam = tuple(
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(2)
        )
        try:
            validate_lambda(lam, 4)
        except DomainError:
            continue
        sigma = tuple(rng.sample(range(1, 6), 5))
        tau = tuple(rng.sample(range(1, 6), 5))
        lhs = theta(compose_permutations(sigma, tau), lam)
        rhs = theta(sigma, theta(tau, lam))
        for a, b in zip(lhs, rhs):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
        checked += 1


def test_permutation_utilities():
    sigma = (2, 3, 1, 5, 4)
    assert compose_permutations(sigma, invert_permutation(sigma)) == identity_permutation(4)


def test_images_stay_in_domain():
    rng = random.Random(5)
    for _ in range(25):
        lam = tuple(Fraction(rng.randint(2, 60), rng.randint(1, 7)) for _ in range(2))
        try:
            validate_lambda(lam, 4)
        except DomainError:
            continue
        validate_lambda(map_t(lam), 4)
        validate_lambda(map_b(lam), 4)
        sigma = tuple(rng.sample(range(1, 6), 5))
        validate_lambda(theta(sigma, lam), 4)


def test_generic_orbit_size_120():
    assert len(theta_orbit(LAM)) == 120


def test_orbit_generated_by_t_and_b():
    # closure of {t, b} on a generic tuple equals the full theta orbit
    seen = {LAM}
    frontier = [LAM]
    while frontier:
        current = frontier.pop()
        for image in (map_t(current), map_b(current)):
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    assert seen == set(theta_orbit(LAM))


def test_same_orbit_examples():
    ok, witness = same_orbit(LAM, map_b(LAM))
    assert ok and witness == (2, 1, 3, 4, 5)
    rng = random.Random(3)
    sigma = tuple(rng.sample(range(1, 6), 5))
    ok2, _ = same_orbit(LAM, theta(sigma, LAM))
    assert ok2
    ok3, witness3 = same_orbit(LAM, (Fraction(22, 7), Fraction(355, 113)))
    assert not ok3 and witness3 is None


def test_n3_orbit_collapses():
    # the symmetry group at n = 3 is a quotient of the permutation group,
    # so the orbit is smaller than 4! = 24
    lam = (Fraction(5),)
    orbit = theta_orbit(lam)
    assert len(orbit) == 6


# -- ordered-triple normalisation against the exhaustive scan -------------------


def seeded_tuples():
    """Exact and complex tuples for n = 3..6, generic ones and ones with a
    nontrivial stabiliser (harmonic, equianharmonic, (l, 1/l))."""
    rng = random.Random(2024)

    def exact(count):
        while True:
            lam = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(count))
            try:
                return validate_lambda(lam, count + 2)
            except DomainError:
                pass

    def inexact(count):
        while True:
            lam = tuple(complex(round(rng.uniform(-3, 3), 3), round(rng.uniform(-3, 3), 3))
                        for _ in range(count))
            if all(abs(v - w) > 0.1 for i, v in enumerate(lam) for w in (0, 1, *lam[:i])):
                return lam

    l = complex(2.0, 0.5)
    return [
        exact(1), exact(1), (Fraction(-1),),
        exact(2), exact(2), (Fraction(3), Fraction(1, 3)),
        exact(3), (Fraction(-1), Fraction(2), Fraction(1, 2)),
        exact(4),
        inexact(1), (cmath.exp(1j * math.pi / 3),),
        inexact(2), (l, 1 / l),
        inexact(3),
        inexact(4),
    ]


@pytest.mark.parametrize("lam", seeded_tuples(), ids=lambda lam: f"n{len(lam) + 2}")
def test_triples_match_exhaustive_scan(lam):
    rng = random.Random(len(lam))
    images = permutation_images(lam)
    assert orbit_size(lam) == exhaustive_orbit_size(images, lam)
    # equivalent pairs, including lam itself: same verdict and the same witness
    deltas = [lam] + [theta(tuple(rng.sample(range(1, len(lam) + 4), len(lam) + 3)), lam)
                      for _ in range(3)]
    # a non-equivalent pair: a perturbed image
    deltas.append(tuple(v + Fraction(1, 97) if isinstance(v, Fraction) else v + 0.01
                        for v in deltas[-1]))
    for delta in deltas:
        assert same_orbit(lam, delta) == exhaustive_same_orbit(images, delta)
    assert not same_orbit(lam, deltas[-1])[0]


def test_near_coincident_points_match_exhaustive_scan():
    # both points lie within tol of both entries of delta, so a per-point
    # match alone would assign them the same position
    lam = (2.0, 2.0 + 1e-12)
    images = permutation_images(lam)
    for delta in [(2.0, 3.0), (2.0 + 1e-12, 2.0), (1 / 2.0, 1 / (2.0 + 1e-12))]:
        assert same_orbit(lam, delta) == exhaustive_same_orbit(images, delta)
    assert same_orbit(lam, (2.0, 3.0)) == (False, None)


def test_special_orbit_sizes():
    # stabilisers of order 4, 2, 2 and 6: harmonic, (l, 1/l), equianharmonic
    assert orbit_size((Fraction(-1),)) == 3
    assert orbit_size((Fraction(3), Fraction(1, 3))) == 60
    assert orbit_size((Fraction(-1), Fraction(2), Fraction(1, 2))) == 60
    assert orbit_size((cmath.exp(1j * math.pi / 3),)) == 2
    # plain ints count as exact, also where floats of the images would collide
    assert orbit_size((10**20, 10**20 + 1)) == orbit_size((Fraction(10**20), Fraction(10**20 + 1)))


@pytest.mark.parametrize(
    "lam",
    [
        (3.0000000005, 0.33333333327777775),
        (complex(2.0000000005, 0.5), 1 / complex(2.0000000005, 0.5)),
    ],
)
def test_float_orbit_not_split_by_rounding(lam):
    # (l, 1/l) has a stabiliser of order 2, so its orbit has 120 / 2 = 60
    # points; some of its images straddle a 9-decimal rounding boundary,
    # where rounded keys count 76 and 68
    assert orbit_size(lam) == 60 == exhaustive_orbit_size(permutation_images(lam), lam)


GENERIC7 = (Fraction(3), Fraction(5), Fraction(7), Fraction(11), Fraction(13))
GENERIC8 = GENERIC7 + (Fraction(17),)


@pytest.mark.parametrize(
    "lam, sigma",
    [(GENERIC7, (4, 1, 6, 2, 8, 3, 7, 5)), (GENERIC8, (4, 9, 1, 6, 2, 8, 3, 7, 5))],
    ids=["n7", "n8"],
)
def test_orbits_pinned_at_n7_and_n8(lam, sigma):
    n = len(lam) + 2
    assert orbit_size(lam) == math.factorial(n + 1)  # 40,320 and 362,880
    delta = theta(sigma, lam)
    ok, witness = same_orbit(lam, delta)
    assert ok and theta(witness, lam) == delta
    # a generic lambda has a trivial stabiliser, so the witness is sigma itself
    assert witness == sigma
    other = tuple(v + 1 for v in lam[:-1]) + (Fraction(-1, 2),)
    assert j_invariants(other) != j_invariants(lam)
    assert same_orbit(lam, other) == (False, None)


small_lambda = st.integers(2, 4).flatmap(
    lambda count: st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(lambda v: v not in (0, 1)),
        min_size=count, max_size=count, unique=True,
    )
).map(tuple)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(small_lambda, st.data())
def test_theta_is_a_group_action_and_same_orbit_finds_witness(lam, data):
    n = len(lam) + 2
    sigma = tuple(data.draw(st.permutations(range(1, n + 2))))
    tau = tuple(data.draw(st.permutations(range(1, n + 2))))
    assert theta(identity_permutation(n), lam) == lam
    assert theta(compose_permutations(sigma, tau), lam) == theta(sigma, theta(tau, lam))
    delta = theta(sigma, lam)
    ok, witness = same_orbit(lam, delta)
    assert ok and theta(witness, lam) == delta
