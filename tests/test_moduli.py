"""The parameter-domain symmetry action and orbit equivalence."""

import random
from fractions import Fraction

import pytest

from gfcurves import DomainError, map_b, map_t, same_orbit, theta, theta_orbit, validate_lambda
from gfcurves.moduli import compose_permutations, identity_permutation, invert_permutation

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
