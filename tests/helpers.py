"""Small reference constructions that only the tests need."""

import cmath
import math
from collections import Counter
from itertools import combinations, permutations

from gfcurves.gonal import evaluate_slope
from gfcurves.groups import CurveType, GroupElement, standard_generators
from gfcurves.hyperelliptic import case3_coupling
from gfcurves.moduli import cone_points, theta
from gfcurves.riemann_sphere import INF, moebius_from_three_points, sphere_close
from gfcurves.verify import FiberPoint


def elements_with_fixed_points(ct: CurveType) -> list[GroupElement]:
    """All nonidentity elements with fixed points: the a_j^c, (n+1)(p-1) many."""
    return [g**c for g in standard_generators(ct) for c in range(1, ct.p)]


def case3_quartic_map_branch_values(lam3):
    """Branch values of Q2(x) = alpha (x^2 + x^-2) + beta: (INF, M(2), M(-2))."""
    alpha, beta = case3_coupling(lam3)
    return (INF, 2 * alpha + beta, -2 * alpha + beta)


def rhs_value(model, exponents, t1):
    """Evaluate prod_j t_j(t_1)^{l_j} of a CyclicGonalModel at a numeric t_1."""
    value = 1
    for l, slope in zip(exponents, model.slopes):
        if l:
            value = value * evaluate_slope(slope, t1) ** l
    return value


def apply_exponents(point: FiberPoint, exponents) -> FiberPoint:
    """Act on a fiber point by the diagonal element with the given exponents."""
    p = point.curve_type.p
    zeta = cmath.exp(2j * math.pi / p)
    new_x = tuple(xi * zeta ** (e % p) for xi, e in zip(point.x, exponents))
    return FiberPoint(point.curve_type, point.lam, point.t1, new_x)


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 2))


def compose_permutations(sigma, tau) -> tuple[int, ...]:
    """(sigma o tau)(j) = sigma(tau(j)); one-line notation of images."""
    return tuple(sigma[tau[j - 1] - 1] for j in range(1, len(sigma) + 1))


def permutation_images(lam) -> list:
    """(sigma, theta(sigma, lam)) for all (n+1)! permutations, in lexicographic order."""
    return [(sigma, theta(sigma, lam)) for sigma in permutations(range(1, len(lam) + 4))]


def exhaustive_same_orbit(images, delta, tol: float = 1e-9):
    """Reference scan: the first permutation of permutation_images(lam) that
    maps lam to delta position by position."""
    for sigma, image in images:
        if all(sphere_close(a, b, tol) for a, b in zip(image, delta)):
            return True, sigma
    return False, None


def exhaustive_orbit_size(images, lam, tol: float = 1e-9) -> int:
    """Reference orbit size from permutation_images(lam): the distinct images
    for exact inputs; for floating-point ones (n+1)! over the stabiliser, the
    permutations whose image matches lam position by position within tol."""
    if all(not isinstance(v, (float, complex)) for v in lam):
        return len({image for _, image in images})
    stabiliser = sum(
        all(sphere_close(a, b, tol) for a, b in zip(image, lam)) for _, image in images
    )
    return len(images) // stabiliser


def j_invariants(lam) -> Counter:
    """Multiset of the j-invariants of all four-point subsets of the cone
    points; equal on every orbit, so a difference certifies inequivalence."""
    out = Counter()
    for a, b, c, d in combinations(cone_points(lam), 4):
        x = moebius_from_three_points(a, b, c)(d)
        out[256 * (x * x - x + 1) ** 3 / (x * x * (x - 1) ** 2)] += 1
    return out
