"""Parameter domain of cone-point tuples and its finite symmetry group.

A curve of type (p, n) is pinned down by lambda = (lambda_1, ..., lambda_{n-2})
with the cone points at (inf, 0, 1, lambda_1, ..., lambda_{n-2}).  Relabeling
the cone points by a permutation and renormalizing the first three back to
(inf, 0, 1) with a Moebius map acts on lambda; two tuples give conformally
equivalent curves iff they lie in the same orbit of that action.
"""

from __future__ import annotations

import cmath
import math
from itertools import permutations

from .errors import DomainError, ResourceLimitError
from .riemann_sphere import INF, Moebius, moebius_from_three_points, sphere_close

ORBIT_MAX_N = 8


def validate_lambda(lam, n: int, tol: float = 0.0):
    """Check membership in V_n: entries avoid 0 and 1 and are pairwise distinct."""
    lam = tuple(lam)
    if len(lam) != n - 2:
        raise DomainError(f"expected {n - 2} lambda values for n = {n}, got {len(lam)}")
    for v in lam:
        if isinstance(v, (float, complex)) and not cmath.isfinite(v):
            raise DomainError(f"lambda value {v} must be finite")
        if tol > 0:
            if abs(complex(v)) <= tol or abs(complex(v) - 1) <= tol:
                raise DomainError(f"lambda value {v} too close to 0 or 1")
        elif v == 0 or v == 1:
            raise DomainError(f"lambda value {v} must avoid 0 and 1")
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            if tol > 0:
                if abs(complex(lam[i]) - complex(lam[j])) <= tol:
                    raise DomainError("lambda values must be pairwise distinct")
            elif lam[i] == lam[j]:
                raise DomainError("lambda values must be pairwise distinct")
    return lam


def cone_points(lam) -> list:
    """The ordered cone points p_1 = inf, p_2 = 0, p_3 = 1, p_4 = lambda_1, ..."""
    return [INF, 0, 1] + list(lam)


def map_b(lam):
    """(lambda_1, ..., lambda_{n-2}) -> (1/lambda_1, ..., 1/lambda_{n-2})."""
    n = len(lam) + 2
    lam = validate_lambda(lam, n)
    image = tuple(1 / v for v in lam)
    return validate_lambda(image, n)


def map_t(lam):
    """Cycle action: last cone point to inf, inf to 0, 0 to 1."""
    n = len(lam) + 2
    lam = validate_lambda(lam, n)
    last = lam[-1]
    if last == 1:
        raise DomainError("lambda_{n-2} = 1 is outside the domain")
    image = [last / (last - 1)]
    for v in lam[:-1]:
        if last == v:
            raise DomainError("lambda values must be pairwise distinct")
        image.append(last / (last - v))
    return validate_lambda(tuple(image), n)


def invert_permutation(sigma) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for j, image in enumerate(sigma, start=1):
        inv[image - 1] = j
    return tuple(inv)


def renormalizing_moebius(sigma, lam) -> Moebius:
    """Moebius map sending p_{sigma^-1(1,2,3)} to (inf, 0, 1)."""
    pts = cone_points(lam)
    inv = invert_permutation(sigma)
    return moebius_from_three_points(
        pts[inv[0] - 1], pts[inv[1] - 1], pts[inv[2] - 1]
    )


def theta(sigma, lam):
    """Action of a cone-point permutation on lambda tuples."""
    n = len(lam) + 2
    lam = validate_lambda(lam, n)
    if len(sigma) != n + 1 or sorted(sigma) != list(range(1, n + 2)):
        raise DomainError(f"sigma must be a permutation of 1..{n + 1}")
    pts = cone_points(lam)
    inv = invert_permutation(sigma)
    mob = renormalizing_moebius(sigma, lam)
    return tuple(mob(pts[inv[j - 1] - 1]) for j in range(4, n + 2))


def theta_orbit(lam, tol: float = 1e-9, exact: bool | None = None):
    """All distinct images of lambda under the full permutation action.

    Exact inputs (ints/Fractions) are deduplicated exactly; floating-point
    inputs fall back to a rounded-key grid at the given tolerance, which can
    over-split values within one grid cell of each other.
    """
    n = len(lam) + 2
    lam = validate_lambda(lam, n)
    if n > ORBIT_MAX_N:
        raise ResourceLimitError(f"orbit enumeration capped at n = {ORBIT_MAX_N}")
    if exact is None:
        exact = all(not isinstance(v, (float, complex)) for v in lam)
    digits = max(1, -int(math.floor(math.log10(tol))))
    images = []
    seen = set()
    for sigma in permutations(range(1, n + 2)):
        image = theta(sigma, lam)
        if exact:
            key = image
        else:
            key = tuple(
                (round(complex(v).real, digits), round(complex(v).imag, digits))
                for v in image
            )
        if key not in seen:
            seen.add(key)
            images.append(image)
    return images


def same_orbit(lam, delta, tol: float = 1e-9):
    """Exhaustive orbit-equivalence test; returns (verdict, witness or None)."""
    n = len(lam) + 2
    lam = validate_lambda(lam, n)
    delta = validate_lambda(delta, n)
    if len(delta) != len(lam):
        raise DomainError("tuples must have the same length")
    if n > ORBIT_MAX_N:
        raise ResourceLimitError(f"orbit search capped at n = {ORBIT_MAX_N}")
    for sigma in permutations(range(1, n + 2)):
        image = theta(sigma, lam)
        if all(sphere_close(a, b, tol) for a, b in zip(image, delta)):
            return True, sigma
    return False, None
