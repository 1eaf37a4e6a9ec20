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
from .riemann_sphere import (
    INF,
    Moebius,
    as_exact,
    moebius_from_three_points,
    multisets_close,
    sphere_close,
)

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


def _normalised_triples(lam):
    """Every ordered triple of cone points with the images of the other points.

    Yields ((i, j, k), rest, images): 0-based indices into cone_points(lam),
    the remaining indices in increasing order, and their images under the
    Moebius map sending p_i, p_j, p_k to (inf, 0, 1).  theta(sigma, lam) is
    an ordering of the images for the triple sigma^-1(1, 2, 3), computed by
    the same map, so every question about the orbit is one about these
    (n+1) n (n-1) image lists.
    """
    pts = cone_points(lam)
    indices = range(len(pts))
    for triple in permutations(indices, 3):
        mob = moebius_from_three_points(*(pts[t] for t in triple))
        rest = [x for x in indices if x not in triple]
        yield triple, rest, [mob(pts[x]) for x in rest]


def orbit_size(lam, tol: float = 1e-9) -> int:
    """Number of distinct images of lambda under the permutation action.

    A relabeling is fixed by the triple it sends to (inf, 0, 1) and by the
    order of the other n - 2 points, whose images are pairwise distinct, so
    each distinct image set stands for (n-2)! tuples of the orbit.  Exact
    inputs (ints/Fractions) compare image sets exactly; floating-point inputs
    merge image sets that multisets_close matches within tol.
    """
    n = len(lam) + 2
    lam = validate_lambda(lam, n)
    if all(not isinstance(v, (float, complex)) for v in lam):
        triples = _normalised_triples(tuple(as_exact(v) for v in lam))
        return len({frozenset(images) for _, _, images in triples}) * math.factorial(n - 2)
    classes = []  # (images, sum of images, sum of moduli) per distinct image set
    for _, _, images in _normalised_triples(lam):
        total = sum(complex(v) for v in images)
        size = sum(abs(complex(v)) for v in images)
        for rep, rep_total, rep_size in classes:
            # Matched points differ by at most tol * (1 + |x| + |y|), so do
            # their sums; an inf or nan sum never skips the full match.
            if abs(total - rep_total) > tol * (n - 2 + size + rep_size):
                continue
            if multisets_close(images, rep, tol):
                break
        else:
            classes.append((images, total, size))
    return len(classes) * math.factorial(n - 2)


def _first_assignment(options):
    """Lexicographically first choice of distinct entries, one from each of the
    ascending option lists, or None."""
    chosen: list[int] = []

    def extend(k: int) -> bool:
        if k == len(options):
            return True
        for m in options[k]:
            if m not in chosen:
                chosen.append(m)
                if extend(k + 1):
                    return True
                chosen.pop()
        return False

    return chosen if extend(0) else None


def same_orbit(lam, delta, tol: float = 1e-9):
    """Orbit-equivalence test; returns (verdict, witness or None).

    sigma maps lambda to delta iff, for its triple (i, j, k) = sigma^-1(1, 2, 3),
    the image of every other cone point p_x is sphere_close to entry
    sigma(x) - 3 of delta.  Per triple the first assignment of those entries
    in index order is the smallest such sigma, and the witness is the
    smallest over all triples: the first sigma in lexicographic order, the
    one a scan of all (n+1)! permutations finds.
    """
    n = len(lam) + 2
    lam = validate_lambda(lam, n)
    delta = validate_lambda(delta, n)
    witness = None
    for triple, rest, images in _normalised_triples(lam):
        options = []
        for z in images:
            hits = [m for m, d in enumerate(delta) if sphere_close(z, d, tol)]
            if not hits:
                break
            options.append(hits)
        else:
            positions = _first_assignment(options)
            if positions is None:
                continue
            sigma = [0] * (n + 1)
            for value, x in enumerate(triple, start=1):
                sigma[x] = value
            for x, m in zip(rest, positions):
                sigma[x] = m + 4
            if witness is None or tuple(sigma) < witness:
                witness = tuple(sigma)
    return witness is not None, witness
