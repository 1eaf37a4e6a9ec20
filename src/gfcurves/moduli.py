"""Parameter domain of cone-point tuples and its finite symmetry group.

A curve of type (p, n) is pinned down by lambda = (lambda_1, ..., lambda_{n-2})
with the cone points at (inf, 0, 1, lambda_1, ..., lambda_{n-2}).  Relabeling
the cone points by a permutation and renormalizing the first three back to
(inf, 0, 1) with a Moebius map acts on lambda; two tuples give conformally
equivalent curves iff they lie in the same orbit of that action.

theta applies the renormalizing Moebius map itself.  orbit_size and same_orbit
read the orbit off one cross-ratio per ordered triple of cone points, in
homogeneous coordinates: exact lambda stays in Python ints, and no Moebius
map is built.
"""

from __future__ import annotations

import cmath
import math
from itertools import permutations

from .errors import DomainError, ResourceLimitError
from .riemann_sphere import (
    INF,
    Moebius,
    moebius_from_three_points,
    multisets_close,
    sphere_close,
)

ORBIT_MAX_N = 8


class Lambda(tuple):
    """A lambda tuple that validate_lambda has accepted."""

    __slots__ = ()


def validate_lambda(lam, n: int, tol: float = 0.0) -> Lambda:
    """Check membership in V_n: entries avoid 0 and 1 and are pairwise distinct."""
    lam = Lambda(lam)
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
    if tol > 0:
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                if abs(complex(lam[i]) - complex(lam[j])) <= tol:
                    raise DomainError("lambda values must be pairwise distinct")
    # Numeric hashing agrees with == across int, Fraction, float and complex.
    elif len(set(lam)) != len(lam):
        raise DomainError("lambda values must be pairwise distinct")
    return lam


def valid_lambda(lam, n: int) -> Lambda:
    """lam itself when it is a Lambda for this n, else validate_lambda(lam, n).

    Every function that takes lambda starts here, so a tuple is checked once,
    where it enters, and passed on as a Lambda.
    """
    if type(lam) is Lambda and len(lam) == n - 2:
        return lam
    return validate_lambda(lam, n)


def cone_points(lam) -> list:
    """The ordered cone points p_1 = inf, p_2 = 0, p_3 = 1, p_4 = lambda_1, ..."""
    return [INF, 0, 1] + list(lam)


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
    lam = valid_lambda(lam, n)
    if len(sigma) != n + 1 or sorted(sigma) != list(range(1, n + 2)):
        raise DomainError(f"sigma must be a permutation of 1..{n + 1}")
    pts = cone_points(lam)
    inv = invert_permutation(sigma)
    mob = renormalizing_moebius(sigma, lam)
    return tuple(mob(pts[inv[j - 1] - 1]) for j in range(4, n + 2))


def theta_orbit(lam):
    """All distinct images of an exact lambda (ints/Fractions) under the full
    permutation action, in the order a scan of the permutations meets them.

    Floating-point orbits have no exact listing; orbit_size counts them.
    """
    n = len(lam) + 2
    lam = valid_lambda(lam, n)
    if n > ORBIT_MAX_N:
        raise ResourceLimitError(f"orbit enumeration capped at n = {ORBIT_MAX_N}")
    if any(isinstance(v, (float, complex)) for v in lam):
        raise DomainError("theta_orbit lists exact orbits only; use orbit_size for floating-point lambda")
    return list(dict.fromkeys(theta(sigma, lam) for sigma in permutations(range(1, n + 2))))


def _is_exact(lam) -> bool:
    return all(not isinstance(v, (float, complex)) for v in lam)


def _normalised_triples(lam):
    """Every ordered triple of cone points with the images of the other points.

    Yields ((i, j, k), rest, images): 0-based indices into cone_points(lam),
    the remaining indices in increasing order, and their images under the
    Moebius map sending p_i, p_j, p_k to (inf, 0, 1).  theta(sigma, lam) is
    an ordering of the images for the triple sigma^-1(1, 2, 3), so every
    question about the orbit is one about these (n+1) n (n-1) image lists.

    The map is the cross-ratio, taken in homogeneous coordinates: x is (x, 1)
    and inf is (1, 0), and [P, Q] = a_P b_Q - a_Q b_P.  With u = [p_k, p_i]
    and w = [p_k, p_j], the image of p is [p, p_j] u : [p, p_i] w.  Neither
    side is 0 for a p other than p_i, p_j, p_k, so no image is 0 or inf.
    Exact lambda (ints/Fractions) is written in its (numerator, denominator)
    pairs and each image is the reduced int pair (num, den) with den > 0;
    float and complex lambda give the number num / den.
    """
    exact = _is_exact(lam)
    pts = [(1, 0), (0, 1), (1, 1)] + [(v.numerator, v.denominator) if exact else (v, 1) for v in lam]
    indices = range(len(pts))
    for triple in permutations(indices, 3):
        i, j, k = triple
        (ai, bi), (aj, bj), (ak, bk) = pts[i], pts[j], pts[k]
        u = ak * bi - ai * bk
        w = ak * bj - aj * bk
        rest = [x for x in indices if x not in triple]
        images = []
        for x in rest:
            a, b = pts[x]
            num = (a * bj - aj * b) * u
            den = (a * bi - ai * b) * w
            if exact:
                g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
                images.append((num // g, den // g))
            else:
                images.append(num / den)
        yield triple, rest, images


def orbit_size(lam, tol: float = 1e-9) -> int:
    """Number of distinct images of lambda under the permutation action.

    A relabeling is fixed by the triple it sends to (inf, 0, 1) and by the
    order of the other n - 2 points, whose images are pairwise distinct, so
    each distinct image set stands for (n-2)! tuples of the orbit.  Exact
    inputs (ints/Fractions) compare sets of reduced int pairs, which stand
    one to one for the exact images; floating-point inputs merge image sets
    that multisets_close matches within tol.
    """
    n = len(lam) + 2
    lam = valid_lambda(lam, n)
    if _is_exact(lam):
        return len({frozenset(images) for _, _, images in _normalised_triples(lam)}) * math.factorial(n - 2)
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
    lam = valid_lambda(lam, n)
    delta = valid_lambda(delta, n)
    exact = _is_exact(lam)
    targets = [(m, complex(d)) for m, d in enumerate(delta)]
    witness = None
    for triple, rest, images in _normalised_triples(lam):
        options = []
        for z in images:
            # num / den is correctly rounded, as float(Fraction(num, den)) is.
            z = complex(z[0] / z[1]) if exact else complex(z)
            hits = [m for m, d in targets if sphere_close(z, d, tol)]
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
