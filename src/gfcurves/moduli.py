"""Parameter domain of cone-point tuples and its finite symmetry group.

A curve of type (p, n) is pinned down by lambda = (lambda_1, ..., lambda_{n-2})
with the cone points at (inf, 0, 1, lambda_1, ..., lambda_{n-2}).  Relabeling
the cone points by a permutation and renormalizing the first three back to
(inf, 0, 1) with a Moebius map acts on lambda; two tuples give conformally
equivalent curves iff they lie in the same orbit of that action.

theta applies the renormalizing Moebius map itself.  The orbit questions match
the images for each ordered triple of cone points (cross-ratios in homogeneous
coordinates, with no Moebius map built) against a target tuple.  A Moebius map
that fixes three points is the identity, so the triples that match lambda
itself give the stabiliser G_lambda, and orbit_size is (n+1)! / |G_lambda|.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import cached_property
from itertools import islice, permutations

from .errors import DomainError, ResourceLimitError
from .riemann_sphere import INF, moebius_from_three_points, sphere_close

ORBIT_MAX_N = 8  # theta_orbit's cap: it scans all (n+1)! permutations
# Extension steps that one search's assignments may take in all (about a
# microsecond each); images that match several entries can make them factorial.
MATCH_STEPS = 10**5


class Lambda(tuple):
    """A lambda tuple that validate_lambda has accepted.

    Its slope table is built on first use and kept on this object.  Equal
    tuples such as (3,), (3.0,) and (Fraction(3),), or (complex(2, -0.0),)
    and (complex(2, 0.0),), build tables of other number types or zero
    signs, so a table is never shared by value.
    """

    @cached_property
    def slopes(self) -> tuple[tuple[object, object], ...]:
        """Coefficients (c0, c1) of t_j(t_1) = c0 + c1 t_1 for j = 1..n.

        t_1 is the free variable and n = len(lambda) + 2.  The last fiber
        equation reads lam_{n-2} t_1 + t_2 + 1 = 0 (with lam_{n-2} meaning 1
        when n = 2), and the remaining ones eliminate t_3, ..., t_n.
        """
        last = self[-1] if self else 1
        return ((0, 1), (-1, -last)) + tuple((1, last - prev) for prev in ((1,) + self)[:-1])


def validate_lambda(lam, n: int, tol: float = 0.0) -> Lambda:
    """Check membership in V_n: entries avoid 0 and 1 and are pairwise distinct.
    With tol > 0 they must do so by more than tol and lie within 1/tol of 0,
    beyond which sphere_close takes them for inf."""
    lam = Lambda(lam)
    if len(lam) != n - 2:
        raise DomainError(f"expected {n - 2} lambda values for n = {n}, got {len(lam)}")
    for v in lam:
        if isinstance(v, (float, complex)) and not cmath.isfinite(v):
            raise DomainError(f"lambda value {v} must be finite")
        if tol > 0:
            try:
                z = complex(v)
            except OverflowError:  # an exact value beyond the floats
                z = INF
            if abs(z) <= tol or abs(z - 1) <= tol:
                raise DomainError(f"lambda value {v} too close to 0 or 1")
            if abs(z) > 1 / tol:
                raise DomainError(f"lambda value {v} too close to inf")
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


def theta(sigma, lam):
    """Action of a cone-point permutation on lambda tuples: the Moebius map
    sending p_{sigma^-1(1,2,3)} to (inf, 0, 1), applied to p_{sigma^-1(4)},
    ..., p_{sigma^-1(n+1)}."""
    n = len(lam) + 2
    lam = valid_lambda(lam, n)
    if len(sigma) != n + 1 or sorted(sigma) != list(range(1, n + 2)):
        raise DomainError(f"sigma must be a permutation of 1..{n + 1}")
    pts = cone_points(lam)
    moved = [pts[x - 1] for x in invert_permutation(sigma)]
    mob = moebius_from_three_points(*moved[:3])
    return tuple(mob(z) for z in moved[3:])


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
    the remaining indices in increasing order, and a generator of their
    images under the Moebius map sending p_i, p_j, p_k to (inf, 0, 1).
    theta(sigma, lam) is an ordering of the images for the triple
    sigma^-1(1, 2, 3), so every question about the orbit is one about these
    (n+1) n (n-1) image lists.  A search stops at the first image that
    matches nothing, so each image is computed only when it is read.

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
        rest = [x for x in indices if x not in triple]
        yield triple, rest, _images(pts, triple, rest, exact)


def _images(pts, triple, rest, exact):
    """The images of the points ``rest`` for one triple of _normalised_triples."""
    (ai, bi), (aj, bj), (ak, bk) = (pts[t] for t in triple)
    u = ak * bi - ai * bk
    w = ak * bj - aj * bk
    for x in rest:
        a, b = pts[x]
        num = (a * bj - aj * b) * u
        den = (a * bi - ai * b) * w
        if exact:
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            yield num // g, den // g
        else:
            yield num / den


def _assignments(options, steps):
    """Every choice of distinct entries, one from each of the ascending
    option lists, in lexicographic order.  Each extension draws one item
    from ``steps``, an iterator that the whole search shares, and raises
    ResourceLimitError once it is exhausted."""
    chosen: list[int] = []

    def extend(k: int):
        if next(steps, None) is None:
            raise ResourceLimitError(f"orbit matching exceeds the budget of {MATCH_STEPS} assignment steps")
        if k == len(options):
            yield tuple(chosen)
            return
        for m in options[k]:
            if m not in chosen:
                chosen.append(m)
                yield from extend(k + 1)
                chosen.pop()

    return extend(0)


def _matches(n, triples, targets, close, every: bool = False):
    """Per ordered triple (i, j, k) of _normalised_triples, the sigmas
    sending it to (1, 2, 3) with theta(sigma, lam) close to targets entry by
    entry: the assignments, in index order, of entries close to the images.
    The first alone is the smallest such sigma; ``every`` yields them all,
    which differ only where images lie close to several entries."""
    steps = iter(range(MATCH_STEPS))
    for triple, rest, images in triples:
        options = []
        for z in images:
            hits = [m for m, d in enumerate(targets) if close(z, d)]
            if not hits:
                break
            options.append(hits)
        else:
            assignments = _assignments(options, steps)
            if not every:
                assignments = islice(assignments, 1)
            for positions in assignments:
                sigma = [0] * (n + 1)
                for value, x in enumerate(triple, start=1):
                    sigma[x] = value
                for x, m in zip(rest, positions):
                    sigma[x] = m + 4
                yield tuple(sigma)


def _targets(lam, delta, tol: float):
    """The triples of _normalised_triples(lam), the targets that delta's
    entries give and the test that matches an image with a target.  When
    lam and delta are both exact, an image matches a target when it is
    delta's reduced (num, den) pair, by ==.  Otherwise images and targets
    are numbers matched by sphere_close within tol; an exact (num, den)
    image becomes a float once, when it is first matched, and num / den is
    correctly rounded, as float(Fraction(num, den)) is."""
    triples = _normalised_triples(lam)
    if _is_exact(lam):
        if _is_exact(delta):
            return triples, [(v.numerator, v.denominator) for v in delta], operator.eq
        triples = ((triple, rest, (num / den for num, den in images)) for triple, rest, images in triples)
    return triples, [complex(d) for d in delta], lambda z, d: sphere_close(z, d, tol)


def stabiliser(lam, tol: float = 1e-9) -> set[tuple[int, ...]]:
    """G_lambda, the relabelings sigma with theta(sigma, lam) = lam: every
    assignment of each triple whose images match lambda (exact images by
    ==, floating-point ones by sphere_close, where entries within tol of
    each other can be swapped).  Closeness is not transitive, so a matched
    set that is not closed under composition raises DomainError."""
    n = len(lam) + 2
    lam = valid_lambda(lam, n)
    group = set(_matches(n, *_targets(lam, lam, tol), every=True))
    for g in group:
        for h in group:
            if tuple(g[x - 1] for x in h) not in group:
                raise DomainError(f"lambda is too near a degenerate tuple for tol = {tol}: "
                                  "the relabelings that fix it are not a group")
    return group


def orbit_size(lam, tol: float = 1e-9) -> int:
    """Size of the orbit of lambda: (n+1)! / |G_lambda| by orbit-stabiliser."""
    return math.factorial(len(lam) + 3) // len(stabiliser(lam, tol))


def same_orbit(lam, delta, tol: float = 1e-9):
    """Orbit-equivalence test; returns (verdict, witness or None).

    The witness is the smallest sigma with theta(sigma, lam) equal to delta
    entry by entry, over all triples: the first in lexicographic order, the
    one a scan of all (n+1)! permutations finds.  Exact lambda and delta are
    compared exactly; any float or complex entry makes the comparison
    sphere_close within tol.
    """
    n = len(lam) + 2
    lam = valid_lambda(lam, n)
    delta = valid_lambda(delta, n)
    witness = min(_matches(n, *_targets(lam, delta, tol)), default=None)
    return witness is not None, witness
