"""Independent numeric oracles for models and curves, and the exact
certificate of each quotient model.

Points on the fiber-product curve are sampled directly from the linear
substitutions t_j(t_1) by choosing p-th roots; their residuals in the
defining equations, which read lambda and not the slope table, are the
sampled check of that table.  A model s_k^p = prod_j t_j(t_1)^(e_jk) reads
its right-hand sides off the same table, its Lambda's, and is settled
exactly: its exponent vectors must span K^perp over F_p, so that it
presents S/K and not a quotient by a larger group.  The fiber structure of
the hyperelliptic coverings is checked numerically.
"""

from __future__ import annotations

import cmath
import math
import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from operator import attrgetter, mul, neg

from .errors import DomainError, Frozen, _set
from .gonal import CyclicGonalModel, evaluate_slope, slope_table
from .groups import CurveType, rref_mod_p
from .hyperelliptic import (
    CaseLabel,
    CurveConstruction,
    evaluate_case3_map,
    evaluate_case5ii_map,
)
from .moduli import valid_lambda
from .riemann_sphere import (
    INF,
    Moebius,
    csqrt,
    cnroot,
    json_number,
    sphere_close,
)

CONSTRUCTION_TOL = 1e-10
CHECK_TOL = 1e-9


class CheckReport(Frozen):
    """One named check: its worst residual over its samples and its verdict."""

    __slots__ = ("check", "max_residual", "samples", "passed")

    def __init__(self, check: str, max_residual: float, samples: int, passed: bool):
        _set(self, "check", check)
        _set(self, "max_residual", max_residual)
        _set(self, "samples", samples)
        _set(self, "passed", passed)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "max_residual": json_number(self.max_residual),
            "samples": self.samples,
            "pass": self.passed,
        }


class KummerCertificate(Frozen):
    """Exact test that a model's equations present S/K.

    C(S) = C(t_1)(x_1, ..., x_n) is a Kummer extension with group H, where
    x_j^p = t_j(t_1), and the monomials with exponent lattice L generate the
    fixed field of L^perp.  So the equations s^p = prod_j t_j(t_1)^(e_j),
    whose t_j(t_1) are the curve's, present S/K exactly when their exponent
    vectors mod p lie in K^perp and span it: each pairs to 0 with every row
    of K, and they have rank n - rank K.  ``witness`` names the first vector
    that pairs nonzero.
    """

    __slots__ = ("rank", "expected_rank", "witness")

    def __init__(self, rank: int, expected_rank: int, witness: str = ""):
        _set(self, "rank", rank)
        _set(self, "expected_rank", expected_rank)
        _set(self, "witness", witness)

    @property
    def passed(self) -> bool:
        return not self.witness and self.rank == self.expected_rank

    def to_json(self) -> dict:
        return {
            "check": "kummer",
            "rank": self.rank,
            "expected_rank": self.expected_rank,
            "pass": self.passed,
            **({"detail": self.witness} if self.witness else {}),
        }


def kummer_certificate(model: CyclicGonalModel) -> KummerCertificate:
    """Certify exactly that the model presents S/K: its lattice is K^perp
    over F_p.  Its t_j(t_1) are its Lambda's, which the sampled fiber
    equations check."""
    p, K = model.p, model.subgroup
    witness = next(
        (
            f"exponents={list(vec)}, element={list(row)}"
            for vec in model.lattice_basis
            for row in K.basis
            if sum(map(mul, vec, row)) % p
        ),
        "",
    )
    return KummerCertificate(_rank_mod_p(model.lattice_basis, p), model.curve_type.n - K.rank, witness)


def _rank_mod_p(rows, p: int) -> int:
    """The rank of the rows over F_p: their count when their leading columns
    mod p are distinct (such rows are independent, as an echelon form's
    are), else the RREF's.  A built model's lattice is an RREF's rows."""
    leads = set()  # a zero row adds none
    for row in rows:
        for j, x in enumerate(row):
            if x % p:
                leads.add(j)
                break
    if len(leads) == len(rows):
        return len(rows)
    return len(rref_mod_p(rows, p)[0])


class VerificationReport(Frozen):
    """The checks of one model or curve, and a model's Kummer certificate."""

    __slots__ = ("checks", "certificate")

    def __init__(self, checks: Iterable[CheckReport] = (), certificate: KummerCertificate | None = None):
        _set(self, "checks", tuple(checks))
        _set(self, "certificate", certificate)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and (
            self.certificate is None or self.certificate.passed
        )

    @property
    def max_residual(self) -> float:
        return max((c.max_residual for c in self.checks), default=0.0)

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "max_residual": json_number(self.max_residual),
            "checks": [c.to_json() for c in self.checks],
            **({"certificate": self.certificate.to_json()} if self.certificate is not None else {}),
        }


def _rel(diff: float, *magnitudes: float) -> float:
    scale = max(1.0, *(abs(m) for m in magnitudes)) if magnitudes else 1.0
    return diff / scale


# -- fiber sampling -------------------------------------------------------------


class FiberPoint(Frozen):
    """Affine curve point: coordinates x_1..x_{n+1} with x_{n+1} = 1."""

    __slots__ = ("curve_type", "lam", "t1", "x")

    def __init__(self, curve_type: CurveType, lam: tuple, t1: complex, x: tuple):
        _set(self, "curve_type", curve_type)
        _set(self, "lam", lam)
        _set(self, "t1", t1)
        _set(self, "x", x)


def branch_t1_values(ct: CurveType, lam) -> list[complex]:
    """Finite t_1 values over the cone points (where some t_j vanishes)."""
    return _branch_values(slope_table(ct, lam))


def _branch_values(slopes) -> list[complex]:
    return [0j] + [complex(-c0) / complex(c1) for c0, c1 in slopes[1:]]


def sample_fiber(ct: CurveType, lam, t1, root_choice) -> FiberPoint:
    """Point of the affine curve over t_1 with prescribed p-th root branches,
    from the slope table of lam; ``fiber_equation_residuals`` checks it
    against the defining equations."""
    lam = valid_lambda(lam, ct.n)
    if len(root_choice) != ct.n:
        raise DomainError(f"root_choice needs {ct.n} entries")
    t1 = complex(t1)
    xs = []
    for slope, k in zip(lam.slopes, root_choice):
        tj = evaluate_slope(slope, t1)
        if abs(tj) < 1e-12:
            raise DomainError(f"t_1 = {t1} is (numerically) a branch point")
        xs.append(cnroot(tj, ct.p, int(k) % ct.p))
    xs.append(1 + 0j)
    return FiberPoint(ct, lam, t1, tuple(xs))


def fiber_equation_residuals(point: FiberPoint) -> list[float]:
    """Relative residuals of the n-1 defining equations at the point."""
    ct = point.curve_type
    p = ct.p
    xp = [xi**p for xi in point.x]
    residuals = []
    eqs = [(1, xp[0], xp[1], xp[2])]
    for j, lv in enumerate(point.lam):
        eqs.append((complex(lv), xp[0], xp[1], xp[j + 3]))
    for coeff, a, b, c in eqs:
        value = coeff * a + b + c
        residuals.append(_rel(abs(value), abs(coeff * a), abs(b), abs(c)))
    return residuals


def _draw_t1(branches, rng: random.Random) -> complex:
    for _ in range(1000):
        radius = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        t1 = radius * cmath.exp(1j * angle)
        if all(abs(t1 - b) > 1e-3 for b in branches):
            return t1
    raise DomainError("could not sample t_1 away from branch points")


def random_t1(ct: CurveType, lam, rng: random.Random) -> complex:
    """Sample t_1 on the annulus 0.3 <= |t_1| <= 3 away from branch values."""
    return _draw_t1(branch_t1_values(ct, lam), rng)


def sample_points(ct: CurveType, lam, samples: int, seed: int) -> list[FiberPoint]:
    """``samples`` fiber points drawn from ``random.Random(seed)``; lam is
    checked once for all of them."""
    rng = random.Random(seed)
    lam = valid_lambda(lam, ct.n)
    branches = _branch_values(lam.slopes)
    points = []
    for _ in range(samples):
        t1 = _draw_t1(branches, rng)
        root_choice = [rng.randrange(ct.p) for _ in range(ct.n)]
        points.append(sample_fiber(ct, lam, t1, root_choice))
    return points


def verify_quotient_model(
    models: Iterable[CyclicGonalModel],
    samples: int = 100,
    seed: int = 0,
) -> list[VerificationReport]:
    """Report the sampled fiber residuals and the Kummer certificate of
    quotient models.

    All models must share one curve type and lambda.  When the first model
    arrives, the call draws ``samples`` fiber points from
    ``random.Random(seed)`` at its lambda.  Each report, in input order,
    holds the call's one check of the points' worst residual in the defining
    equations, which fails when the slope table of lambda does not solve
    them, and its certificate checks exactly that the model's lattice is
    K^perp.
    """
    if samples < 1:
        raise DomainError(f"samples = {samples} must be at least 1")
    reports = []
    for model in models:
        if not reports:
            ct, lam = model.curve_type, model.lam
            max_fiber = max(max(fiber_equation_residuals(pt)) for pt in sample_points(ct, lam, samples, seed))
            fiber = (CheckReport("fiber_residuals", max_fiber, samples, max_fiber <= CONSTRUCTION_TOL),)
        elif model.curve_type != ct or model.lam != lam:
            raise DomainError("models of one verification call must share curve type and lambda")
        reports.append(VerificationReport(fiber, kummer_certificate(model)))
    return reports


# -- hyperelliptic curve checks --------------------------------------------------


def _on_sphere(z):
    """z as a complex number, or INF for any infinite z."""
    z = complex(z)
    return INF if cmath.isinf(z) else z


def _sorted_finite(points):
    """The finite points without a NaN part (sphere_close finds those close to
    no point), sorted by real part, and their real parts."""
    finite = sorted((z for z in points if z is not INF and not cmath.isnan(z)), key=attrgetter("real"))
    return finite, [z.real for z in finite]


def _window(point: complex, tol: float) -> float:
    """Half-width of a square about a finite point that holds every point
    sphere_close(., point, tol) accepts.  A close x has |x - point| at most
    tol max(1, |point|) / (1 - tol): when |x| is the larger modulus,
    |x - point| <= tol |x| <= tol (|point| + |x - point|).  The factor 4
    covers the rounding on both sides; from tol = 1/2 on, it is the plane."""
    if tol >= 0.5:
        return math.inf
    return 4 * tol * max(1.0, abs(point)) / (1 - tol)


def _candidates(point, finite, keys, tol: float, start: int = 0):
    """The points of the sorted ``finite``, from index ``start`` on, that may
    be sphere_close to ``point``: those in its _window's square or, for INF,
    those of modulus over 1/(2 tol) (sphere_close accepts only moduli over
    1/tol)."""
    if point is INF:
        return [z for z in finite[start:] if abs(z) > 0.5 / tol]
    if cmath.isnan(point):
        return []
    w = _window(point, tol)
    lo = max(start, bisect_left(keys, point.real - w))
    return [z for z in finite[lo : bisect_right(keys, point.real + w)] if abs(z.imag - point.imag) <= w]


def _fiber_check(points, roots, mapping, expected_fiber: int, tol: float) -> CheckReport:
    """Each target point must be hit by exactly expected_fiber roots' images.
    The images are made complex and sorted once; a target's hits are its
    _candidates that sphere_close accepts, and its INF images, which one
    sphere_close call decides together."""
    max_residual = 0.0
    ok = True
    assigned = 0
    images = [_on_sphere(mapping(root)) for root in roots]
    infinite = images.count(INF)
    finite, keys = _sorted_finite(images)
    for target in map(_on_sphere, points):
        hits = infinite if infinite and sphere_close(INF, target, tol) else 0
        for image in _candidates(target, finite, keys, tol):
            if sphere_close(image, target, tol):
                hits += 1
                if target is not INF:
                    max_residual = max(max_residual, _rel(abs(image - target), abs(target)))
        if hits != expected_fiber:
            ok = False
        assigned += hits
    if assigned != len(roots):
        ok = False
    return CheckReport("branch_fibers", max_residual, len(roots), ok)


def _deck_check(roots, transforms, tol: float) -> CheckReport:
    """The root multiset must be invariant under each deck transformation, a
    map of the sphere.  An image's distance to the roots is the least of its
    distances to each root: 0 from INF to INF, infinite between INF and a
    finite point, and the complex distance otherwise, where a NaN distance
    is no distance, so a NaN image is infinitely far and fails.  The nearest
    finite root is searched outward from the image's place in the roots
    sorted by real part."""
    ok = True
    max_residual = 0.0
    values = [_on_sphere(r) for r in roots]
    finite, keys = _sorted_finite(values)
    has_inf = INF in values
    for transform in transforms:
        for root in roots:
            image = _on_sphere(transform(root))
            if image is INF:
                best = 0.0 if has_inf else math.inf
            else:
                best = _nearest(image, finite, keys)
            if not best <= tol * 10:
                ok = False
            if best < math.inf:
                max_residual = max(max_residual, best)
    return CheckReport("deck_symmetry", max_residual, len(roots), ok)


def _nearest(image: complex, finite, keys) -> float:
    """The least distance from ``image`` to the sorted ``finite``, infinite
    when no distance is a number, searched outward from its place: a point
    whose real part is the best distance or more away cannot be nearer, nor
    any beyond it."""
    best = math.inf
    x = image.real
    start = bisect_left(keys, x)
    for j in range(start, len(keys)):
        if keys[j] - x >= best:
            break
        d = abs(image - finite[j])
        if d < best:
            best = d
    for j in range(start - 1, -1, -1):
        if x - keys[j] >= best:
            break
        d = abs(image - finite[j])
        if d < best:
            best = d
    return best


def _distinctness(roots, tol: float = 1e-8) -> CheckReport:
    """No two roots may be sphere_close.  Each finite root is compared only
    with its _candidates that follow it in the sort by real part, and INF
    with its _candidates."""
    points = [_on_sphere(r) for r in roots]
    finite, keys = _sorted_finite(points)
    infinite = points.count(INF)
    ok = not (
        infinite > 1
        or infinite and any(sphere_close(INF, z, tol) for z in _candidates(INF, finite, keys, tol))
        or any(
            sphere_close(a, b, tol)
            for i, a in enumerate(finite)
            for b in _candidates(a, finite, keys, tol, i + 1)
        )
    )
    return CheckReport("roots_distinct", 0.0, len(roots), ok)


def _invert(z):
    """z -> 1/z on the sphere: 0 and INF swap (1/INF is 0.0)."""
    return INF if z == 0 else 1 / z


def _complex_moebius(m: Moebius):
    """m at complex points, its coefficients made complex once: Fraction op
    complex computes complex(a) op z, so each finite image is m's to the
    bit.  INF keeps m's own image."""
    a, b, c, d = map(complex, (m.a, m.b, m.c, m.d))
    at_inf = m(INF)

    def image(z: complex):
        if cmath.isinf(z):
            return at_inf
        den = c * z + d
        return INF if den == 0 else (a * z + b) / den

    return image


def verify_hyperelliptic(construction: CurveConstruction, tol: float = CHECK_TOL) -> VerificationReport:
    """Distinct roots, branch-fiber structure, and deck symmetry of a curve.
    The root count needs no check: ``HyperellipticCurve`` refuses any count
    but 2g + 2."""
    curve = construction.curve
    roots = curve.roots
    checks = [_distinctness(roots)]
    label = construction.label
    details = construction.details
    if label == CaseLabel.CASE2:
        w_map = _complex_moebius(details["w_map"])
        checks.append(
            _fiber_check(
                details["kept_points"],
                roots,
                lambda z: w_map(complex(z) ** 2),
                2,
                tol,
            )
        )
        checks.append(_deck_check(roots, [neg], tol))
    elif label == CaseLabel.CASE4:
        T_inv = _complex_moebius(details["normalizer"].inverse())

        def covering(z):
            zc = complex(z)
            if zc == 0:
                return T_inv(INF)
            u = ((1 + zc * zc) / (2 * zc)) ** 2
            return T_inv(u)

        checks.append(_fiber_check(details["big_points"], roots, covering, 4, tol))
        checks.append(_deck_check(roots, [neg, _invert], tol))
    elif label == CaseLabel.CASE3:
        alpha, beta = details["alpha"], details["beta"]
        l1, l2, l3 = details["lam_normalized"]
        sq = csqrt(l1)
        checks.append(
            _fiber_check(
                (2 * sq, -2 * sq),
                roots,
                lambda z: evaluate_case3_map(alpha, beta, z),
                4,
                tol,
            )
        )
        branch_ok = all(
            sphere_close(evaluate_case3_map(alpha, beta, x), v, tol)
            for x, v in ((INF, INF), (1, 1 + l1), (1j, l2 + l1 / l2))
        )
        checks.append(CheckReport("quartic_branch_values", 0.0, 3, branch_ok))
        checks.append(_deck_check(roots, [neg, _invert], tol))
    elif label in (CaseLabel.CASE5I, CaseLabel.CASE5II):
        p = construction.curve_type.p
        if label == CaseLabel.CASE5I:
            finite = curve.finite_roots()
            power_ok = all(sphere_close(complex(r) ** p, 1, tol) for r in finite) and len(finite) == p
            checks.append(CheckReport("unity_roots", 0.0, len(finite), power_ok))
        else:
            alpha_p, sq = details["alpha_p"], details["sqrt_lambda1"]
            checks.append(_fiber_check((1, alpha_p), roots, lambda z: complex(z) ** p, p, tol))
            lam1 = construction.lam[0]
            signature_ok = all(
                sphere_close(evaluate_case5ii_map(lam1, z), v, tol)
                for z, v in (
                    (1, 0),
                    (lam1, 0),
                    (0, INF),
                    (INF, INF),
                    (sq, 1),
                    (-sq, alpha_p),
                )
            )
            checks.append(CheckReport("involution_signature", 0.0, 6, signature_ok))
        zeta = cmath.exp(2j * math.pi / p)
        checks.append(_deck_check(roots, [lambda z: zeta * z], tol))
    return VerificationReport(checks)
