"""Independent numeric oracles for models and curves.

Points on the fiber-product curve are sampled directly from the linear
substitutions t_j(t_1) by choosing p-th roots, so the defining equations hold
to roundoff by construction; everything downstream (invariance of monomials,
fiber structure of the hyperelliptic coverings, polynomial identities) is then
an honest numeric check of the emitted data.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, VerificationError
from .gonal import CyclicGonalModel, evaluate_slope, slope_table
from .groups import CurveType
from .hyperelliptic import (
    CaseLabel,
    CurveConstruction,
    evaluate_case3_map,
    evaluate_case5ii_map,
)
from .moduli import validate_lambda
from .riemann_sphere import (
    INF,
    csqrt,
    cnroot,
    is_inf,
    poly_from_roots,
    polys_close,
    sphere_close,
)

CONSTRUCTION_TOL = 1e-10
CHECK_TOL = 1e-9


@dataclass
class CheckReport:
    check: str
    max_residual: float
    samples: int
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "max_residual": self.max_residual,
            "samples": self.samples,
            "pass": self.passed,
            **({"detail": self.detail} if self.detail else {}),
        }


@dataclass
class VerificationReport:
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.max_residual for c in self.checks), default=0.0)

    def add(self, check: CheckReport) -> None:
        self.checks.append(check)

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "max_residual": self.max_residual,
            "checks": [c.to_json() for c in self.checks],
        }

    def require(self, what: str) -> None:
        if not self.passed:
            failing = [c.check for c in self.checks if not c.passed]
            raise VerificationError(f"{what} failed checks: {failing}", report=self)


def _rel(diff: float, *magnitudes: float) -> float:
    scale = max(1.0, *(abs(m) for m in magnitudes)) if magnitudes else 1.0
    return diff / scale


# -- fiber sampling -------------------------------------------------------------


@dataclass(frozen=True)
class FiberPoint:
    """Affine curve point: coordinates x_1..x_{n+1} with x_{n+1} = 1."""

    curve_type: CurveType
    lam: tuple
    t1: complex
    x: tuple

    def monomial(self, exponents) -> complex:
        value = 1 + 0j
        for e, xi in zip(exponents, self.x):
            if e:
                value *= xi**e
        return value

    def apply_exponents(self, exponents) -> "FiberPoint":
        """Act by the diagonal element with the given canonical exponents."""
        p = self.curve_type.p
        zeta = cmath.exp(2j * math.pi / p)
        new_x = tuple(xi * zeta ** (e % p) for xi, e in zip(self.x, exponents))
        return FiberPoint(self.curve_type, self.lam, self.t1, new_x)


def branch_t1_values(ct: CurveType, lam) -> list[complex]:
    """Finite t_1 values over the cone points (where some t_j vanishes)."""
    out = [0j]
    for c0, c1 in slope_table(ct, lam)[1:]:
        out.append(complex(-c0) / complex(c1))
    return out


def base_projection(point: FiberPoint):
    """Image of the point on the base sphere: -(x_2/x_1)^p.

    Related to the t_1 chart by a Moebius map; with l denoting the last
    lambda value (1 when n = 2) it equals l + 1/t_1.
    """
    p = point.curve_type.p
    if point.x[0] == 0:
        return INF
    return -((point.x[1] / point.x[0]) ** p)


def sample_fiber(ct: CurveType, lam, t1, root_choice) -> FiberPoint:
    """Point of the affine curve over t_1 with prescribed p-th root branches."""
    lam = validate_lambda(lam, ct.n)
    if len(root_choice) != ct.n:
        raise DomainError(f"root_choice needs {ct.n} entries")
    slopes = slope_table(ct, lam)
    t1 = complex(t1)
    xs = []
    for slope, k in zip(slopes, root_choice):
        tj = complex(evaluate_slope(slope, t1))
        if abs(tj) < 1e-12:
            raise DomainError(f"t_1 = {t1} is (numerically) a branch point")
        xs.append(cnroot(tj, ct.p, int(k) % ct.p))
    xs.append(1 + 0j)
    point = FiberPoint(ct, tuple(lam), t1, tuple(xs))
    residuals = fiber_equation_residuals(point)
    if max(residuals) > CONSTRUCTION_TOL:
        raise VerificationError(
            f"fiber sample residual {max(residuals)} exceeds {CONSTRUCTION_TOL}"
        )
    return point


def fiber_equation_residuals(point: FiberPoint) -> list[float]:
    """Relative residuals of the n-1 defining equations at the point."""
    ct = point.curve_type
    p = ct.p
    xp = [xi**p for xi in point.x]
    residuals = []
    eqs = []
    if ct.n == 2:
        eqs.append((1, xp[0], xp[1], xp[2]))
    else:
        eqs.append((1, xp[0], xp[1], xp[2]))
        for j, lv in enumerate(point.lam):
            eqs.append((complex(lv), xp[0], xp[1], xp[j + 3]))
    for coeff, a, b, c in eqs:
        value = coeff * a + b + c
        residuals.append(_rel(abs(value), abs(coeff * a), abs(b), abs(c)))
    return residuals


def random_t1(ct: CurveType, lam, rng: random.Random) -> complex:
    """Sample t_1 on the annulus 0.3 <= |t_1| <= 3 away from branch values."""
    branches = branch_t1_values(ct, lam)
    for _ in range(1000):
        radius = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        t1 = radius * cmath.exp(1j * angle)
        if all(abs(t1 - b) > 1e-3 for b in branches):
            return t1
    raise DomainError("could not sample t_1 away from branch points")


def verify_quotient_model(
    model: CyclicGonalModel,
    samples: int = 100,
    seed: int = 0,
    tol: float = CHECK_TOL,
) -> VerificationReport:
    """Check the power identities and K-invariance of a quotient model."""
    if samples < 1:
        raise DomainError(f"samples = {samples} must be at least 1")
    ct = model.curve_type
    rng = random.Random(seed)
    report = VerificationReport()
    max_fiber = 0.0
    max_power = 0.0
    max_invariance = 0.0
    power_witness = ""
    invariance_witness = ""
    for _ in range(samples):
        t1 = random_t1(ct, model.lam, rng)
        root_choice = [rng.randrange(ct.p) for _ in range(ct.n)]
        point = sample_fiber(ct, model.lam, t1, root_choice)
        max_fiber = max(max_fiber, max(fiber_equation_residuals(point)))
        values = {}
        for vec in model.lattice_basis:
            s = point.monomial(vec)
            values[vec] = s
            rhs = complex(model.rhs_value(vec, t1))
            residual = _rel(abs(s**ct.p - rhs), abs(rhs), abs(s**ct.p))
            max_power = max(max_power, residual)
            if residual > tol and not power_witness:
                power_witness = f"t1={t1}, exponents={list(vec)}"
        for row in model.subgroup.basis:
            moved = point.apply_exponents(row)
            for vec in model.lattice_basis:
                s2 = moved.monomial(vec)
                residual = _rel(abs(s2 - values[vec]), abs(values[vec]), abs(s2))
                max_invariance = max(max_invariance, residual)
                if residual > tol and not invariance_witness:
                    invariance_witness = (
                        f"t1={t1}, exponents={list(vec)}, element={list(row)}"
                    )
    report.add(
        CheckReport("fiber_residuals", max_fiber, samples, max_fiber <= CONSTRUCTION_TOL)
    )
    report.add(
        CheckReport("power_identity", max_power, samples, not power_witness, power_witness)
    )
    report.add(
        CheckReport(
            "k_invariance", max_invariance, samples, not invariance_witness, invariance_witness
        )
    )
    return report


# -- hyperelliptic curve checks --------------------------------------------------


def _fiber_check(points, roots, mapping, expected_fiber: int, tol: float) -> CheckReport:
    """Each target point must be hit by exactly expected_fiber roots."""
    max_residual = 0.0
    ok = True
    assigned = 0
    for target in points:
        hits = 0
        for root in roots:
            image = mapping(root)
            if sphere_close(image, target, tol):
                hits += 1
                if not is_inf(image) and not is_inf(target):
                    max_residual = max(
                        max_residual,
                        _rel(abs(complex(image) - complex(target)), abs(complex(target))),
                    )
        if hits != expected_fiber:
            ok = False
        assigned += hits
    if assigned != len(roots):
        ok = False
    return CheckReport("branch_fibers", max_residual, len(roots), ok)


def _deck_check(roots, transforms, tol: float) -> CheckReport:
    """The root multiset must be invariant under each deck transformation."""
    ok = True
    max_residual = 0.0
    for transform in transforms:
        for root in roots:
            if is_inf(root):
                image = INF
            else:
                image = transform(root)
            best = min(
                (
                    abs(complex(image) - complex(r))
                    if not (is_inf(image) or is_inf(r))
                    else (0.0 if is_inf(image) and is_inf(r) else math.inf)
                )
                for r in roots
            )
            if best > tol * 10:
                ok = False
            if best < math.inf:
                max_residual = max(max_residual, best)
    return CheckReport("deck_symmetry", max_residual, len(roots), ok)


def _distinctness(roots, tol: float = 1e-8) -> CheckReport:
    ok = True
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if sphere_close(roots[i], roots[j], tol):
                ok = False
    return CheckReport("roots_distinct", 0.0, len(roots), ok)


def verify_hyperelliptic(construction: CurveConstruction, tol: float = CHECK_TOL) -> VerificationReport:
    """Root count, branch-fiber structure, and deck symmetry of a curve."""
    report = VerificationReport()
    curve = construction.curve
    roots = curve.roots
    count_ok = len(roots) == 2 * curve.genus + 2
    report.add(CheckReport("root_count", 0.0, len(roots), count_ok))
    report.add(_distinctness(roots))
    label = construction.label
    details = construction.details
    if label == CaseLabel.CASE2:
        w_map = details["w_map"]
        report.add(
            _fiber_check(
                details["kept_points"],
                roots,
                lambda z: w_map(complex(z) ** 2),
                2,
                tol,
            )
        )
        report.add(_deck_check(roots, [lambda z: -z], tol))
    elif label == CaseLabel.CASE4:
        T_inv = details["normalizer"].inverse()

        def covering(z):
            zc = complex(z)
            if zc == 0:
                return T_inv(INF)
            u = ((1 + zc * zc) / (2 * zc)) ** 2
            return T_inv(u)

        report.add(_fiber_check(details["big_points"], roots, covering, 4, tol))
        report.add(_deck_check(roots, [lambda z: -z, lambda z: 1 / z], tol))
    elif label == CaseLabel.CASE3:
        alpha, beta = details["alpha"], details["beta"]
        l1, l2, l3 = details["lam_normalized"]
        sq = csqrt(l1)
        report.add(
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
        report.add(CheckReport("quartic_branch_values", 0.0, 3, branch_ok))
        report.add(_deck_check(roots, [lambda z: -z, lambda z: 1 / z], tol))
    elif label == CaseLabel.CASE5I:
        p = construction.curve_type.p
        finite = curve.finite_roots()
        power_ok = all(
            sphere_close(complex(r) ** p, 1, tol) for r in finite
        ) and len(finite) == p
        report.add(CheckReport("unity_roots", 0.0, len(finite), power_ok))
        zeta = cmath.exp(2j * math.pi / p)
        report.add(_deck_check(roots, [lambda z: zeta * z], tol))
    elif label == CaseLabel.CASE5II:
        p = construction.curve_type.p
        alpha_p = details["alpha_p"]
        report.add(
            _fiber_check((1, alpha_p), roots, lambda z: complex(z) ** p, p, tol)
        )
        lam1 = construction.lam[0]
        sq = details["sqrt_lambda1"]
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
        report.add(CheckReport("involution_signature", 0.0, 6, signature_ok))
        zeta = cmath.exp(2j * math.pi / p)
        report.add(_deck_check(roots, [lambda z: zeta * z], tol))
    return report


# -- probabilistic polynomial identity testing -----------------------------------


def random_rational_lambda(n: int, rng: random.Random, height: int = 9):
    """Random exact-rational tuple in V_n."""
    for _ in range(10000):
        values = []
        for _ in range(n - 2):
            num = rng.randint(-height, height)
            den = rng.randint(1, height)
            values.append(Fraction(num, den))
        try:
            return validate_lambda(tuple(values), n)
        except DomainError:
            continue
    raise DomainError("failed to sample a rational tuple in V_n")


def poly_identity_equal(
    f,
    g,
    n: int,
    samples: int = 5,
    tol: float = CHECK_TOL,
    rng: random.Random | None = None,
    form: str = "roots",
) -> bool:
    """Probabilistic equality of two lambda-parametrized polynomial families.

    f and g map a lambda tuple to either a root multiset (form='roots',
    INF entries allowed) or a monic coefficient vector (form='coeffs');
    equality is monic coefficient-wise agreement at random rational tuples.
    """
    if rng is None:
        rng = random.Random(20240301)
    for _ in range(samples):
        lam = random_rational_lambda(n, rng)
        fv, gv = list(f(lam)), list(g(lam))
        if form == "roots":
            if len(fv) != len(gv):
                return False
            fc, gc = poly_from_roots(fv), poly_from_roots(gv)
        else:
            fc, gc = fv, gv
        if not polys_close(fc, gc, tol):
            return False
    return True
