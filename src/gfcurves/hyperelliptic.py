"""Which free quotients are hyperelliptic, and their explicit equations.

Classification is by the shape of the index partition underlying a freely
acting subgroup K (recovered from K itself: indices i, j share a part iff
a_i a_j^{-1} lies in K) together with, for the three-pair shape at n = 5, a
condition on the cone points.  Each positive case carries a constructive
recipe producing the Weierstrass roots of the quotient curve y^2 = f(x).

Two conventions are pinned here and cross-checked by the fiber oracles in
:mod:`gfcurves.verify` (both directions are regression-tested):

* the quartic-factor parameter of the big-block rank n-3 case is q = T(p_i)
  for the normalizing map T, not its inverse, and
* the affine coupling map of the three-pair case uses the halved constant
  term (1 + l1 + l2 + l3)/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

from .errors import DomainError
from .free_action import allowed_hyperelliptic_ranks, enumerate_free_subgroups, require_free
from .groups import CurveType, Subgroup, reduce_against, standard_generators
from .moduli import cone_points, theta, validate_lambda
from .riemann_sphere import (
    INF,
    Moebius,
    csqrt,
    cnroot,
    is_inf,
    moebius_from_three_points,
    poly_from_roots,
    sphere_close,
)


class CaseLabel(Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"
    CASE3 = "Case3"
    CASE4 = "Case4"
    CASE5I = "Case5i"
    CASE5II = "Case5ii"
    NOT_HYPERELLIPTIC = "NotHyperelliptic"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class HyperellipticCurve:
    """y^2 = prod (x - root); an INF root stands for a dropped factor."""

    genus: int
    roots: tuple

    def __post_init__(self):
        expected = 2 * self.genus + 2
        if len(self.roots) != expected:
            raise DomainError(
                f"genus {self.genus} needs {expected} roots, got {len(self.roots)}"
            )
        if sum(1 for r in self.roots if is_inf(r)) > 1:
            raise DomainError("at most one root may be at infinity")

    def finite_roots(self) -> list:
        return [r for r in self.roots if not is_inf(r)]

    def polynomial_coeffs(self) -> list:
        """Monic coefficients of f, descending; the INF factor is dropped."""
        return poly_from_roots(self.roots)

    def to_json(self) -> dict:
        out = []
        for r in self.roots:
            if is_inf(r):
                out.append("inf")
            else:
                c = complex(r)
                out.append([c.real, c.imag])
        coeffs = [[complex(c).real, complex(c).imag] for c in self.polynomial_coeffs()]
        return {"genus": self.genus, "roots": out, "polynomial_coeffs": coeffs}

    @classmethod
    def from_json(cls, data: dict) -> "HyperellipticCurve":
        roots = tuple(
            INF if r == "inf" else complex(r[0], r[1]) for r in data["roots"]
        )
        return cls(data["genus"], roots)


@dataclass(frozen=True)
class CurveConstruction:
    """A classified subgroup with its curve and oracle-checkable build data."""

    label: CaseLabel
    curve: HyperellipticCurve
    curve_type: CurveType
    lam: tuple
    details: dict


# -- partition shape recovery --------------------------------------------------


@lru_cache(maxsize=None)
def _difference_exponents(ct: CurveType):
    """Canonical exponents of a_i a_j^{-1} for all ordered index pairs."""
    gens = standard_generators(ct)
    table = {}
    for i in range(1, ct.n + 2):
        for j in range(1, ct.n + 2):
            if i != j:
                table[(i, j)] = (gens[i - 1] * gens[j - 1].inverse()).exponents
    return table


def blocks_of(K: Subgroup) -> list[tuple[int, ...]]:
    """Partition of {1, ..., n+1}: i, j share a block iff a_i a_j^{-1} in K."""
    ct = K.curve_type
    diffs = _difference_exponents(ct)
    pivots = K.pivots()
    p = ct.p

    def member(i, j):
        residue = reduce_against(diffs[(i, j)], K.basis, pivots, p)
        return not any(residue)

    indices = list(range(1, ct.n + 2))
    blocks = []
    assigned = set()
    for i in indices:
        if i in assigned:
            continue
        block = [i]
        assigned.add(i)
        for j in indices:
            if j in assigned or j <= i:
                continue
            if member(i, j):
                block.append(j)
                assigned.add(j)
        blocks.append(tuple(block))
    return blocks


def block_difference_subgroup(ct: CurveType, indices) -> Subgroup:
    """Subgroup generated by a_{i_1} a_{i_k}^{-1} over a single index block."""
    indices = sorted(indices)
    if len(indices) < 2:
        raise DomainError("block must have at least two indices")
    gens = standard_generators(ct)
    anchor = gens[indices[0] - 1]
    return Subgroup.from_generators(
        ct, [gens[i - 1] * anchor.inverse() for i in indices[1:]]
    )


def _case5i_forms(ct: CurveType) -> set[Subgroup]:
    gens = standard_generators(ct)
    out = set()
    for i, j in combinations(range(1, ct.n + 2), 2):
        out.add(
            Subgroup.from_generators(ct, [gens[j - 1] * gens[i - 1].inverse()])
        )
    return out


def _case5ii_forms(ct: CurveType) -> set[Subgroup]:
    gens = standard_generators(ct)
    out = set()
    for triple in combinations(range(1, ct.n + 2), 3):
        i = triple[0]
        out.add(
            Subgroup.from_generators(
                ct,
                [gens[j - 1] * gens[i - 1].inverse() for j in triple[1:]],
            )
        )
    return out


# -- three-pair case (n = 5) ---------------------------------------------------


def case3_split(K: Subgroup) -> list[tuple[int, int]]:
    blocks = blocks_of(K)
    if sorted(len(b) for b in blocks) != [2, 2, 2]:
        raise DomainError("subgroup does not have the three-pair shape")
    return sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])


def case3_normalization(lam, split):
    """Permutation moving the split pairs to ({1,2}, {3,4}, {5,6}) and the
    renormalized lambda tuple."""
    order = [i for pair in split for i in pair]
    if sorted(order) != [1, 2, 3, 4, 5, 6]:
        raise DomainError("split must partition {1, ..., 6} into pairs")
    sigma = [0] * 6
    for new, old in enumerate(order, start=1):
        sigma[old - 1] = new
    sigma = tuple(sigma)
    return sigma, theta(sigma, lam)


def case3_condition_holds(lam, split, tol: float = 1e-9) -> bool:
    """After renormalization the pairs are swapped by x -> l1'/x iff l2' l3' = l1'."""
    _, lam_n = case3_normalization(lam, split)
    return sphere_close(lam_n[1] * lam_n[2], lam_n[0], tol)


def case3_coupling(lam3):
    """Affine map M(x) = alpha x + beta linking x^2 + x^-2 to the cone data.

    The halved constant is forced by the branch values: M(2) must equal
    1 + l1 and M(-2) must equal l2 + l3.
    """
    l1, l2, l3 = lam3
    alpha = (1 + l1 - l2 - l3) / 4
    beta = (1 + l1 + l2 + l3) / 2
    return alpha, beta


def evaluate_case3_map(alpha, beta, x):
    if is_inf(x) or x == 0:
        return INF
    w = x * x
    return alpha * (w + 1 / w) + beta


# -- explicit curves -----------------------------------------------------------


def curve_case1(ct: CurveType, lam) -> CurveConstruction:
    """Rank n-1 (n odd): y^2 = x(x-1) prod (x - lambda_j), infinity included."""
    if ct.p != 2 or ct.n < 5 or ct.n % 2 == 0:
        raise DomainError("case 1 needs p = 2 and odd n >= 5")
    lam = validate_lambda(lam, ct.n)
    roots = (0, 1, *lam, INF)
    curve = HyperellipticCurve((ct.n - 1) // 2, roots)
    return CurveConstruction(CaseLabel.CASE1, curve, ct, tuple(lam), {})


def case2_square_map(b1, b2) -> Moebius:
    """Moebius map M with Q(z) = M(z^2), branch values {b1, b2} = Q({0, inf})."""
    if is_inf(b1) and is_inf(b2):
        raise DomainError("branch points must be distinct")
    if is_inf(b1):
        return Moebius(1, b2, 0, 1)
    if is_inf(b2):
        return Moebius(-1, b1, 0, 1)
    return Moebius(-b2, b1, -1, 1)


def curve_case2(ct: CurveType, lam, kept_indices, omitted_order=None) -> CurveConstruction:
    """Rank n-2 big-block case: roots are the Q-preimages of the kept points."""
    if ct.p != 2 or ct.n < 4:
        raise DomainError("case 2 needs p = 2 and n >= 4")
    lam = validate_lambda(lam, ct.n)
    kept = tuple(sorted(kept_indices))
    if len(kept) != ct.n - 1 or not set(kept) <= set(range(1, ct.n + 2)):
        raise DomainError(f"kept indices must be {ct.n - 1} of 1..{ct.n + 1}")
    omitted = tuple(sorted(set(range(1, ct.n + 2)) - set(kept)))
    if omitted_order is not None:
        if tuple(sorted(omitted_order)) != omitted:
            raise DomainError("omitted_order must order the two omitted indices")
        omitted = tuple(omitted_order)
    pts = cone_points(lam)
    b1, b2 = pts[omitted[0] - 1], pts[omitted[1] - 1]
    w_map = case2_square_map(b1, b2)
    w_inv = w_map.inverse()
    roots = []
    for i in kept:
        w = w_inv(pts[i - 1])
        z = csqrt(w)
        roots.extend([z, -z])
    curve = HyperellipticCurve(ct.n - 2, tuple(roots))
    details = {
        "kept_indices": kept,
        "omitted_indices": omitted,
        "w_map": w_map,
        "kept_points": tuple(pts[i - 1] for i in kept),
    }
    return CurveConstruction(CaseLabel.CASE2, curve, ct, tuple(lam), details)


def curve_case3(ct: CurveType, lam, split=((1, 2), (3, 4), (5, 6)), tol: float = 1e-9) -> CurveConstruction:
    """Three-pair case at n = 5; needs l2' l3' = l1' after renormalization."""
    if ct.p != 2 or ct.n != 5:
        raise DomainError("case 3 needs p = 2 and n = 5")
    lam = validate_lambda(lam, ct.n)
    sigma, lam_n = case3_normalization(lam, split)
    l1, l2, l3 = (complex(v) for v in lam_n)
    if not sphere_close(l2 * l3, l1, tol):
        raise DomainError(
            "case 3 not applicable: renormalized tuple violates l2*l3 = l1"
        )
    alpha, beta = case3_coupling((l1, l2, l3))
    if alpha == 0:
        raise DomainError("degenerate coupling map (alpha = 0)")
    sq = csqrt(l1)
    params = []
    for target in (2 * sq, -2 * sq):
        s = (target - beta) / alpha
        disc = csqrt(s * s - 4)
        params.append((s + disc) / 2)
    a2, b2 = params
    for w in params:
        if w == 0 or min(abs(w - 1), abs(w + 1)) < 1e-12:
            raise DomainError("case 3 parameters degenerate (w in {0, 1, -1})")
    roots = []
    for w in params:
        for value in (w, 1 / w):
            z = csqrt(value)
            roots.extend([z, -z])
    curve = HyperellipticCurve(3, tuple(roots))
    details = {
        "split": tuple(split),
        "sigma": sigma,
        "lam_normalized": tuple(lam_n),
        "alpha": alpha,
        "beta": beta,
        "a_squared": a2,
        "b_squared": b2,
    }
    return CurveConstruction(CaseLabel.CASE3, curve, ct, tuple(lam), details)


def quartic_factor_roots(q) -> list[complex]:
    """Roots of x^4 + 2(1 - 2q) x^2 + 1; they satisfy ((1+x^2)/2x)^2 = q."""
    qc = complex(q)
    disc = csqrt(qc * qc - qc)
    out = []
    for w in (2 * qc - 1 + 2 * disc, 2 * qc - 1 - 2 * disc):
        z = csqrt(w)
        out.extend([z, -z])
    return out


def curve_case4(
    ct: CurveType,
    lam,
    big_part,
    anchor_order=None,
    orientation: str = "forward",
) -> CurveConstruction:
    """Rank n-3 case: one quartic factor per big-part cone point.

    ``orientation='forward'`` uses q = T(p_i); ``'inverse'`` uses q = T^{-1}(p_i)
    and exists only so the fiber oracle can demonstrate it is wrong.
    """
    if ct.p != 2 or ct.n < 4:
        raise DomainError("case 4 needs p = 2 and n >= 4")
    if orientation not in ("forward", "inverse"):
        raise DomainError("orientation must be 'forward' or 'inverse'")
    lam = validate_lambda(lam, ct.n)
    big = tuple(sorted(big_part))
    if len(big) != ct.n - 2 or not set(big) <= set(range(1, ct.n + 2)):
        raise DomainError(f"big part must be {ct.n - 2} of 1..{ct.n + 1}")
    others = tuple(sorted(set(range(1, ct.n + 2)) - set(big)))
    if anchor_order is not None:
        if tuple(sorted(anchor_order)) != others:
            raise DomainError("anchor_order must order the three remaining indices")
        others = tuple(anchor_order)
    pts = cone_points(lam)
    T = moebius_from_three_points(
        pts[others[0] - 1], pts[others[1] - 1], pts[others[2] - 1]
    )
    q_map = T if orientation == "forward" else T.inverse()
    q_values = tuple(q_map(pts[i - 1]) for i in big)
    roots = []
    for q in q_values:
        roots.extend(quartic_factor_roots(q))
    curve = HyperellipticCurve(2 * ct.n - 5, tuple(roots))
    details = {
        "big_part": big,
        "anchor_indices": others,
        "normalizer": T,
        "q_values": q_values,
        "orientation": orientation,
        "big_points": tuple(pts[i - 1] for i in big),
    }
    return CurveConstruction(CaseLabel.CASE4, curve, ct, tuple(lam), details)


def roots_of_unity(p: int) -> list[complex]:
    return [cmath.exp(2j * math.pi * k / p) for k in range(p)]


def curve_case5(ct: CurveType, lam=()) -> CurveConstruction:
    """p >= 3: y^2 = x^p - 1 (n = 2) or y^2 = (x^p - 1)(x^p - alpha^p) (n = 3)."""
    if ct.p < 3:
        raise DomainError("case 5 needs p >= 3")
    if ct.n == 2:
        roots = tuple(roots_of_unity(ct.p)) + (INF,)
        curve = HyperellipticCurve((ct.p - 1) // 2, roots)
        return CurveConstruction(CaseLabel.CASE5I, curve, ct, (), {})
    if ct.n == 3:
        lam = validate_lambda(lam, ct.n)
        sq = csqrt(lam[0])
        if sq == 1:
            raise DomainError("lambda_1 = 1 is degenerate")
        alpha_p = ((sq + 1) / (sq - 1)) ** 2
        roots = list(roots_of_unity(ct.p))
        roots += [cnroot(alpha_p, ct.p, k) for k in range(ct.p)]
        curve = HyperellipticCurve(ct.p - 1, tuple(roots))
        details = {"alpha_p": alpha_p, "sqrt_lambda1": sq}
        return CurveConstruction(CaseLabel.CASE5II, curve, ct, tuple(lam), details)
    raise DomainError("case 5 needs n = 2 or n = 3")


def case5ii_involution_map(lam1) -> tuple[Moebius, complex]:
    """Degree-2 map induced by x -> lambda_1/x on the base, plus sqrt(lambda_1).

    Q3(z) = (z^2 - (l+1) z + l) / ((2 sqrt(l) - l - 1) z) sends the cone
    points {1, l} to 0, {0, inf} to inf, and the fixed points of the
    involution to 1 and alpha^p.
    """
    sq = csqrt(lam1)
    denom = 2 * sq - lam1 - 1
    if denom == 0:
        raise DomainError("degenerate involution normalization")
    return sq, denom


def evaluate_case5ii_map(lam1, z):
    sq, denom = case5ii_involution_map(lam1)
    if is_inf(z):
        return INF
    zc = complex(z)
    if zc == 0:
        return INF
    return (zc * zc - (lam1 + 1) * zc + lam1) / (denom * zc)


# -- classification -------------------------------------------------------------


def classify(K: Subgroup, lam, tol: float = 1e-9) -> CaseLabel:
    """Match a freely-acting subgroup against the hyperelliptic shapes."""
    ct = K.curve_type
    require_free(K)
    if ct.n >= 3:
        lam = validate_lambda(lam, ct.n)
    m = K.rank
    if ct.p == 2:
        if ct.n < 4:
            raise DomainError("p = 2 requires n >= 4")
        if m not in allowed_hyperelliptic_ranks(ct):
            return CaseLabel.NOT_HYPERELLIPTIC
        blocks = blocks_of(K)
        sizes = sorted(len(b) for b in blocks)
        if m == ct.n - 1:
            return CaseLabel.CASE1
        if m == ct.n - 2:
            if any(len(b) == ct.n - 1 for b in blocks):
                return CaseLabel.CASE2
            if ct.n == 5 and sizes == [2, 2, 2]:
                if case3_condition_holds(lam, case3_split(K), tol):
                    return CaseLabel.CASE3
                return CaseLabel.NOT_HYPERELLIPTIC
            return CaseLabel.NOT_HYPERELLIPTIC
        if m == ct.n - 3:
            if any(len(b) == ct.n - 2 for b in blocks):
                return CaseLabel.CASE4
            return CaseLabel.NOT_HYPERELLIPTIC
        return CaseLabel.UNKNOWN
    # p odd: the quotient symmetry group must be cyclic, which forces
    # rank n-1 and n in {2, 3} with the specific difference shapes.
    if ct.n == 2 and m == 1 and K in _case5i_forms(ct):
        return CaseLabel.CASE5I
    if ct.n == 3 and m == 2 and K in _case5ii_forms(ct):
        return CaseLabel.CASE5II
    return CaseLabel.NOT_HYPERELLIPTIC


def big_block(K: Subgroup, size: int) -> tuple[int, ...]:
    for block in blocks_of(K):
        if len(block) == size:
            return tuple(sorted(block))
    raise DomainError(f"no block of size {size}")


def build_curve(K: Subgroup, lam, tol: float = 1e-9) -> tuple[CaseLabel, CurveConstruction | None]:
    """Classify K and, for positive cases, construct the quotient curve."""
    ct = K.curve_type
    label = classify(K, lam, tol)
    if label == CaseLabel.CASE1:
        return label, curve_case1(ct, lam)
    if label == CaseLabel.CASE2:
        return label, curve_case2(ct, lam, big_block(K, ct.n - 1))
    if label == CaseLabel.CASE3:
        return label, curve_case3(ct, lam, case3_split(K), tol)
    if label == CaseLabel.CASE4:
        return label, curve_case4(ct, lam, big_block(K, ct.n - 2))
    if label in (CaseLabel.CASE5I, CaseLabel.CASE5II):
        return label, curve_case5(ct, lam)
    return label, None


# -- counting of rank n-1 overgroups (p = 2, n even) ----------------------------


def hyperelliptic_z2n1_subgroups(ct: CurveType):
    """Split the rank-(n-1) overgroups <K, a_j> of big-block subgroups K.

    For j inside K's big block the quotient symmetry is generated by the
    hyperelliptic involution of S/K (count n(n+1)/2); the remaining choices
    collapse to one subgroup per generator index (count n+1).
    """
    if ct.p != 2 or ct.n < 4 or ct.n % 2 == 1:
        raise DomainError("counting requires p = 2 and even n >= 4")
    gens = standard_generators(ct)
    hyper = set()
    non_hyper = set()
    for K in enumerate_free_subgroups(ct, ct.n - 2):
        blocks = blocks_of(K)
        big = next((b for b in blocks if len(b) == ct.n - 1), None)
        if big is None:
            continue
        for j in range(1, ct.n + 2):
            L = K.join(gens[j - 1])
            assert L.rank == ct.n - 1
            if j in big:
                hyper.add(L)
            else:
                non_hyper.add(L)
    return hyper, non_hyper
