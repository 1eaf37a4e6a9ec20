"""Which free quotients are hyperelliptic, and their explicit equations.

Classification is by the shape of the index partition of a freely acting
subgroup K (i, j share a block iff a_i a_j^{-1} lies in K), the few K of each
shape listed per rank, and at n = 5 by a condition on the cone points.  Each
positive case constructs the Weierstrass roots of its curve y^2 = f(x).

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
from enum import Enum
from functools import lru_cache
from itertools import combinations

from .errors import DomainError, Frozen, _set
from .free_action import AdmissiblePartition, allowed_hyperelliptic_ranks, count_free_subgroups
from .free_action import kernel_of_partition, require_free
from .groups import CurveType, Subgroup, rref_mod_p, standard_generators
from .moduli import cone_points, theta, valid_lambda
from .riemann_sphere import (
    INF,
    Moebius,
    csqrt,
    cnroot,
    is_inf,
    json_number,
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


class HyperellipticCurve(Frozen):
    """y^2 = prod (x - root); an INF root stands for a dropped factor."""

    __slots__ = ("genus", "roots")

    def __init__(self, genus: int, roots: tuple):
        expected = 2 * genus + 2
        if len(roots) != expected:
            raise DomainError(f"genus {genus} needs {expected} roots, got {len(roots)}")
        if sum(1 for r in roots if is_inf(r)) > 1:
            raise DomainError("at most one root may be at infinity")
        _set(self, "genus", genus)
        _set(self, "roots", roots)

    def finite_roots(self) -> list:
        return [r for r in self.roots if not is_inf(r)]

    def polynomial_coeffs(self) -> list:
        """Monic coefficients of f, descending; the INF factor is dropped."""
        return poly_from_roots(self.roots)

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "roots": [json_number(complex(r)) for r in self.roots],
            "polynomial_coeffs": [json_number(complex(c)) for c in self.polynomial_coeffs()],
        }


class CurveConstruction(Frozen):
    """A classified subgroup with its curve and oracle-checkable build data.

    Its hash fails on the dict ``details``.
    """

    __slots__ = ("label", "curve", "curve_type", "lam", "details")

    def __init__(
        self, label: CaseLabel, curve: HyperellipticCurve, curve_type: CurveType, lam: tuple, details: dict
    ):
        _set(self, "label", label)
        _set(self, "curve", curve)
        _set(self, "curve_type", curve_type)
        _set(self, "lam", lam)
        _set(self, "details", details)


# -- partition shapes --------------------------------------------------------


def block_difference_subgroup(ct: CurveType, indices) -> Subgroup:
    """Subgroup generated by a_{i_1} a_{i_k}^{-1} over a single index block."""
    indices = sorted(indices)
    if len(indices) < 2:
        raise DomainError("block must have at least two indices")
    rows = [[(j == i) - (j == indices[0]) for j in range(1, ct.n + 2)] for i in indices[1:]]
    return Subgroup(ct, rref_mod_p([[x - row[-1] for x in row] for row in rows], ct.p)[0])


# -- three-pair case (n = 5) ---------------------------------------------------


def case3_normalization(lam, split):
    """Permutation moving the split pairs to ({1,2}, {3,4}, {5,6}) and the
    renormalized lambda tuple."""
    sigma = _case3_sigma(split)
    return sigma, theta(sigma, lam)


def _case3_sigma(split) -> tuple[int, ...]:
    order = [i for pair in split for i in pair]
    if sorted(order) != [1, 2, 3, 4, 5, 6]:
        raise DomainError("split must partition {1, ..., 6} into pairs")
    sigma = [0] * 6
    for new, old in enumerate(order, start=1):
        sigma[old - 1] = new
    return tuple(sigma)


def case3_condition_holds(lam, split, tol: float = 1e-9) -> bool:
    """After renormalization the pairs are swapped by x -> l1'/x iff l2' l3' = l1'."""
    lam_n = case3_normalization(lam, split)[1]
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
    lam = valid_lambda(lam, ct.n)
    if ct.p != 2 or ct.n < 5 or ct.n % 2 == 0:
        raise DomainError("case 1 needs p = 2 and odd n >= 5")
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


def curve_case2(ct: CurveType, lam, kept_indices, square_map=None) -> CurveConstruction:
    """Rank n-2 big-block case: roots are the Q-preimages of the kept points,
    for Q(z) = M(z^2) with M the square map (by default case2_square_map of
    the omitted pair in index order; a given M must send 0 and inf to that
    pair).  ``w_values`` are the M-preimages w of the kept points, whose
    square roots +-sqrt(w) are the roots."""
    lam = valid_lambda(lam, ct.n)
    if ct.p != 2 or ct.n < 4:
        raise DomainError("case 2 needs p = 2 and n >= 4")
    kept = tuple(sorted(kept_indices))
    if len(kept) != ct.n - 1 or not set(kept) <= set(range(1, ct.n + 2)):
        raise DomainError(f"kept indices must be {ct.n - 1} of 1..{ct.n + 1}")
    omitted = tuple(sorted(set(range(1, ct.n + 2)) - set(kept)))
    pts = cone_points(lam)
    b1, b2 = pts[omitted[0] - 1], pts[omitted[1] - 1]
    if square_map is None:
        square_map = case2_square_map(b1, b2)
    else:
        zero, inf = square_map(0), square_map(INF)
        if not any(sphere_close(zero, u) and sphere_close(inf, v) for u, v in ((b1, b2), (b2, b1))):
            raise DomainError("square_map must send 0 and inf to the omitted cone points")
    w_inv = square_map.inverse()
    ws = tuple(w_inv(pts[i - 1]) for i in kept)
    curve = HyperellipticCurve(ct.n - 2, tuple(r for z in map(csqrt, ws) for r in (z, -z)))
    details = {
        "kept_indices": kept,
        "omitted_indices": omitted,
        "w_map": square_map,
        "kept_points": tuple(pts[i - 1] for i in kept),
        "w_values": ws,
    }
    return CurveConstruction(CaseLabel.CASE2, curve, ct, tuple(lam), details)


def curve_case3(ct: CurveType, lam, split=((1, 2), (3, 4), (5, 6)), tol: float = 1e-9) -> CurveConstruction:
    """Three-pair case at n = 5; needs l2' l3' = l1' after renormalization."""
    lam = valid_lambda(lam, ct.n)
    if ct.p != 2 or ct.n != 5:
        raise DomainError("case 3 needs p = 2 and n = 5")
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


def curve_case4(ct: CurveType, lam, big_part, anchor_order=None) -> CurveConstruction:
    """Rank n-3 case: one quartic factor q = T(p_i) per big-part cone point."""
    lam = valid_lambda(lam, ct.n)
    if ct.p != 2 or ct.n < 4:
        raise DomainError("case 4 needs p = 2 and n >= 4")
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
    q_values = tuple(T(pts[i - 1]) for i in big)
    roots = []
    for q in q_values:
        roots.extend(quartic_factor_roots(q))
    curve = HyperellipticCurve(2 * ct.n - 5, tuple(roots))
    details = {
        "big_part": big,
        "anchor_indices": others,
        "normalizer": T,
        "q_values": q_values,
        "big_points": tuple(pts[i - 1] for i in big),
    }
    return CurveConstruction(CaseLabel.CASE4, curve, ct, tuple(lam), details)


def roots_of_unity(p: int) -> list[complex]:
    return [cmath.exp(2j * math.pi * k / p) for k in range(p)]


def curve_case5(ct: CurveType, lam=()) -> CurveConstruction:
    """p >= 3: y^2 = x^p - 1 (n = 2) or y^2 = (x^p - 1)(x^p - alpha^p) (n = 3)."""
    if ct.n == 3:
        lam = valid_lambda(lam, ct.n)
    if ct.p < 3:
        raise DomainError("case 5 needs p >= 3")
    if ct.n == 2:
        roots = tuple(roots_of_unity(ct.p)) + (INF,)
        curve = HyperellipticCurve((ct.p - 1) // 2, roots)
        return CurveConstruction(CaseLabel.CASE5I, curve, ct, (), {})
    if ct.n == 3:
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


def case5ii_involution_map(lam1) -> tuple[complex, complex]:
    """sqrt(l) and the denominator 2 sqrt(l) - l - 1 of the degree-2 map
    induced by x -> l/x on the base, l = lambda_1.

    Q3(z) = (z^2 - (l+1) z + l) / ((2 sqrt(l) - l - 1) z) sends the cone
    points {1, l} to 0, {0, inf} to inf, and the fixed points of the
    involution to 1 and alpha^p; evaluate_case5ii_map evaluates it.
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
#
# classify and build_curve take lambda through valid_lambda (a Lambda passes
# unchecked) and K, unless it is a block subgroup (free by construction),
# through require_free.


def rank_label(ct: CurveType, m: int) -> CaseLabel | None:
    """The label that rank m alone gives every free rank-m subgroup of ct,
    or None where the subgroup's blocks decide.  At p = 2 a rank outside
    allowed_hyperelliptic_ranks is NotHyperelliptic and rank n - 1 (odd n)
    is Case1; at odd p only rank n - 1 with n in {2, 3} is left to the
    blocks.  Refuses p = 2 with n < 4, as allowed_hyperelliptic_ranks does."""
    if ct.p == 2:
        if m not in allowed_hyperelliptic_ranks(ct):
            return CaseLabel.NOT_HYPERELLIPTIC
        return CaseLabel.CASE1 if m == ct.n - 1 else None
    # p odd: the quotient symmetry group must be cyclic, which forces rank
    # n - 1 with n in {2, 3}
    return None if m == ct.n - 1 and ct.n in (2, 3) else CaseLabel.NOT_HYPERELLIPTIC


@lru_cache(maxsize=64)
def block_subgroups(ct: CurveType, m: int) -> dict:
    """The free rank-m subgroups of ct that can be hyperelliptic: one shared,
    read-only dict from each RREF basis to its label and curve data; the rest
    are NotHyperelliptic.  K has a block B of m + 1 indices iff K = D(B), the
    block_difference_subgroup of B: Case2 (p = 2, m = n - 2) or Case4 (m = n - 3)
    with B as data, or at odd p, where D(B) acts freely, Case5i (n = 2) or
    Case5ii (n = 3).  Case1 is D({1, ..., n+1}); at (2,5) rank 3 the kernel of each
    split into three pairs is Case3, with the split as data, where case3_condition_holds."""
    p, n, label = ct.p, ct.n, rank_label(ct, m)
    if label is CaseLabel.CASE1:
        return {block_difference_subgroup(ct, range(1, n + 2)).basis: (label, None)}
    if label is not None:
        return {}
    if p == 2:
        label = CaseLabel.CASE2 if m == n - 2 else CaseLabel.CASE4
    else:
        label = CaseLabel.CASE5I if n == 2 else CaseLabel.CASE5II
    table = {}
    # at odd p, H/D(B) = <b> puts the index outside B at b^(-n): D(B) acts freely iff
    # p does not divide n; at p = 3, n = 2 that index joins B, so three blocks give one K
    for block in combinations(range(1, n + 2), m + 1) if p == 2 or n % p else ():
        table.setdefault(block_difference_subgroup(ct, block).basis, (label, block if p == 2 else None))
    if (p, n, m) == (2, 5, 3):
        for a in range(2, 7):  # the splits {1, a}, {b, b2}, {c, c2} with b < c
            b, *rest = (i for i in range(2, 7) if i != a)
            for b2 in rest:
                split = ((1, a), (b, b2), tuple(i for i in rest if i != b2))
                K = kernel_of_partition(AdmissiblePartition.from_parts(ct, 2, split))
                table[K.basis] = (CaseLabel.CASE3, split)
    return table


def _shape(K: Subgroup, lam, tol: float):
    """The checked lam, K's label and the data its curve needs: the big
    block (Case2, Case4) or the split (Case3), else None."""
    ct = K.curve_type
    label, data = block_subgroups(ct, K.rank).get(K.basis, (None, None))
    if label is None:
        require_free(K)
        label = CaseLabel.NOT_HYPERELLIPTIC
    if ct.n >= 3:
        lam = valid_lambda(lam, ct.n)
    if label is CaseLabel.CASE3 and not case3_condition_holds(lam, data, tol):
        label, data = CaseLabel.NOT_HYPERELLIPTIC, None
    return lam, label, data


def classify(K: Subgroup, lam, tol: float = 1e-9) -> CaseLabel:
    """Match a freely-acting subgroup against the hyperelliptic shapes."""
    return _shape(K, lam, tol)[1]


def expected_label_counts(ct: CurveType, lam, tol: float = 1e-9) -> dict[int, dict[CaseLabel, int]]:
    """The free subgroups of each nonempty rank of ct by label (none at 0),
    with no walk: the block subgroups' own labels, and NotHyperelliptic for
    the rest of count_free_subgroups."""
    counts = {}
    for m in range(1, ct.n):
        tally = {CaseLabel.NOT_HYPERELLIPTIC: count_free_subgroups(ct, m)}
        for basis in block_subgroups(ct, m):
            case = classify(Subgroup(ct, basis), lam, tol)
            tally[case] = tally.get(case, 0) + 1
            tally[CaseLabel.NOT_HYPERELLIPTIC] -= 1
        if tally := {case: count for case, count in tally.items() if count}:
            counts[m] = tally
    return counts


# The curve of each positive label, from (ct, lam, the data _shape gives, tol).
_CURVES = {
    CaseLabel.CASE1: lambda ct, lam, data, tol: curve_case1(ct, lam),
    CaseLabel.CASE2: lambda ct, lam, data, tol: curve_case2(ct, lam, data),
    CaseLabel.CASE3: curve_case3,
    CaseLabel.CASE4: lambda ct, lam, data, tol: curve_case4(ct, lam, data),
    CaseLabel.CASE5I: lambda ct, lam, data, tol: curve_case5(ct, lam),
    CaseLabel.CASE5II: lambda ct, lam, data, tol: curve_case5(ct, lam),
}


def build_curve(K: Subgroup, lam, tol: float = 1e-9) -> tuple[CaseLabel, CurveConstruction | None]:
    """Classify K and, for positive cases, construct the quotient curve."""
    lam, label, data = _shape(K, lam, tol)
    curve = _CURVES.get(label)
    return label, (None if curve is None else curve(K.curve_type, lam, data, tol))


# -- counting of rank n-1 overgroups (p = 2, n even) ----------------------------


def hyperelliptic_z2n1_subgroups(ct: CurveType):
    """Split the rank-(n-1) overgroups <K, a_j> of big-block subgroups K.

    For j inside K's big block the quotient symmetry is generated by the
    hyperelliptic involution of S/K (count n(n+1)/2); the remaining choices
    collapse to one subgroup per generator index (count n+1).  The K are
    the C(n+1, 2) block subgroups of rank n - 2, all Case2 at even n.
    """
    if ct.p != 2 or ct.n < 4 or ct.n % 2 == 1:
        raise DomainError("counting requires p = 2 and even n >= 4")
    hyper, non_hyper = set(), set()
    for basis, (_, big) in block_subgroups(ct, ct.n - 2).items():
        for j, a in enumerate(standard_generators(ct), start=1):
            L = Subgroup(ct, basis).join(a)
            assert L.rank == ct.n - 1
            (hyper if j in big else non_hyper).add(L)
    return hyper, non_hyper
