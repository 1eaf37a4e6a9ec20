"""Small reference constructions that only the tests need."""

import cmath
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

from gfcurves.errors import DomainError, ResourceLimitError
from gfcurves.free_action import DEFAULT_NODE_BUDGET, _pivot_rows
from gfcurves.gonal import CyclicGonalModel, evaluate_slope
from gfcurves.groups import (
    CurveType,
    GroupElement,
    Subgroup,
    reduce_against,
    rref_mod_p,
    standard_generators,
)
from gfcurves.hyperelliptic import (
    CaseLabel,
    CurveConstruction,
    HyperellipticCurve,
    case3_condition_holds,
    case3_coupling,
    curve_case4,
    quartic_factor_roots,
    rank_label,
)
from gfcurves.moduli import Lambda, cone_points, theta, validate_lambda
from gfcurves.riemann_sphere import (
    INF,
    is_inf,
    moebius_from_three_points,
    poly_from_roots,
    sphere_close,
)
from gfcurves.verify import (
    CHECK_TOL,
    CONSTRUCTION_TOL,
    CheckReport,
    FiberPoint,
    fiber_equation_residuals,
    sample_points,
)


DEFAULT_ORACLE_LIMIT = 10**6


def subgroup_from_json(data: dict) -> Subgroup:
    """The subgroup that Subgroup.to_json wrote."""
    ct = CurveType(data["p"], data["n"])
    return Subgroup.from_generators(ct, data["basis"])


def curve_from_json(data: dict) -> HyperellipticCurve:
    """The curve that HyperellipticCurve.to_json wrote."""
    roots = tuple(INF if r == "inf" else complex(r[0], r[1]) for r in data["roots"])
    return HyperellipticCurve(data["genus"], roots)


def model_from_json(data: dict, subgroup: Subgroup, lam) -> CyclicGonalModel:
    """The model that CyclicGonalModel.to_json wrote, for its subgroup and
    lam.  A model reads its slopes off lam, so the written t1_slopes must be
    lam's table; other slopes raise DomainError."""
    basis = tuple(tuple(eq["exponents"]) for eq in data["equations"])
    model = CyclicGonalModel(subgroup, tuple(lam), basis)
    if model.to_json()["t1_slopes"] != data["t1_slopes"]:
        raise DomainError("the written t1_slopes are not the slope table of lambda")
    return model


def base_projection(point: FiberPoint):
    """Image of the point on the base sphere: -(x_2/x_1)^p.

    Related to the t_1 chart by a Moebius map; with l denoting the last
    lambda value (1 when n = 2) it equals l + 1/t_1.
    """
    p = point.curve_type.p
    if point.x[0] == 0:
        return INF
    return -((point.x[1] / point.x[0]) ** p)


def count_calls(monkeypatch, module, name):
    """Count calls of module.name through every gfcurves module that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "gfcurves":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def entry_subgroups(entries) -> list[Subgroup]:
    """The subgroups of a cli._Entries run, one per entry, in order."""
    return [Subgroup(entries.curve_type, prefix + (row,)) for prefix, rows in entries.stretches for row in rows]


def has_fixed_points(h: GroupElement) -> bool:
    """True iff h is the identity or a power of a single standard generator.

    Checked over all p class representatives: h fixes a point iff some
    representative has support of size at most one.
    """
    p = h.curve_type.p
    for c in range(p):
        support = sum(1 for e in h.exponents if (e + c) % p != 0)
        if support <= 1:
            return True
    return False


def is_free_oracle(K: Subgroup, limit: int = DEFAULT_ORACLE_LIMIT) -> bool:
    """Exhaustive check that no nonidentity element of K has fixed points."""
    if K.order > limit:
        raise ResourceLimitError(f"subgroup order {K.order} exceeds {limit}")
    return not any(has_fixed_points(h) for h in subgroup_elements(K) if not h.is_identity())


def _in_span_options(p: int, dim: int, r: int):
    """Nonzero vectors of F_p^r supported on the first dim coordinates."""
    out = []
    for head in product(range(p), repeat=dim):
        if any(head):
            out.append(head + (0,) * (r - dim))
    return out


def _iter_canonical_assignments(count: int, r: int, p: int, budget: int, visit) -> None:
    """Walk the canonical value sequences: one per GL_r(F_p) orbit of
    admissible assignments {1..count} -> Z_p^r \\ {0} that span and multiply
    to one.  Each leaf goes to ``visit`` in walk order as two tuples: its
    count values, and the positions where e_1, ..., e_r first appear.

    The walk treats positions 0..count-2 alike and forces the last value, so
    any map of those positions to generators gives one assignment per orbit.
    Sending position t < n to a_{n-t} and the forced value to a_{n+1} puts
    e_1, e_2, ... on columns right to left.  It recurses plainly, with no
    generator frames, and looks each partial sum and forced value up in a
    dict of this walk; a walk of more than ``budget`` nodes raises
    ResourceLimitError.

    This is the partition-walk oracle: an enumeration independent of the
    RREF walk of ``enumerate_free_subgroups``, whose leaves' kernels
    (``reference_kernel``) are the free subgroups."""
    span_cache = {dim: _in_span_options(p, dim, r) for dim in range(r + 1)}
    nonzero = {v: v for v in span_cache[r]}  # one object per vector, kept by every leaf
    # (value, dim after it) in walk order: the span so far, then the fresh e_{dim+1}
    steps = [[(v, dim) for v in span_cache[dim]] for dim in range(r + 1)]
    for dim in range(r):
        steps[dim].append((tuple(1 if i == dim else 0 for i in range(r)), dim + 1))
    sums = {}  # (partial, v) -> partial + v, one tuple per sum
    forced_of = {}  # partial (spanning) -> the nonzero value that cancels it, or None
    nodes = 0

    def walk(pos, dim, partial, values, fresh):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError(
                f"partition enumeration exceeded {budget} nodes"
            )
        if dim + (count - pos) < r:
            return
        if pos == count - 1:
            # every value so far lies in span(e_1..e_dim), and so does forced
            if dim == r:
                if partial in forced_of:
                    forced = forced_of[partial]
                else:
                    forced = forced_of[partial] = nonzero.get(tuple([-s % p for s in partial]))
                if forced is not None:
                    visit(values + (forced,), fresh)
            return
        for v, after in steps[dim]:
            key = (partial, v)
            total = sums.get(key)
            if total is None:
                total = sums[key] = tuple([(a + b) % p for a, b in zip(partial, v)])
            walk(pos + 1, after, total, values + (v,), fresh if after == dim else fresh + (pos,))

    try:
        walk(0, 0, (0,) * r, (), ())
    finally:
        del walk  # walk refers to itself; the cycle would keep the walk's dicts alive


# (r, nodes, leaves) of each partition walk, counted by the walk itself,
# and the sha256 of its leaves in walk order over r = 1..n-1
WALK_SIZES = {
    (2, 5): ([(1, 6, 1), (2, 64, 30), (3, 166, 80), (4, 191, 25)],
             "9efcc28a0e601aa8763ef36433aec7b49d4ffd453d9ec2e3f2694662d34de6af"),
    (3, 4): ([(1, 16, 5), (2, 111, 75), (3, 148, 35)],
             "ac3eb59a31fb3d2f4539a672190df7833e4382b6f1deaf154e2415b2f8384491"),
}


def walk_leaves(count: int, r: int, p: int, budget: int) -> list[tuple]:
    """The leaves of the canonical walk, in walk order, as a list."""
    leaves = []
    _iter_canonical_assignments(count, r, p, budget, lambda values, fresh: leaves.append(values))
    return leaves


def recursive_walk(ct: CurveType, m: int) -> list[tuple]:
    """The RREF bases of the rank-m free subgroups from a walk that recurses
    once per basis row over the same pivot tables: the oracle of the order
    of free_subgroup_batches.  The rows of prefix ascend in pivot; mask
    holds the columns right of the last pivot that every row leaves zero;
    rest is the one last row that would put a_{n+1} in K; need counts the
    rows still to place after the next one."""
    p, n = ct.p, ct.n
    tables = [_pivot_rows(p, n, q) for q in range(n - 1)]
    out = []

    def walk(prefix, mask, rest, need):
        for q in range(n - 2, -1, -1):
            if not mask >> q & 1 or (mask >> q + 1).bit_count() < need:
                continue
            if need:
                for row, zero in tables[q](need):
                    later = mask & zero
                    if later.bit_count() >= need:
                        walk(prefix + (row,), later, tuple([(a - b) % p for a, b in zip(rest, row)]), need - 1)
            else:
                out.extend(prefix + (row,) for row in tables[q](0) if row != rest)

    walk((), (1 << n - 1) - 1, (1,) * n + (0,), m - 1)
    return out


def subgroup_elements(K: Subgroup):
    """Iterate all p^rank elements of K (desk-scale subgroups only)."""
    ct = K.curve_type
    for coeffs in product(range(ct.p), repeat=K.rank):
        exps = [0] * (ct.n + 1)
        for c, row in zip(coeffs, K.basis):
            for i, e in enumerate(row):
                exps[i] += c * e
        yield GroupElement.from_exponents(ct, exps)


def enumerate_all_subgroups(ct: CurveType, m: int, budget: int = DEFAULT_NODE_BUDGET):
    """Brute-force: every rank-m subgroup of H, via RREF normal forms.

    Independent of the partition machinery; used as the enumeration oracle.
    """
    if not 0 <= m <= ct.n:
        raise DomainError(f"rank m = {m} outside 0..{ct.n}")
    p, n = ct.p, ct.n
    count = 0
    for pivot_cols in combinations(range(n), m):
        free_positions = []
        for i, pc in enumerate(pivot_cols):
            for col in range(pc + 1, n):
                if col not in pivot_cols:
                    free_positions.append((i, col))
        for fill in product(range(p), repeat=len(free_positions)):
            count += 1
            if count > budget:
                raise ResourceLimitError(
                    f"subspace enumeration exceeded {budget} matrices"
                )
            rows = [[0] * n for _ in range(m)]
            for i, pc in enumerate(pivot_cols):
                rows[i][pc] = 1
            for (i, col), val in zip(free_positions, fill):
                rows[i][col] = val
            basis = tuple(tuple(row) + (0,) for row in rows)
            yield Subgroup(ct, basis)


def brute_force_free_subgroups(ct: CurveType, m: int) -> list[Subgroup]:
    """Oracle route: filter all rank-m subspaces with the freeness check."""
    return sorted(K for K in enumerate_all_subgroups(ct, m) if is_free_oracle(K))


def elements_with_fixed_points(ct: CurveType) -> list[GroupElement]:
    """All nonidentity elements with fixed points: the a_j^c, (n+1)(p-1) many."""
    return [g**c for g in standard_generators(ct) for c in range(1, ct.p)]


def reference_kernel(ct: CurveType, columns) -> Subgroup:
    """Kernel of a_j -> columns[j] by the elimination route: RREF of the
    image matrix, one generator per non-pivot column (a_{n+1} included),
    then Subgroup.from_generators, which canonicalises and reduces again."""
    p = ct.p
    basis, pivots = rref_mod_p(list(zip(*columns)), p)
    gens = []
    for f, column in enumerate(zip(*basis)):
        if f in pivots:
            continue
        v = [0] * (ct.n + 1)
        v[f] = 1
        for c, x in zip(pivots, column):
            v[c] = -x % p
        gens.append(v)
    return Subgroup.from_generators(ct, gens)


def reference_rref_mod_p(rows, p: int):
    """Textbook Gauss-Jordan elimination over F_p: for each column in turn,
    take the first row at or below the current one with a nonzero entry
    there, swap it up, scale it by the inverse of that entry and clear the
    column in every other row.  Returns (nonzero rows, pivot columns)."""
    mat = [[int(x) % p for x in row] for row in rows]
    pivots = []
    width = len(mat[0]) if mat else 0
    for col in range(width):
        r = len(pivots)
        found = [i for i in range(r, len(mat)) if mat[i][col] % p != 0]
        if not found:
            continue
        mat[r], mat[found[0]] = mat[found[0]], mat[r]
        inverse = pow(mat[r][col], p - 2, p)  # Fermat: a^(p-2) = 1/a mod p
        mat[r] = [(x * inverse) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                factor = mat[i][col]
                mat[i] = [(a - factor * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return tuple(tuple(row) for row in mat[: len(pivots)]), tuple(pivots)


def reference_witness(K: Subgroup) -> GroupElement | None:
    """The first a_j in K, by reducing each a_j against K's basis."""
    pivots = K.pivots()
    for a in standard_generators(K.curve_type):
        if not any(reduce_against(a.exponents, K.basis, pivots, K.curve_type.p)):
            return a
    return None


def _blocks(images) -> list[tuple[int, ...]]:
    """Partition of {1, ..., n+1} from the images of a_1, ..., a_{n+1} in
    H/K: i, j share a block iff a_i a_j^{-1} in K, that is, iff their images
    are equal.  Blocks come in order of their least index, each one
    ascending."""
    blocks = {}
    for j, image in enumerate(images, start=1):
        blocks.setdefault(image, []).append(j)
    return [tuple(block) for block in blocks.values()]


def blocks_of(K: Subgroup) -> list[tuple[int, ...]]:
    """K's blocks from its generator images."""
    return _blocks(K.generator_images())


def reference_shape(K: Subgroup, lam, tol: float = 1e-9):
    """K's label and curve data by its blocks, read off its generator images
    (K free): the rank rule first; then at p = 2 a block of m + 1
    indices is the big block (Case2 at m = n - 2, Case4 at m = n - 3) and
    three pairs at n = 5 are a Case3 split where case3_condition_holds; at
    odd p a block of more than m indices is Case5i (n = 2) or Case5ii."""
    ct, m = K.curve_type, K.rank
    label = rank_label(ct, m)
    if label is not None:
        return label, None
    blocks = blocks_of(K)
    if ct.p == 2:
        big = next((b for b in blocks if len(b) == m + 1), None)
        if big is not None:
            return (CaseLabel.CASE2 if m == ct.n - 2 else CaseLabel.CASE4), big
        if m == ct.n - 2 and ct.n == 5 and sorted(map(len, blocks)) == [2, 2, 2]:
            split = tuple(sorted(blocks))
            if case3_condition_holds(lam, split, tol):
                return CaseLabel.CASE3, split
        return CaseLabel.NOT_HYPERELLIPTIC, None
    if any(len(b) > m for b in blocks):
        return (CaseLabel.CASE5I if ct.n == 2 else CaseLabel.CASE5II), None
    return CaseLabel.NOT_HYPERELLIPTIC, None


def derived_hyperelliptic_ranks(ct: CurveType) -> frozenset[int]:
    """The ranks m of ct at which a free quotient S/K can be hyperelliptic by
    Klein's list of the finite subgroups of PGL_2(C).  The hyperelliptic
    involution i of S/K is central, so H/K = Z_p^(n-m) acts on the sphere
    (S/K)/<i> through H/K, or H/(K<i>) if i lies in H/K (p = 2 only).  The
    elementary abelian subgroups of PGL_2(C) are cyclic or the Klein four
    group, so n - m <= 3 at p = 2 and n - m <= 1 at odd p.  The bound is
    necessary, not sufficient."""
    return frozenset(m for m in range(1, ct.n) if ct.n - m <= (3 if ct.p == 2 else 1))


def reference_blocks(K: Subgroup) -> list[tuple[int, ...]]:
    """Blocks of {1, ..., n+1} by pairwise membership of a_i a_j^{-1} in K."""
    p, size = K.curve_type.p, K.curve_type.n + 1
    pivots = K.pivots()

    def member(i, j):
        # canonical exponents of a_i a_j^{-1} (i < j), last coordinate 0
        diff = [(i == k) - (j == k) + (j == size) for k in range(1, size + 1)]
        return not any(reduce_against(diff, K.basis, pivots, p))

    blocks = []
    assigned = set()
    for i in range(1, size + 1):
        if i not in assigned:
            block = [i] + [j for j in range(i + 1, size + 1) if j not in assigned and member(i, j)]
            assigned.update(block)
            blocks.append(tuple(block))
    return blocks


def reference_case5_label(K: Subgroup) -> CaseLabel:
    """Case5i / Case5ii at odd p by membership in the set of subgroups
    generated by a_j a_i^{-1} over every pair (n = 2) or triple (n = 3) of
    indices, each built from scratch."""
    ct = K.curve_type
    if ct.p == 2 or ct.n not in (2, 3) or K.rank != ct.n - 1:
        return CaseLabel.NOT_HYPERELLIPTIC
    gens = standard_generators(ct)
    forms = set()
    for indices in combinations(range(1, ct.n + 2), ct.n):
        anchor = gens[indices[0] - 1].inverse()
        forms.add(Subgroup.from_generators(ct, [gens[j - 1] * anchor for j in indices[1:]]))
    if K not in forms:
        return CaseLabel.NOT_HYPERELLIPTIC
    return CaseLabel.CASE5I if ct.n == 2 else CaseLabel.CASE5II


def curve_case4_inverse(ct: CurveType, lam, big_part) -> CurveConstruction:
    """The rank n-3 curve built with q = T^{-1}(p_i) instead of q = T(p_i):
    the wrong orientation, which the fiber oracle must reject."""
    forward = curve_case4(ct, lam, big_part)
    T_inv = forward.details["normalizer"].inverse()
    q_values = tuple(T_inv(pt) for pt in forward.details["big_points"])
    roots = tuple(z for q in q_values for z in quartic_factor_roots(q))
    return CurveConstruction(
        forward.label,
        HyperellipticCurve(forward.curve.genus, roots),
        ct,
        forward.lam,
        {**forward.details, "q_values": q_values},
    )


def case3_quartic_map_branch_values(lam3):
    """Branch values of Q2(x) = alpha (x^2 + x^-2) + beta: (INF, M(2), M(-2))."""
    alpha, beta = case3_coupling(lam3)
    return (INF, 2 * alpha + beta, -2 * alpha + beta)


def count_slope_builds(monkeypatch):
    """The Lambda of every slope-table build, in build order."""
    table = Lambda.__dict__["slopes"]
    build = table.func
    builds = []

    def counted(lam):
        builds.append(lam)
        return build(lam)

    monkeypatch.setattr(table, "func", counted)
    return builds


def reference_evaluate_slope(slope, t1):
    """t_j(t_1) by the operators of the slope's own numbers; a Fraction
    falls back to complex arithmetic for a complex t_1."""
    c0, c1 = slope
    return c0 + c1 * t1


def rhs_degree(model, exponents) -> int:
    """t_1-degree of prod_j t_j(t_1)^{l_j}: the sum of the exponents of the
    t_j that depend on t_1."""
    return sum(l for l, (c0, c1) in zip(exponents, model.slopes) if c1 != 0)


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


def monomial(point: FiberPoint, exponents) -> complex:
    """The monomial x^exponents at a fiber point."""
    value = 1 + 0j
    for e, xi in zip(exponents, point.x):
        if e:
            value *= xi**e
    return value


def reference_quotient_checks(models, samples: int, seed: int):
    """The sampled checks verify_quotient_model reports, from the points
    drawn on their own: the worst fiber residual, once per model.  One list
    of CheckReports per model."""
    models = list(models)
    ct, lam = models[0].curve_type, models[0].lam
    points = sample_points(ct, lam, samples, seed)
    max_fiber = max(max(fiber_equation_residuals(pt)) for pt in points)
    return [
        [CheckReport("fiber_residuals", max_fiber, samples, max_fiber <= CONSTRUCTION_TOL)]
        for model in models
    ]


def reference_fiber_check(points, roots, mapping, expected_fiber: int, tol: float) -> CheckReport:
    """verify._fiber_check by the per-pair route: every image and target is
    made complex again at each pair it is compared in."""
    max_residual = 0.0
    ok = True
    assigned = 0
    images = [mapping(root) for root in roots]
    for target in points:
        hits = 0
        for image in images:
            if sphere_close(image, target, tol):
                hits += 1
                if not is_inf(image) and not is_inf(target):
                    diff = abs(complex(image) - complex(target))
                    max_residual = max(max_residual, diff / max(1.0, abs(complex(target))))
        if hits != expected_fiber:
            ok = False
        assigned += hits
    if assigned != len(roots):
        ok = False
    return CheckReport("branch_fibers", max_residual, len(roots), ok)


def reference_deck_check(roots, transforms, tol: float) -> CheckReport:
    """verify._deck_check by the all-pairs route: each image is compared with
    every root, and a NaN distance is no distance, so a NaN image fails.  An
    INF root's image is INF whatever the transform, so this agrees with
    verify._deck_check wherever the transforms fix INF."""
    ok = True
    max_residual = 0.0
    values = [None if is_inf(r) else complex(r) for r in roots]  # None for INF
    for transform in transforms:
        for root, value in zip(roots, values):
            image = INF if value is None else transform(root)
            if is_inf(image):
                best = min(0.0 if v is None else math.inf for v in values)
            else:
                image = complex(image)
                distances = (abs(image - v) for v in values if v is not None)
                best = min((d for d in distances if not math.isnan(d)), default=math.inf)
            if not best <= tol * 10:
                ok = False
            if best < math.inf:
                max_residual = max(max_residual, best)
    return CheckReport("deck_symmetry", max_residual, len(roots), ok)


def reference_distinctness(roots, tol: float = 1e-8) -> CheckReport:
    """verify._distinctness by the all-pairs route."""
    ok = not any(sphere_close(a, b, tol) for a, b in combinations(roots, 2))
    return CheckReport("roots_distinct", 0.0, len(roots), ok)


def sampled_invariance_failures(model, points, tol: float = CHECK_TOL) -> list[tuple]:
    """The (exponent vector, row of K) pairs whose monomial moves under the
    row's action x_j -> zeta^(k_j) x_j by more than tol (relative) at some
    sample point, in (vector, row) order.  Numeric K-invariance, as a test
    oracle for the exact pairing of ``kummer_certificate``."""
    p = model.p
    zeta = cmath.exp(2j * math.pi / p)
    failures = []
    for vec in model.lattice_basis:
        values = [monomial(point, vec) for point in points]
        for row in model.subgroup.basis:
            shift = [zeta ** (k % p) for k in row]
            for point, s in zip(points, values):
                s2 = 1 + 0j
                for xi, z, e in zip(point.x, shift, vec):
                    if e:
                        s2 *= (xi * z) ** e
                if abs(s2 - s) / max(1.0, abs(s), abs(s2)) > tol:
                    failures.append((vec, row))
                    break
    return failures


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


def moebius_stabiliser_order(lam) -> int:
    """|G_lambda| of an exact lambda, from the Moebius maps themselves: the
    ordered triples (a, b, c) of cone points whose map z -> (c - a)(z - b) /
    ((c - b)(z - a)), which sends a, b, c to inf, 0, 1 and is applied here in
    Fractions, takes the cone points onto themselves.  None stands for inf."""
    points = [None, Fraction(0), Fraction(1), *map(Fraction, lam)]

    def image(z, a, b, c):
        # (alpha, beta, gamma, delta) of the map, with the factors at inf dropped
        if a is None:
            alpha, beta, gamma, delta = 1, -b, 0, c - b
        elif b is None:
            alpha, beta, gamma, delta = 0, c - a, 1, -a
        elif c is None:
            alpha, beta, gamma, delta = 1, -b, 1, -a
        else:
            alpha, beta, gamma, delta = c - a, -(c - a) * b, c - b, -(c - b) * a
        if z is None:
            return None if gamma == 0 else Fraction(alpha) / gamma
        den = gamma * z + delta
        return None if den == 0 else (alpha * z + beta) / den

    # the map is one to one, so it takes the cone points onto themselves
    # once it takes each of them to one of them
    cone = set(points)
    return sum(
        all(image(z, a, b, c) in cone for z in points) for a, b, c in permutations(points, 3)
    )


def j_invariants(lam) -> Counter:
    """Multiset of the j-invariants of all four-point subsets of the cone
    points; equal on every orbit, so a difference certifies inequivalence."""
    out = Counter()
    for a, b, c, d in combinations(cone_points(lam), 4):
        x = moebius_from_three_points(a, b, c)(d)
        out[256 * (x * x - x + 1) ** 3 / (x * x * (x - 1) ** 2)] += 1
    return out


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


def multisets_close(xs, ys, tol: float = 1e-9) -> bool:
    """Match two point multisets on the sphere up to tolerance, greedily."""
    if len(xs) != len(ys):
        return False
    remaining = list(ys)
    for x in xs:
        hit = next((i for i, y in enumerate(remaining) if sphere_close(x, y, tol)), None)
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def polys_close(f, g, tol: float = 1e-9) -> bool:
    """Coefficient-wise comparison of two monic coefficient vectors."""
    if len(f) != len(g):
        return False
    for a, b in zip(f, g):
        diff = abs(complex(a) - complex(b))
        scale = max(1.0, abs(complex(a)), abs(complex(b)))
        if diff > tol * scale:
            return False
    return True


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
