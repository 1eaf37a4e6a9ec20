"""Freely-acting subgroups via admissible index partitions.

A rank-(n-r) subgroup acts freely iff it is the kernel of a surjective map
H -> Z_p^r sending every standard generator to a nonidentity element whose
images multiply to 1.  Such a map is encoded as an ordered partition
(I_1, ..., I_{p^r-1}) of {1, ..., n+1} indexed by the nonidentity elements
u_1, ..., u_{p^r-1} of Z_p^r (fixed lexicographic order).

Enumeration walks one canonical assignment per GL_r(F_p) orbit: relabeling
the target group does not change the kernel, and distinct orbits have
distinct kernels, so canonical representatives (fresh basis vectors appear in
order e_1, e_2, ...) cover every freely-acting subgroup exactly once.  The
walk puts e_k at its k-th pivot column, so the r x (n+1) image matrix is
already in reduced row echelon form and the kernel is written down directly:
one generator per non-pivot column.

Freeness has one test: only powers of a single a_j have fixed points and K
has prime exponent, so K acts freely iff no standard generator a_j lies in K.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod

from .errors import DomainError, MalformedPartitionError, NotFreeSubgroupError, ResourceLimitError
from .groups import (
    CurveType,
    GroupElement,
    Subgroup,
    genus_fermat,
    has_fixed_points,
    reduce_against,
    rref_mod_p,
    standard_generators,
)

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_ORACLE_LIMIT = 10**6


def zp_elements(p: int, r: int) -> list[tuple[int, ...]]:
    """All of Z_p^r in lexicographic order; index 0 is the identity."""
    return [tuple(v) for v in product(range(p), repeat=r)]


@dataclass(frozen=True)
class AdmissiblePartition:
    """Ordered tuple (I_1, ..., I_{p^r-1}) of disjoint parts covering 1..n+1."""

    curve_type: CurveType
    r: int
    parts: tuple[frozenset, ...]

    @classmethod
    def from_parts(cls, ct: CurveType, r: int, parts) -> "AdmissiblePartition":
        if not 1 <= r <= ct.n - 1:
            raise DomainError(f"r = {r} outside 1..{ct.n - 1}")
        parts = tuple(frozenset(part) for part in parts)
        if len(parts) != ct.p**r - 1:
            raise MalformedPartitionError(
                f"expected {ct.p ** r - 1} parts, got {len(parts)}"
            )
        seen = set()
        for part in parts:
            if part & seen:
                raise MalformedPartitionError("parts overlap")
            seen |= part
        if seen != set(range(1, ct.n + 2)):
            raise MalformedPartitionError("parts do not cover {1, ..., n+1}")
        return cls(ct, r, parts)

    @property
    def labels(self) -> list[tuple[int, ...]]:
        """The fixed ordering u_1, ..., u_{p^r-1} of nonidentity elements."""
        return zp_elements(self.curve_type.p, self.r)[1:]


def is_admissible(partition: AdmissiblePartition) -> bool:
    """Check the product-one and generation conditions."""
    p = partition.curve_type.p
    r = partition.r
    labels = partition.labels
    total = [0] * r
    for part, u in zip(partition.parts, labels):
        for i in range(r):
            total[i] = (total[i] + len(part) * u[i]) % p
    if any(total):
        return False
    used = [u for part, u in zip(partition.parts, labels) if part]
    _, pivots = rref_mod_p(used, p) if used else ((), ())
    return len(pivots) == r


def _kernel_from_rref(ct: CurveType, columns, pivots) -> Subgroup:
    """Kernel of a_j -> columns[j] when the image matrix is in RREF with the
    given pivot columns: one generator per non-pivot column."""
    p = ct.p
    gens = []
    for f, column in enumerate(columns):
        if f in pivots:
            continue
        v = [0] * (ct.n + 1)
        v[f] = 1
        for c, x in zip(pivots, column):
            v[c] = -x % p
        gens.append(v)
    return Subgroup.from_generators(ct, gens)


def kernel_of_partition(partition: AdmissiblePartition) -> Subgroup:
    """Kernel of the homomorphism a_j -> u_k (j in I_k), a rank n-r subgroup."""
    ct = partition.curve_type
    if not is_admissible(partition):
        raise DomainError("partition is not admissible")
    label_of = {}
    for part, u in zip(partition.parts, partition.labels):
        for j in part:
            label_of[j] = u
    # r x (n+1) matrix whose column j is the image of a_j.
    rows = [
        tuple(label_of[j][i] for j in range(1, ct.n + 2)) for i in range(partition.r)
    ]
    basis, pivots = rref_mod_p(rows, ct.p)
    return _kernel_from_rref(ct, list(zip(*basis)), pivots)


def _in_span_options(p: int, dim: int, r: int):
    """Nonzero vectors of F_p^r supported on the first dim coordinates."""
    out = []
    for head in product(range(p), repeat=dim):
        if any(head):
            out.append(head + (0,) * (r - dim))
    return out


def _iter_canonical_assignments(count: int, r: int, p: int, budget: int):
    """Yield canonical value sequences: one per GL_r(F_p) orbit of admissible
    assignments {1..count} -> Z_p^r \\ {0} that span and multiply to one."""
    span_cache = {dim: _in_span_options(p, dim, r) for dim in range(r + 1)}
    unit = [tuple(1 if i == d else 0 for i in range(r)) for d in range(r)]
    nodes = 0

    def walk(pos, dim, partial, values):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError(
                f"partition enumeration exceeded {budget} nodes"
            )
        if dim + (count - pos) < r:
            return
        if pos == count - 1:
            forced = tuple((-s) % p for s in partial)
            if not any(forced):
                return
            if any(forced[dim:]):
                # Out of the current span: canonical form demands e_{dim+1}.
                if dim >= r or forced != unit[dim]:
                    return
                new_dim = dim + 1
            else:
                new_dim = dim
            if new_dim == r:
                yield values + (forced,)
            return
        for v in span_cache[dim]:
            yield from walk(
                pos + 1,
                dim,
                tuple((a + b) % p for a, b in zip(partial, v)),
                values + (v,),
            )
        if dim < r:
            v = unit[dim]
            yield from walk(
                pos + 1,
                dim + 1,
                tuple((a + b) % p for a, b in zip(partial, v)),
                values + (v,),
            )

    yield from walk(0, 0, (0,) * r, ())


def count_free_subgroups(ct: CurveType, m: int) -> int:
    """Number of rank-m freely-acting subgroups, in closed form.

    Such a subgroup is the kernel of a surjection H -> F_p^r (r = n - m) that
    sends each of the N = n + 1 standard generators to a nonzero vector, the
    N images summing to zero; surjections with the same kernel differ by
    GL_r(F_p).  With q = p^d, the number of such assignments into F_p^d
    (spanning or not) is

        f(d) = ((q - 1)^N + (q - 1)(-1)^N) / q,

    and Moebius inversion over the subspace lattice of F_p^r (Stanley, EC1
    section 3.10) keeps the spanning ones:

        S(r) = sum_k (-1)^(r-k) p^C(r-k, 2) [r choose k]_p f(k).

    The count is S(r) / |GL_r(F_p)|.
    """
    if not 1 <= m <= ct.n - 1:
        raise DomainError(f"rank m = {m} outside 1..{ct.n - 1}")
    p, r, N = ct.p, ct.n - m, ct.n + 1

    def gaussian_binomial(k: int) -> int:
        return prod(p ** (r - i) - 1 for i in range(k)) // prod(p ** (i + 1) - 1 for i in range(k))

    def assignments(d: int) -> int:
        q = p**d
        return ((q - 1) ** N + (q - 1) * (-1) ** N) // q

    spanning = sum(
        (-1) ** (r - k) * p ** comb(r - k, 2) * gaussian_binomial(k) * assignments(k)
        for k in range(r + 1)
    )
    return spanning // prod(p**r - p**i for i in range(r))


def enumerate_free_subgroups(
    ct: CurveType, m: int, budget: int = DEFAULT_NODE_BUDGET
) -> list[Subgroup]:
    """All rank-m freely-acting subgroups, canonically sorted."""
    # Every subgroup is a distinct leaf of the walk, so a count above the
    # budget means the walk would exceed it too, only much later.
    if count_free_subgroups(ct, m) > budget:
        raise ResourceLimitError(
            f"rank {m} has more freely-acting subgroups than the budget of {budget} walk nodes"
        )
    r = ct.n - m
    kernels = []
    for values in _iter_canonical_assignments(ct.n + 1, r, ct.p, budget):
        pivots = [next(j for j, v in enumerate(values) if v[i]) for i in range(r)]
        kernels.append(_kernel_from_rref(ct, values, pivots))
    return sorted(kernels)


def is_free_oracle(K: Subgroup, limit: int = DEFAULT_ORACLE_LIMIT) -> bool:
    """Exhaustive check that no nonidentity element of K has fixed points."""
    if K.order > limit:
        raise ResourceLimitError(f"subgroup order {K.order} exceeds {limit}")
    return not any(has_fixed_points(h) for h in K.elements() if not h.is_identity())


def fixed_point_witness(K: Subgroup) -> GroupElement | None:
    """The first standard generator a_j in K, or None if K acts freely."""
    pivots = K.pivots()
    for a in standard_generators(K.curve_type):
        if not any(reduce_against(a.exponents, K.basis, pivots, K.curve_type.p)):
            return a
    return None


def require_free(K: Subgroup) -> None:
    witness = fixed_point_witness(K)
    if witness is not None:
        raise NotFreeSubgroupError(
            f"subgroup is not free: {witness.word()} has fixed points",
            witness=witness,
        )


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


def quotient_genus(ct: CurveType, m: int) -> int:
    """Genus of the unbranched quotient by any freely-acting rank-m subgroup."""
    if not 0 <= m <= ct.n - 1:
        raise DomainError(f"rank m = {m} outside 0..{ct.n - 1}")
    g = genus_fermat(ct)
    order = ct.p**m
    if (g - 1) % order != 0:
        raise DomainError(f"genus {g} incompatible with a free p^{m} action")
    return 1 + (g - 1) // order


def allowed_hyperelliptic_ranks(ct: CurveType) -> set[int]:
    """Ranks m for which a free Z_2^m quotient can be hyperelliptic."""
    if ct.p != 2:
        raise DomainError("rank bound is specific to p = 2")
    if ct.n < 4:
        raise DomainError("p = 2 requires n >= 4")
    if ct.n % 2 == 1:
        return {ct.n - 3, ct.n - 2, ct.n - 1}
    return {ct.n - 3, ct.n - 2}
