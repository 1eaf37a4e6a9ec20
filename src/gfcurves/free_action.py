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
walk assigns the columns right to left: position t < n is a_{n-t}, the
forced last value a_{n+1}.  The walk is plain recursion that hands each
leaf to a ``visit`` callback, with which ``enumerate_free_subgroups`` reads
the kernel's RREF basis straight off the leaf's image columns, with no
elimination.

Freeness has one test: only powers of a single a_j have fixed points and K
has prime exponent, so K acts freely iff no standard generator a_j lies in K,
that is, iff no a_j has image zero in H/K (``Subgroup.generator_images``).
A kernel of the walk passes it by construction and carries the walk's image
columns as its ``images``; ``require_free`` attaches them to any other K.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, prod
from operator import attrgetter

from .errors import DomainError, Frozen, MalformedPartitionError, NotFreeSubgroupError, ResourceLimitError, _set
from .groups import (
    CurveType,
    GroupElement,
    Subgroup,
    genus_fermat,
    nullspace_mod_p,
    rref_mod_p,
    standard_generators,
)

DEFAULT_NODE_BUDGET = 10**8


def zp_elements(p: int, r: int) -> list[tuple[int, ...]]:
    """All of Z_p^r in lexicographic order; index 0 is the identity."""
    return [tuple(v) for v in product(range(p), repeat=r)]


class AdmissiblePartition(Frozen):
    """Ordered tuple (I_1, ..., I_{p^r-1}) of disjoint parts covering 1..n+1."""

    __slots__ = ("curve_type", "r", "parts")

    def __init__(self, curve_type: CurveType, r: int, parts: tuple[frozenset, ...]):
        _set(self, "curve_type", curve_type)
        _set(self, "r", r)
        _set(self, "parts", parts)

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


def kernel_of_partition(partition: AdmissiblePartition) -> Subgroup:
    """Kernel of the homomorphism a_j -> u_k (j in I_k), a rank n-r subgroup,
    carrying the labels of a_1, ..., a_{n+1} as its images."""
    ct = partition.curve_type
    if not is_admissible(partition):
        raise DomainError("partition is not admissible")
    label_of = {}
    for part, u in zip(partition.parts, partition.labels):
        for j in part:
            label_of[j] = u
    columns = tuple(label_of[j] for j in range(1, ct.n + 2))
    K = Subgroup.from_generators(ct, nullspace_mod_p(list(zip(*columns)), ct.p, ct.n + 1))
    return Subgroup(ct, K.basis, columns)


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
    ``enumerate_free_subgroups`` sends position t < n to a_{n-t} and the
    forced value to a_{n+1}, which puts e_1, e_2, ... on columns right to
    left.  It recurses plainly, with no generator frames, and looks each
    partial sum and forced value up in a dict of this walk; a walk of more
    than ``budget`` nodes raises ResourceLimitError."""
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


def free_subgroup_count(ct: CurveType, m: int, limit: int) -> int:
    """count_free_subgroups(ct, m) when it is at most ``limit``; else
    ResourceLimitError at once, before any walk.

    The exact count grows like n^3 in bits.  Kernels with a_1, ..., a_r ->
    e_1, ..., e_r are distinct, so (q-1)^(m-1) (q-2) with q = p^r (r = n - m)
    bounds it from below and refuses large requests before it is computed."""
    r = ct.n - m
    if not (1 <= m < ct.n and (ct.p**r - 1) ** (m - 1) * (ct.p**r - 2) > limit):
        count = count_free_subgroups(ct, m)
        if count <= limit:
            return count
    raise ResourceLimitError(f"rank {m} of type ({ct.p},{ct.n}) has more than {limit} freely-acting subgroups")


def enumerate_free_subgroups(
    ct: CurveType, m: int, budget: int = DEFAULT_NODE_BUDGET
) -> list[Subgroup]:
    """All rank-m freely-acting subgroups, canonically sorted."""
    # Every subgroup is a distinct leaf of the walk, so a count above the
    # budget means the walk would exceed it too, only much later.
    free_subgroup_count(ct, m, budget)
    # Position t < n is column n-1-t, so e_1, e_2, ... land on pivot columns
    # q_1 > q_2 > ... of the r x n image matrix A, with A[:, Q] = I: q_d is
    # n-1 minus the position where the walk puts the fresh e_d (e_d cannot
    # be the forced value, since the values before it span).  Each other
    # column f gives the kernel row e_f - sum_i A[i][f] e_{q_i}, whose
    # leading 1 sits at f because every q_i it touches lies right of f: these
    # rows, f ascending, are K's RREF basis.  A row depends on Q, f and the
    # column alone, so kernels share one tuple each: per set of fresh
    # positions, the free columns f with their positions and a row memo each.
    p, n, r = ct.p, ct.n, ct.n - m
    free_columns = {}
    kernels = []

    def kernel(values, fresh):
        frame = free_columns.get(fresh)
        if frame is None:
            pivots = [n - 1 - t for t in fresh]
            frame = free_columns[fresh] = pivots, [(f, n - 1 - f, {}) for f in range(n) if f not in pivots]
        pivots, columns = frame
        basis = []
        for f, t, rows in columns:
            column = values[t]
            row = rows.get(column)
            if row is None:
                v = [0] * (n + 1)
                v[f] = 1
                for q, a in zip(pivots, column):
                    v[q] = -a % p
                row = rows[column] = tuple(v)
            basis.append(row)
        # the columns are nonzero, so K acts freely and carries them
        kernels.append(Subgroup(ct, tuple(basis), values[n - 1 :: -1] + values[n:]))

    _iter_canonical_assignments(n + 1, r, p, budget, kernel)
    # One curve type throughout, so the bases alone give the canonical order.
    kernels.sort(key=attrgetter("basis"))
    return kernels


def fixed_point_witness(K: Subgroup) -> GroupElement | None:
    """The first standard generator a_j in K (zero image in H/K), or None if
    K acts freely."""
    for j, image in enumerate(K.generator_images()):
        if not any(image):
            return standard_generators(K.curve_type)[j]
    return None


def require_free(K: Subgroup) -> Subgroup:
    """K carrying its generator images, once K is known to act freely.  A K
    that carries images already (from the walk or an earlier call) is
    returned unchecked; any other K is checked here, once."""
    if K.images is not None:
        return K
    images = tuple(K.generator_images())
    if all(map(any, images)):
        return Subgroup(K.curve_type, K.basis, images)
    witness = fixed_point_witness(K)
    raise NotFreeSubgroupError(
        f"subgroup is not free: {witness.word()} has fixed points",
        witness=witness,
    )


def quotient_genus(ct: CurveType, m: int) -> int:
    """Genus of the unbranched quotient by any freely-acting rank-m subgroup."""
    if not 0 <= m <= ct.n - 1:
        raise DomainError(f"rank m = {m} outside 0..{ct.n - 1}")
    g = genus_fermat(ct)
    order = ct.p**m
    if (g - 1) % order != 0:
        raise DomainError(f"genus {g} incompatible with a free p^{m} action")
    return 1 + (g - 1) // order


def allowed_hyperelliptic_ranks(ct: CurveType) -> frozenset[int]:
    """Ranks m for which a free Z_2^m quotient can be hyperelliptic; one
    frozenset per (p, n), since the classification asks for every subgroup."""
    return _hyperelliptic_ranks(ct.p, ct.n)


@lru_cache(maxsize=64)
def _hyperelliptic_ranks(p: int, n: int) -> frozenset[int]:
    if p != 2:
        raise DomainError("rank bound is specific to p = 2")
    if n < 4:
        raise DomainError("p = 2 requires n >= 4")
    if n % 2 == 1:
        return frozenset({n - 3, n - 2, n - 1})
    return frozenset({n - 3, n - 2})
