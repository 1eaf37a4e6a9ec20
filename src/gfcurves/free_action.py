"""Freely-acting subgroups of H = Z_p^n.

Freeness has one test: only powers of a single a_j have fixed points and K
has prime exponent, so K acts freely iff no standard generator a_j lies in K,
that is, iff no a_j has image zero in H/K (``Subgroup.generator_images``).
On K's RREF basis, a_j (j <= n) lies in K iff some row is the unit vector
e_j, and a_{n+1} iff the rows sum to the all-ones vector.

``enumerate_free_subgroups`` walks the RREF rows depth first in ascending
order: never a unit row, and at the last row never the one that completes
the all-ones sum.  It yields every free subgroup once, already sorted, with
its images only when asked; ``require_free`` attaches them to any other K.
A free subgroup of rank n - r is also the kernel of a surjection onto Z_p^r,
given by an ``AdmissiblePartition`` of the a_j by their images.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, prod

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


# A command asks for the n - 1 tables of its type once for each rank that it
# walks, and the work budget keeps a command that walks every rank at n <= 18
# (rank 1 of (2,18) alone has 262,124 free subgroups), so 32 tables hold them.
@lru_cache(maxsize=32)
def _pivot_rows(p: int, n: int, q: int):
    """The rows (length n + 1, last coordinate 0) with leading 1 at column q < n - 1, tails
    ascending and the unit row left out, as a function of k: those that leave at least k of
    the columns q + 1, ..., n - 2 (which can take a later pivot; n - 1 cannot, its row would be
    a unit) zero, each with the mask of those zero columns, or bare at k = 0.  Each k's rows
    are built on first use, so a walk of rank n - 1 builds a few, not p^(n-1-q) - 1."""

    @lru_cache(maxsize=None)
    def at_least(k: int) -> list:
        rows = [((0,) * q + (1,), 0, n - 2 - q - k)]  # with the nonzero entries each may still take
        for c in range(q + 1, n - 1):
            bit = 1 << c
            rows = [(row + (v,), zero, left - 1) if v else (row + (v,), zero | bit, left)
                    for row, zero, left in rows for v in range(p) if not v or left > 0]
        rows = [(row + (v, 0), zero) for row, zero, _ in rows for v in range(p)][1:]
        return rows if k else [row for row, _ in rows]

    return at_least


def enumerate_free_subgroups(
    ct: CurveType, m: int, budget: int = DEFAULT_NODE_BUDGET, images: bool = False
) -> list[Subgroup]:
    """All rank-m freely-acting subgroups, in ascending order of their RREF
    bases.  With ``images`` each carries ``generator_images()`` as its
    images; without, its images are None.  A walk that offers more than
    ``budget`` rows raises ResourceLimitError."""
    # Every subgroup is a distinct leaf of the walk, so a count above the
    # budget means the walk would exceed it too, only much later.
    free_subgroup_count(ct, m, budget)
    p, n = ct.p, ct.n
    # tables[q](k): the rows at pivot q that leave at least k later pivot
    # columns zero (each with its mask), for a row with k pivots still to
    # place after it; tables[q](0) holds the bare rows, for the last row.
    tables = [_pivot_rows(p, n, q) for q in range(n - 1)]
    out = []
    leaves = _imaged_leaves(ct, out) if images else None
    nodes = 0

    def walk(prefix, pivots, mask, rest, need):
        # The rows of prefix ascend in pivot; mask holds the columns right
        # of the last pivot that every row leaves zero, and rest is the
        # all-ones vector minus their sum: the one last row that would put
        # a_{n+1} in K.  need is the number of rows still to place after
        # the next one.  Pivots descend, so rows ascend.  A prefix with too
        # few columns left for its pivots is pruned before the call.
        nonlocal nodes
        for q in range(n - 2, -1, -1):
            if not mask >> q & 1 or (mask >> q + 1).bit_count() < need:
                continue
            level = tables[q](need)
            nodes += len(level)
            if nodes > budget:
                raise ResourceLimitError(f"free-subgroup walk exceeded {budget} nodes")
            if need:
                for row, zero in level:
                    later = mask & zero
                    if later.bit_count() >= need:
                        walk(prefix + (row,), pivots + (q,), later,
                             tuple([(a - b) % p for a, b in zip(rest, row)]), need - 1)
            elif leaves is not None:
                leaves(prefix, pivots + (q,), level, rest)
            else:
                out.extend([Subgroup(ct, prefix + (row,)) for row in level if row != rest])

    try:
        walk((), (), (1 << n - 1) - 1, (1,) * n + (0,), m - 1)
    finally:
        del walk  # walk refers to itself; the cycle would keep its tables alive
    return out


def _imaged_leaves(ct: CurveType, out: list):
    """The walk's last level with images: a function that appends to out the
    subgroups prefix + (row,) for the rows of a level other than ``rest``,
    each carrying generator_images().  A pivot's image is minus its row on
    the free columns, memoised per row and set of free columns; a free
    column's is a unit vector; a_{n+1}'s is the sum of the rows, less one,
    on the free columns.  Equal image vectors are one object."""
    p, n = ct.p, ct.n
    frames = {}  # pivot columns -> (free columns, images with the units in place, row -> image)
    intern = {}.setdefault

    def leaves(prefix, pivots, level, rest):
        if pivots not in frames:
            free = tuple(c for c in range(n) if c not in pivots)
            units = [None] * n
            for k, c in enumerate(free):
                unit = tuple(int(i == k) for i in range(len(free)))
                units[c] = intern(unit, unit)
            frames[pivots] = free, units, {}
        free, images, memo = frames[pivots]

        def image(row):
            if row not in memo:
                image = tuple([-row[f] % p for f in free])
                memo[row] = intern(image, image)
            return memo[row]

        images = images[:]
        for row, q in zip(prefix, pivots):
            images[q] = image(row)
        q = pivots[-1]
        head, tail = tuple(images[:q]), tuple(images[q + 1 :])
        for row in level:
            if row != rest:
                last = tuple([(row[f] - rest[f]) % p for f in free])
                out.append(Subgroup(ct, prefix + (row,), (*head, image(row), *tail, intern(last, last))))

    return leaves


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
