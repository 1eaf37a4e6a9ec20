"""Elementary abelian symmetry group of a degree-p fiber-product curve.

The curve of type (p, n) carries a group H isomorphic to Z_p^n generated by
n+1 coordinate rotations a_1, ..., a_{n+1} subject to the single relation
a_1 a_2 ... a_{n+1} = 1.  Elements are therefore classes of exponent vectors
in F_p^{n+1} modulo the all-ones vector; the class representative with last
coordinate 0 is unique and is used everywhere as the canonical form.

Subgroups are identified by the reduced row echelon form of their canonical
exponent vectors over F_p, which makes subgroup equality a tuple comparison.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import DomainError, Ordered, _set

_WORD_TOKEN = re.compile(r"^a(\d+)(?:\^(-?\d+))?$")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class CurveType(Ordered):
    """Type (p, n) with p prime; the underlying surface has genus >= 1.

    The hyperelliptic classification assumes (p-1)(n-1) > 2 (genus > 1); the
    boundary case (p-1)(n-1) == 2 (genus one, e.g. (3, 2)) is accepted so
    that the degree-3 Fermat quotient y^2 = x^3 - 1 stays constructible.
    """

    __slots__ = ("p", "n")

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        if n < 2:
            raise DomainError(f"n = {n} must be at least 2")
        if (p - 1) * (n - 1) < 2:
            raise DomainError(f"type ({p}, {n}) rejected: (p-1)(n-1) must be at least 2")
        _set(self, "p", p)
        _set(self, "n", n)


def genus_fermat(ct: CurveType) -> int:
    """Genus of the fiber-product curve itself (1 + p^{n-1}((n-1)(p-1)-2)/2)."""
    num = ct.p ** (ct.n - 1) * ((ct.n - 1) * (ct.p - 1) - 2)
    assert num % 2 == 0
    return 1 + num // 2


class GroupElement(Ordered):
    """Element of H in canonical form (length n+1, last coordinate 0)."""

    __slots__ = ("curve_type", "exponents")

    def __init__(self, curve_type: CurveType, exponents: tuple[int, ...]):
        _set(self, "curve_type", curve_type)
        _set(self, "exponents", exponents)

    @classmethod
    def from_exponents(cls, ct: CurveType, exps) -> "GroupElement":
        exps = tuple(int(e) for e in exps)
        if len(exps) != ct.n + 1:
            raise DomainError(
                f"exponent vector has length {len(exps)}, expected {ct.n + 1}"
            )
        shift = exps[-1]
        canon = tuple((e - shift) % ct.p for e in exps)
        return cls(ct, canon)

    @classmethod
    def identity(cls, ct: CurveType) -> "GroupElement":
        return cls(ct, (0,) * (ct.n + 1))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.curve_type != other.curve_type:
            raise DomainError("elements of different curve types")
        return GroupElement.from_exponents(
            self.curve_type,
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
        )

    def inverse(self) -> "GroupElement":
        return GroupElement.from_exponents(
            self.curve_type, tuple(-e for e in self.exponents)
        )

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement.from_exponents(
            self.curve_type, tuple(k * e for e in self.exponents)
        )

    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def word(self) -> str:
        """Render as a product of standard generators, e.g. 'a1*a3^2'."""
        return exponent_word(self.exponents)


# A catalog repeats few distinct rows: 119 over the 45,001 basis rows of the
# (2,7) classification, at most p^n in general.
@lru_cache(maxsize=4096)
def exponent_word(exponents: tuple[int, ...]) -> str:
    """The word of a canonical exponent vector, e.g. 'a1*a3^2', or '1'."""
    if not any(exponents):
        return "1"
    parts = []
    for j, e in enumerate(exponents, start=1):
        if e == 1:
            parts.append(f"a{j}")
        elif e > 1:
            parts.append(f"a{j}^{e}")
    return "*".join(parts)


def element_from_word(ct: CurveType, word: str) -> GroupElement:
    """Parse a generator word such as 'a1*a2' or 'a2*a1^-1'."""
    word = word.strip()
    if word in ("1", ""):
        return GroupElement.identity(ct)
    exps = [0] * (ct.n + 1)
    for token in word.split("*"):
        m = _WORD_TOKEN.match(token.strip())
        if not m:
            raise DomainError(f"bad generator token {token!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= ct.n + 1:
            raise DomainError(f"generator index {idx} outside 1..{ct.n + 1}")
        exps[idx - 1] += int(m.group(2)) if m.group(2) else 1
    return GroupElement.from_exponents(ct, exps)


def standard_generators(ct: CurveType) -> list[GroupElement]:
    """The n+1 coordinate rotations a_1, ..., a_{n+1} in canonical form."""
    gens = []
    for j in range(ct.n + 1):
        exps = [0] * (ct.n + 1)
        exps[j] = 1
        gens.append(GroupElement.from_exponents(ct, exps))
    return gens


# -- F_p linear algebra on exponent vectors ----------------------------------


def rref_mod_p(rows, p: int):
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot cols).

    Every entry is reduced to 0..p-1 once, on input, and stays reduced, so
    a nonzero test needs no further ``% p``."""
    mat = [[int(x) % p for x in row] for row in rows]
    if not mat:
        return (), ()
    height = len(mat)
    pivots = []
    r = 0
    for col in range(len(mat[0])):
        for i in range(r, height):
            if mat[i][col]:
                break
        else:
            continue
        lead = mat[i]
        mat[i] = mat[r]
        if lead[col] != 1:
            inv = pow(lead[col], -1, p)
            lead = [x * inv % p for x in lead]
        mat[r] = lead
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != r:
                mat[i] = [(a - f * b) % p for a, b in zip(row, lead)]
        pivots.append(col)
        r += 1
        if r == height:
            break
    return tuple(map(tuple, mat[:r])), tuple(pivots)


def reduce_against(vec, basis, pivots, p: int):
    """Reduce vec modulo the row space of an RREF basis; 0 iff contained."""
    v = [int(x) % p for x in vec]
    for row, col in zip(basis, pivots):
        if v[col] % p != 0:
            f = v[col]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(v)


# A walk's subgroups share few pivot sets and rows: the 14,220 free subgroups
# of (2,7) have 63 pivot sets and 1,133 (row, free columns) pairs.
@lru_cache(maxsize=4096)
def _unit_images(n: int, pivots: tuple[int, ...]):
    """The non-pivot columns < n, and the images of a_1, ..., a_n with a
    unit vector at each of them and None at each pivot."""
    free = tuple(c for c in range(n) if c not in pivots)
    images = [None] * n
    for k, c in enumerate(free):
        images[c] = tuple(int(i == k) for i in range(len(free)))
    return free, images


@lru_cache(maxsize=4096)
def _pivot_image(row: tuple[int, ...], free: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The image of a pivot's a_j: minus its basis row on the free columns."""
    return tuple([-row[c] % p for c in free])


def nullspace_mod_p(rows, p: int, width: int):
    """Lexicographically sorted F_p-basis of the right nullspace."""
    basis, pivots = rref_mod_p(rows, p)
    pivot_set = set(pivots)
    free_cols = [c for c in range(width) if c not in pivot_set]
    out = []
    for fc in free_cols:
        v = [0] * width
        v[fc] = 1
        for row, pc in zip(basis, pivots):
            v[pc] = (-row[fc]) % p
        out.append(tuple(v))
    return sorted(out)


class Subgroup(Ordered):
    """Subgroup of H, identified by its canonical RREF basis over F_p.

    Basis rows are canonical exponent vectors (length n+1, last coordinate 0),
    so comparison, hash and order, those of the tuple (curve_type, basis),
    are the subgroup identity.
    """

    __slots__ = ("curve_type", "basis")

    def __init__(self, curve_type: CurveType, basis: tuple[tuple[int, ...], ...]):
        _set(self, "curve_type", curve_type)
        _set(self, "basis", basis)

    @classmethod
    def from_generators(cls, ct: CurveType, gens) -> "Subgroup":
        rows = []
        for g in gens:
            if isinstance(g, GroupElement):
                if g.curve_type != ct:
                    raise DomainError("generator from a different curve type")
                rows.append(g.exponents)
            else:
                rows.append(GroupElement.from_exponents(ct, g).exponents)
        if not rows:
            raise DomainError("at least one generator required")
        basis, _ = rref_mod_p(rows, ct.p)
        return cls(ct, basis)

    @classmethod
    def from_words(cls, ct: CurveType, words) -> "Subgroup":
        return cls.from_generators(ct, [element_from_word(ct, w) for w in words])

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def order(self) -> int:
        return self.curve_type.p**self.rank

    def pivots(self) -> tuple[int, ...]:
        # basis rows are already in reduced row echelon form: each leads with a 1
        return tuple([row.index(1) for row in self.basis])

    def generator_images(self) -> list[tuple[int, ...]]:
        """Images of a_1, ..., a_{n+1} in H/K, on the non-pivot columns < n.

        A normal form modulo the RREF basis vanishes on the pivot columns, so
        a non-pivot a_j maps to its unit vector, a pivot a_j to minus its row,
        and a_{n+1} (canonically (a_1 ... a_n)^{-1}) to minus the sum of the
        others.  a_j lies in K iff its image is zero; a_i a_j^{-1} does iff
        the images of a_i and a_j are equal.
        """
        p = self.curve_type.p
        pivots = self.pivots()
        free, images = _unit_images(self.curve_type.n, pivots)
        images = images[:]
        for row, q in zip(self.basis, pivots):
            images[q] = _pivot_image(row, free, p)
        images.append(tuple([-sum(column) % p for column in zip(*images)]))
        return images

    def contains(self, g: GroupElement) -> bool:
        residue = reduce_against(
            g.exponents, self.basis, self.pivots(), self.curve_type.p
        )
        return all(x == 0 for x in residue)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return all(
            self.contains(GroupElement(self.curve_type, row)) for row in other.basis
        )

    def generator_words(self) -> tuple[str, ...]:
        return tuple(map(exponent_word, self.basis))

    def join(self, g: GroupElement) -> "Subgroup":
        """Subgroup generated by self and one extra element."""
        rows = list(self.basis) + [g.exponents]
        basis, _ = rref_mod_p(rows, self.curve_type.p)
        return Subgroup(self.curve_type, basis)

    def to_json(self) -> dict:
        return {
            "p": self.curve_type.p,
            "n": self.curve_type.n,
            "basis": list(self.basis),
            "generators": list(self.generator_words()),
        }
