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
from dataclasses import dataclass
from itertools import product

from .errors import DomainError

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


@dataclass(frozen=True, order=True)
class CurveType:
    """Type (p, n) with p prime; the underlying surface has genus >= 1.

    The hyperelliptic classification assumes (p-1)(n-1) > 2 (genus > 1); the
    boundary case (p-1)(n-1) == 2 (genus one, e.g. (3, 2)) is accepted so
    that the degree-3 Fermat quotient y^2 = x^3 - 1 stays constructible.
    """

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"p = {self.p} is not prime")
        if self.n < 2:
            raise DomainError(f"n = {self.n} must be at least 2")
        if (self.p - 1) * (self.n - 1) < 2:
            raise DomainError(
                f"type ({self.p}, {self.n}) rejected: (p-1)(n-1) must be at least 2"
            )

    @property
    def num_generators(self) -> int:
        return self.n + 1

    @property
    def num_lambdas(self) -> int:
        return self.n - 2


def genus_fermat(ct: CurveType) -> int:
    """Genus of the fiber-product curve itself (1 + p^{n-1}((n-1)(p-1)-2)/2)."""
    num = ct.p ** (ct.n - 1) * ((ct.n - 1) * (ct.p - 1) - 2)
    assert num % 2 == 0
    return 1 + num // 2


@dataclass(frozen=True, order=True)
class GroupElement:
    """Element of H in canonical form (length n+1, last coordinate 0)."""

    curve_type: CurveType
    exponents: tuple[int, ...]

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
        if self.is_identity():
            return "1"
        parts = []
        for j, e in enumerate(self.exponents, start=1):
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


# -- F_p linear algebra on exponent vectors ----------------------------------


def rref_mod_p(rows, p: int):
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot cols)."""
    mat = [list(int(x) % p for x in row) for row in rows]
    if not mat:
        return (), ()
    width = len(mat[0])
    pivots = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] % p != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] % p != 0:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def reduce_against(vec, basis, pivots, p: int):
    """Reduce vec modulo the row space of an RREF basis; 0 iff contained."""
    v = [int(x) % p for x in vec]
    for row, col in zip(basis, pivots):
        if v[col] % p != 0:
            f = v[col]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(v)


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


@dataclass(frozen=True, order=True)
class Subgroup:
    """Subgroup of H, identified by its canonical RREF basis over F_p.

    Basis rows are canonical exponent vectors (length n+1, last coordinate 0),
    so the comparison/hash is the subgroup identity.
    """

    curve_type: CurveType
    basis: tuple[tuple[int, ...], ...]

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
        # basis rows are already in reduced row echelon form
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.basis)

    def contains(self, g: GroupElement) -> bool:
        residue = reduce_against(
            g.exponents, self.basis, self.pivots(), self.curve_type.p
        )
        return all(x == 0 for x in residue)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return all(
            self.contains(GroupElement(self.curve_type, row)) for row in other.basis
        )

    def elements(self):
        """Iterate all p^rank elements (desk-scale subgroups only)."""
        ct = self.curve_type
        for coeffs in product(range(ct.p), repeat=self.rank):
            exps = [0] * (ct.n + 1)
            for c, row in zip(coeffs, self.basis):
                for i, e in enumerate(row):
                    exps[i] += c * e
            yield GroupElement.from_exponents(ct, exps)

    def generator_words(self) -> tuple[str, ...]:
        return tuple(GroupElement(self.curve_type, row).word() for row in self.basis)

    def join(self, g: GroupElement) -> "Subgroup":
        """Subgroup generated by self and one extra element."""
        rows = list(self.basis) + [g.exponents]
        basis, _ = rref_mod_p(rows, self.curve_type.p)
        return Subgroup(self.curve_type, basis)

    def to_json(self) -> dict:
        return {
            "p": self.curve_type.p,
            "n": self.curve_type.n,
            "basis": [list(row) for row in self.basis],
            "generators": list(self.generator_words()),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Subgroup":
        ct = CurveType(data["p"], data["n"])
        return cls.from_generators(ct, data["basis"])


def subgroup_from_generators(ct: CurveType, gens) -> Subgroup:
    return Subgroup.from_generators(ct, gens)
