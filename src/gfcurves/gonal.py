"""Cyclic p-gonal models of smooth quotients from invariant monomials.

In the affine chart x_{n+1} = 1 the curve's defining equations solve to
linear expressions t_j(t_1) for t_j = x_j^p, so the quotient by a freely
acting diagonal subgroup K is cut out by one equation per invariant monomial:
s_k^p equals the matching product of the linear polynomials t_j(t_1).

Invariant monomials are the F_p-nullspace of K's affine exponent matrix; a
basis of that nullspace (size n - rank K) generates the quotient function
field over C(t_1), which fixes the number of emitted equations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .free_action import require_free
from .groups import CurveType, Subgroup, nullspace_mod_p, rref_mod_p
from .moduli import validate_lambda


def affine_representation(K: Subgroup) -> tuple[tuple[int, ...], ...]:
    """Basis rows in the chart x_{n+1} = 1: canonical vectors truncated to n."""
    rows = []
    for row in K.basis:
        assert row[-1] == 0, "canonical basis rows end in 0"
        rows.append(row[:-1])
    return tuple(rows)


def invariant_lattice_basis(K: Subgroup) -> list[tuple[int, ...]]:
    """Canonical F_p-basis of exponent vectors orthogonal to K (mod p).

    The nullspace basis is reduced to row echelon form (unique per lattice)
    and lex-sorted, so equal subgroups always emit identical equations.
    """
    ct = K.curve_type
    null = nullspace_mod_p(affine_representation(K), ct.p, ct.n)
    reduced, _ = rref_mod_p(null, ct.p)
    return sorted(reduced)


def slope_table(ct: CurveType, lam) -> tuple[tuple[object, object], ...]:
    """Coefficients (c0, c1) of t_j(t_1) = c0 + c1 t_1 for j = 1..n.

    t_1 is the free variable.  The last fiber equation reads
    lam_{n-2} t_1 + t_2 + 1 = 0 (with lam_{n-2} meaning 1 when n = 2), and
    the remaining ones eliminate t_3, ..., t_n.
    """
    lam = validate_lambda(lam, ct.n)
    last = lam[-1] if ct.n >= 3 else 1
    slopes = [(0, 1), (-1, -last)]
    if ct.n >= 3:
        anchors = [1] + list(lam[:-1])
        for prev in anchors:
            slopes.append((1, last - prev))
    return tuple(slopes[: ct.n])


def evaluate_slope(slope, t1):
    c0, c1 = slope
    return c0 + c1 * t1


@dataclass(frozen=True)
class CyclicGonalModel:
    """Equations s_k^p = prod_j t_j(t_1)^{l_{j,k}} presenting the quotient."""

    subgroup: Subgroup
    lam: tuple
    lattice_basis: tuple[tuple[int, ...], ...]
    slopes: tuple[tuple[object, object], ...]

    @property
    def curve_type(self) -> CurveType:
        return self.subgroup.curve_type

    @property
    def p(self) -> int:
        return self.curve_type.p

    def num_equations(self) -> int:
        return len(self.lattice_basis)

    def rhs_degree(self, exponents) -> int:
        return sum(
            l for l, (c0, c1) in zip(exponents, self.slopes) if c1 != 0
        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "t1_slopes": [[_num_json(c0), _num_json(c1)] for c0, c1 in self.slopes],
            "equations": [{"exponents": list(l)} for l in self.lattice_basis],
        }

    @classmethod
    def from_json(cls, data: dict, subgroup: Subgroup, lam) -> "CyclicGonalModel":
        slopes = tuple(
            (_num_unjson(c0), _num_unjson(c1)) for c0, c1 in data["t1_slopes"]
        )
        basis = tuple(tuple(eq["exponents"]) for eq in data["equations"])
        return cls(subgroup, tuple(lam), basis, slopes)


def _num_json(v):
    c = complex(v)
    return [c.real, c.imag]


def _num_unjson(pair):
    return complex(pair[0], pair[1])


def cyclic_gonal_model(K: Subgroup, lam, paper_style: bool = False) -> CyclicGonalModel:
    """Quotient model for a freely-acting K at the parameter tuple lam.

    With paper_style, products of basis pairs (reduced mod p) are appended,
    reproducing redundant generator lists like the three-monomial examples.
    """
    ct = K.curve_type
    lam = validate_lambda(lam, ct.n)
    require_free(K)
    basis = invariant_lattice_basis(K)
    vectors = list(basis)
    if paper_style:
        extra = set()
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                v = tuple((a + b) % ct.p for a, b in zip(basis[i], basis[j]))
                if any(v) and v not in basis:
                    extra.add(v)
        vectors.extend(sorted(extra))
    slopes = slope_table(ct, lam)
    model = CyclicGonalModel(K, tuple(lam), tuple(vectors), slopes)
    for vec in vectors:
        # Entries of the lift live in {0, ..., p-1}, so n(p-1) bounds the
        # t_1-degree; the tighter bound n is specific to p = 2.
        if model.rhs_degree(vec) > ct.n * (ct.p - 1):
            raise DomainError("right-hand side degree exceeds n(p-1)")
    return model
