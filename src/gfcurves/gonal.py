"""Cyclic p-gonal models of smooth quotients from invariant monomials.

In the affine chart x_{n+1} = 1 the curve's defining equations solve to
linear expressions t_j(t_1) for t_j = x_j^p, so the quotient by a freely
acting diagonal subgroup K is cut out by one equation per invariant monomial:
s_k^p equals the matching product of the linear polynomials t_j(t_1).

Invariant monomials are the F_p-nullspace of K's affine exponent matrix; a
basis of that nullspace (size n - rank K) generates the quotient function
field over C(t_1), which fixes the number of emitted equations.  K is the
kernel of a_j -> images[j], so that nullspace is the row space of the first n
image columns, and one RREF of them gives the model's lattice.
"""

from __future__ import annotations

from .errors import Frozen, _set
from .free_action import require_free
from .groups import CurveType, Subgroup, nullspace_mod_p, rref_mod_p
from .moduli import valid_lambda
from .riemann_sphere import json_number


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
    """Coefficients (c0, c1) of t_j(t_1) = c0 + c1 t_1 for j = 1..n: the
    table of the checked lambda (``Lambda.slopes``), built once per Lambda."""
    return valid_lambda(lam, ct.n).slopes


def evaluate_slope(slope, t1):
    """t_j(t_1) as a complex number, by the complex arithmetic that
    Fraction's operators fall back to for a complex t_1."""
    c0, c1 = slope
    return complex(c0) + complex(c1) * t1


class CyclicGonalModel(Frozen):
    """Equations s_k^p = prod_j t_j(t_1)^{l_{j,k}} presenting the quotient.

    The t_j(t_1) depend on lambda alone, so the model reads them off its
    Lambda (``lam.slopes``); only the exponent lattice depends on K.
    """

    __slots__ = ("subgroup", "lam", "lattice_basis")

    def __init__(self, subgroup: Subgroup, lam, lattice_basis: tuple[tuple[int, ...], ...]):
        _set(self, "subgroup", subgroup)
        _set(self, "lam", valid_lambda(lam, subgroup.curve_type.n))
        _set(self, "lattice_basis", lattice_basis)

    @property
    def slopes(self) -> tuple[tuple[object, object], ...]:
        return self.lam.slopes

    @property
    def curve_type(self) -> CurveType:
        return self.subgroup.curve_type

    @property
    def p(self) -> int:
        return self.curve_type.p

    def num_equations(self) -> int:
        return len(self.lattice_basis)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "t1_slopes": [[json_number(complex(c)) for c in slope] for slope in self.slopes],
            "equations": [{"exponents": list(l)} for l in self.lattice_basis],
        }


def cyclic_gonal_model(K: Subgroup, lam, paper_style: bool = False) -> CyclicGonalModel:
    """Quotient model for a freely-acting K at the parameter tuple lam.

    With paper_style, products of basis pairs (reduced mod p) are appended,
    reproducing redundant generator lists like the three-monomial examples.
    """
    ct = K.curve_type
    lam = valid_lambda(lam, ct.n)
    K = require_free(K)
    basis = sorted(rref_mod_p(list(zip(*K.images[: ct.n])), ct.p)[0])
    vectors = list(basis)
    if paper_style:
        extra = set()
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                v = tuple((a + b) % ct.p for a, b in zip(basis[i], basis[j]))
                if any(v) and v not in basis:
                    extra.add(v)
        vectors.extend(sorted(extra))
    return CyclicGonalModel(K, lam, tuple(vectors))
