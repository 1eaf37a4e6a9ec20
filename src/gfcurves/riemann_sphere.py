"""Riemann sphere points, Moebius transformations, and small polynomial utils.

Points are plain numbers (int, Fraction, float, complex) plus the marker INF
for the point at infinity, which is handled symbolically: no arithmetic is
ever performed on it.  All Moebius code is field-agnostic, so exact Fraction
inputs stay exact (used by the moduli golden tests).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import DomainError, Frozen, _set

INF = float("inf")


def is_inf(z) -> bool:
    if isinstance(z, complex):
        return math.isinf(z.real) or math.isinf(z.imag)
    if isinstance(z, float):
        return math.isinf(z)
    return False


def json_number(value):
    """A number as JSON: rationals as 'num/den' (integers as 'num'), complex
    as [re, im], infinity as 'inf'; ints and finite floats pass through."""
    if isinstance(value, Fraction):
        return str(value)
    if is_inf(value):
        return "inf"
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def sphere_close(x, y, tol: float = 1e-9) -> bool:
    """Equality on the sphere: relative above modulus 1, absolute below."""
    xi, yi = is_inf(x), is_inf(y)
    if xi or yi:
        if xi and yi:
            return True
        finite = complex(y if xi else x)
        return abs(finite) > 1.0 / tol
    diff = abs(complex(x) - complex(y))
    scale = max(1.0, abs(complex(x)), abs(complex(y)))
    return diff <= tol * scale


def csqrt(z) -> complex:
    """Principal-branch complex square root."""
    return cmath.sqrt(complex(z))


def cnroot(z, p: int, branch: int = 0) -> complex:
    """p-th root of z on the branch ``branch`` (principal for branch 0)."""
    zc = complex(z)
    if zc == 0:
        return 0j
    r = abs(zc) ** (1.0 / p)
    theta = (cmath.phase(zc) + 2.0 * math.pi * branch) / p
    return r * complex(math.cos(theta), math.sin(theta))


class Moebius(Frozen):
    """z -> (a z + b) / (c z + d) with ad - bc != 0; INF handled exactly."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a * d - b * c == 0:
            raise DomainError("degenerate Moebius matrix (zero determinant)")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    def __call__(self, z):
        if is_inf(z):
            if self.c == 0:
                return INF
            return self.a / self.c
        den = self.c * z + self.d
        if den == 0:
            return INF
        return (self.a * z + self.b) / den

    def inverse(self) -> "Moebius":
        return Moebius(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "Moebius") -> "Moebius":
        return Moebius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @classmethod
    def identity(cls) -> "Moebius":
        return cls(1, 0, 0, 1)


def moebius_from_three_points(z1, z2, z3) -> Moebius:
    """The unique Moebius map with z1 -> INF, z2 -> 0, z3 -> 1."""
    pts = (z1, z2, z3)
    for i in range(3):
        for j in range(i + 1, 3):
            pi, pj = pts[i], pts[j]
            if (is_inf(pi) and is_inf(pj)) or (not is_inf(pi) and not is_inf(pj) and pi == pj):
                raise DomainError("three points must be pairwise distinct")
    if is_inf(z1):
        return Moebius(1, -z2, 0, z3 - z2)
    if is_inf(z2):
        return Moebius(0, z3 - z1, 1, -z1)
    if is_inf(z3):
        return Moebius(1, -z2, 1, -z1)
    return Moebius(z3 - z1, -z2 * (z3 - z1), z3 - z2, -z1 * (z3 - z2))


# -- polynomials from root multisets ------------------------------------------


def poly_from_roots(roots) -> list:
    """Monic coefficients (descending) of prod (x - r); INF roots are dropped."""
    coeffs = [1]
    for r in roots:
        if is_inf(r):
            continue
        new = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i] += c
            new[i + 1] -= c * r
        coeffs = new
    return coeffs


def as_exact(value):
    """Normalize ints to Fractions so exact-mode arithmetic stays exact."""
    if isinstance(value, int):
        return Fraction(value)
    return value
