"""Small reference constructions that only the tests need."""

from gfcurves.groups import CurveType, GroupElement, standard_generators
from gfcurves.hyperelliptic import case3_coupling
from gfcurves.riemann_sphere import INF


def elements_with_fixed_points(ct: CurveType) -> list[GroupElement]:
    """All nonidentity elements with fixed points: the a_j^c, (n+1)(p-1) many."""
    return [g**c for g in standard_generators(ct) for c in range(1, ct.p)]


def case3_quartic_map_branch_values(lam3):
    """Branch values of Q2(x) = alpha (x^2 + x^-2) + beta: (INF, M(2), M(-2))."""
    alpha, beta = case3_coupling(lam3)
    return (INF, 2 * alpha + beta, -2 * alpha + beta)


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 2))


def compose_permutations(sigma, tau) -> tuple[int, ...]:
    """(sigma o tau)(j) = sigma(tau(j)); one-line notation of images."""
    return tuple(sigma[tau[j - 1] - 1] for j in range(1, len(sigma) + 1))
