"""Moebius transformations with exact infinity handling."""

from fractions import Fraction

import pytest

from gfcurves import DomainError, INF, Moebius, is_inf, moebius_from_three_points
from gfcurves.riemann_sphere import (
    poly_from_roots,
    sphere_close,
)
from helpers import multisets_close, polys_close


def test_three_point_normalizations():
    T = moebius_from_three_points(INF, 0, 1)
    assert T.a == 1 and T.b == 0 and T.c == 0 and T.d == 1

    # direct-evaluation oracle on (1, 0, inf): expect z / (z - 1)
    T2 = moebius_from_three_points(1, 0, INF)
    assert is_inf(T2(1))
    assert T2(0) == 0
    assert T2(2) == 2
    assert T2(INF) == 1

    T3 = moebius_from_three_points(Fraction(2), Fraction(5), Fraction(9))
    assert is_inf(T3(Fraction(2)))
    assert T3(Fraction(5)) == 0
    assert T3(Fraction(9)) == 1
    assert isinstance(T3(Fraction(3)), Fraction)


def test_three_point_rejects_coincident():
    with pytest.raises(DomainError):
        moebius_from_three_points(1, 1, 2)
    with pytest.raises(DomainError):
        moebius_from_three_points(INF, INF, 2)


def test_inverse_and_compose():
    T = Moebius(Fraction(2), Fraction(3), Fraction(1), Fraction(4))
    for z in (Fraction(0), Fraction(1), Fraction(-7, 3)):
        assert T.inverse()(T(z)) == z
    S = Moebius(Fraction(1), Fraction(-1), Fraction(0), Fraction(1))
    assert S.compose(T)(Fraction(2)) == S(T(Fraction(2)))


def test_degenerate_matrix_rejected():
    with pytest.raises(DomainError):
        Moebius(1, 2, 2, 4)


def test_infinity_evaluation():
    T = Moebius(0, 1, 1, 0)  # z -> 1/z
    assert is_inf(T(0))
    assert T(INF) == 0


def test_sphere_close_semantics():
    assert sphere_close(INF, INF)
    assert sphere_close(1e12, INF)
    assert not sphere_close(5.0, INF)
    assert sphere_close(1e6 + 1e-4j, 1e6)  # relative above magnitude 1
    assert not sphere_close(0.0, 1e-3)


def test_poly_from_roots():
    assert poly_from_roots([1, -1]) == [1, 0, -1]
    # INF root drops a factor
    assert poly_from_roots([2, INF]) == [1, -2]
    assert polys_close([1, 0, -1], [1, 1e-12, -1])
    assert not polys_close([1, 0, -1], [1, 0, 1])


def test_multisets_close():
    assert multisets_close([1, 1j, INF], [INF, 1j, 1 + 1e-13])
    assert not multisets_close([1, 2], [1, 3])
    assert not multisets_close([1], [1, 1])
