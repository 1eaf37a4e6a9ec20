"""Closed-form count of freely-acting subgroups, independent of the walk.

A rank-m free subgroup of type (p, n) is the kernel of a surjection
H -> F_p^r (r = n - m) that sends each of the N = n + 1 standard generators
to a nonzero vector, the N images summing to zero; surjections with the same
kernel differ by GL_r(F_p).  With q = p^d, the number of such assignments
into F_p^d (spanning or not) is

    f(d) = ((q - 1)^N + (q - 1)(-1)^N) / q,

and Moebius inversion over the subspace lattice of F_p^r (Stanley, EC1
section 3.10) keeps the spanning ones:

    S(r) = sum_k (-1)^(r-k) p^C(r-k, 2) [r choose k]_p f(k).

The count is S(r) / |GL_r(F_p)|.
"""

from math import comb


def gaussian_binomial(r: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (r - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def assignments_summing_to_zero(p: int, d: int, count: int) -> int:
    q = p**d
    total = (q - 1) ** count + (q - 1) * (-1) ** count
    assert total % q == 0
    return total // q


def gl_order(p: int, r: int) -> int:
    order = 1
    for i in range(r):
        order *= p**r - p**i
    return order


def count_free_subgroups(p: int, n: int, m: int) -> int:
    r = n - m
    spanning = sum(
        (-1) ** (r - k)
        * p ** comb(r - k, 2)
        * gaussian_binomial(r, k, p)
        * assignments_summing_to_zero(p, k, n + 1)
        for k in range(r + 1)
    )
    assert spanning % gl_order(p, r) == 0
    return spanning // gl_order(p, r)
