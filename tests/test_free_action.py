"""Admissible partitions, kernels, enumeration, and the brute-force oracle."""

import pytest

from gfcurves import (
    AdmissiblePartition,
    CurveType,
    DomainError,
    MalformedPartitionError,
    NotFreeSubgroupError,
    Subgroup,
    allowed_hyperelliptic_ranks,
    brute_force_free_subgroups,
    count_free_subgroups,
    enumerate_free_subgroups,
    has_fixed_points,
    is_admissible,
    is_free_oracle,
    kernel_of_partition,
    quotient_genus,
)
from gfcurves.errors import ResourceLimitError
from gfcurves.free_action import enumerate_all_subgroups, fixed_point_witness, require_free


def part(ct, r, parts):
    return AdmissiblePartition.from_parts(ct, r, parts)


def test_admissibility_r1_parity():
    # single part of size n+1: the product condition is n+1 even
    assert is_admissible(part(CurveType(2, 5), 1, [{1, 2, 3, 4, 5, 6}]))
    assert not is_admissible(part(CurveType(2, 4), 1, [{1, 2, 3, 4, 5}]))


def test_admissibility_pairs():
    assert is_admissible(part(CurveType(2, 5), 2, [{1, 2}, {3, 4}, {5, 6}]))
    # non-generating: only one label used at r = 2
    assert not is_admissible(part(CurveType(2, 5), 2, [{1, 2, 3, 4, 5, 6}, set(), set()]))


def test_malformed_partitions_rejected():
    ct = CurveType(2, 4)
    with pytest.raises(MalformedPartitionError):
        part(ct, 2, [{1, 2}, {2, 3}, {4, 5}])  # overlap
    with pytest.raises(MalformedPartitionError):
        part(ct, 2, [{1, 2}, {3}, {4}])  # does not cover
    with pytest.raises(MalformedPartitionError):
        part(ct, 2, [{1, 2, 3, 4, 5}])  # wrong number of parts


def test_kernel_examples():
    ct = CurveType(2, 5)
    K = kernel_of_partition(part(ct, 1, [{1, 2, 3, 4, 5, 6}]))
    expect = Subgroup.from_words(ct, ["a1*a2", "a1*a3", "a1*a4", "a1*a5"])
    assert K == expect and K.rank == 4

    K2 = kernel_of_partition(part(ct, 2, [{1, 2}, {3, 4}, {5, 6}]))
    expect2 = Subgroup.from_words(ct, ["a1*a2", "a3*a4", "a1*a3*a5"])
    assert K2 == expect2 and K2.rank == 3

    ct32 = CurveType(3, 2)
    K3 = kernel_of_partition(part(ct32, 1, [{1, 2, 3}, set()]))
    expect3 = Subgroup.from_words(ct32, ["a2*a1^-1"])
    assert K3 == expect3 and K3.rank == 1


def test_every_kernel_is_free_and_has_expected_rank():
    for p, n, r in [(2, 4, 2), (2, 4, 3), (2, 5, 2), (3, 3, 1), (3, 3, 2)]:
        ct = CurveType(p, n)
        kernels = enumerate_free_subgroups(ct, n - r)
        assert len(kernels) == len(set(kernels))
        for K in kernels:
            assert K.rank == n - r
            assert is_free_oracle(K)


def test_enumeration_golden_counts():
    assert len(enumerate_free_subgroups(CurveType(2, 4), 1)) == 10
    assert len(enumerate_free_subgroups(CurveType(2, 4), 2)) == 10
    assert len(enumerate_free_subgroups(CurveType(2, 5), 4)) == 1
    assert len(enumerate_free_subgroups(CurveType(2, 7), 6)) == 1
    assert enumerate_free_subgroups(CurveType(2, 4), 3) == []
    assert enumerate_free_subgroups(CurveType(2, 6), 5) == []


def test_enumeration_is_sorted_and_unique():
    subs = enumerate_free_subgroups(CurveType(2, 5), 2)
    assert subs == sorted(set(subs))


@pytest.mark.parametrize(
    "p,n",
    [(2, 4), (2, 5), (3, 2), (3, 3), (3, 4)],
)
def test_oracle_equivalence_small(p, n):
    ct = CurveType(p, n)
    for m in range(1, n):
        assert set(enumerate_free_subgroups(ct, m)) == set(
            brute_force_free_subgroups(ct, m)
        )


def test_free_oracle_examples():
    ct = CurveType(2, 4)
    assert is_free_oracle(Subgroup.from_words(ct, ["a1*a2", "a1*a3"]))
    assert not is_free_oracle(Subgroup.from_words(ct, ["a1", "a2"]))
    ct27 = CurveType(2, 7)
    K = kernel_of_partition(
        part(ct27, 2, [{1, 2, 3, 4}, {5, 6, 7, 8}, set()])
    )
    assert is_free_oracle(K)
    w = fixed_point_witness(Subgroup.from_words(ct, ["a1"]))
    assert w is not None and w.word() == "a1"


def test_quotient_genus_values():
    assert quotient_genus(CurveType(2, 4), 2) == 2
    assert quotient_genus(CurveType(2, 4), 1) == 3
    assert quotient_genus(CurveType(2, 5), 2) == 5  # 2n - 5 at n = 5
    assert quotient_genus(CurveType(2, 7), 5) == 5
    # p >= 3 closed forms
    for p in (3, 5, 7):
        assert quotient_genus(CurveType(p, 2), 1) == (p - 1) // 2
        assert quotient_genus(CurveType(p, 3), 2) == p - 1


def test_allowed_hyperelliptic_ranks():
    assert allowed_hyperelliptic_ranks(CurveType(2, 5)) == {2, 3, 4}
    assert allowed_hyperelliptic_ranks(CurveType(2, 4)) == {1, 2}
    assert allowed_hyperelliptic_ranks(CurveType(2, 6)) == {3, 4}
    with pytest.raises(DomainError):
        allowed_hyperelliptic_ranks(CurveType(3, 3))


def test_rank_bounds_rejected():
    ct = CurveType(2, 4)
    with pytest.raises(DomainError):
        enumerate_free_subgroups(ct, 0)
    with pytest.raises(DomainError):
        enumerate_free_subgroups(ct, 4)


def test_resource_budget_trips():
    with pytest.raises(ResourceLimitError):
        enumerate_free_subgroups(CurveType(2, 7), 1, budget=10)


def test_distinct_partitions_can_share_kernels():
    ct = CurveType(2, 4)
    kernels = enumerate_free_subgroups(ct, 1)
    assert len(set(kernels)) == 10
    # canonical-orbit enumeration visits each kernel exactly once
    assert len(kernels) == len(set(kernels))


@pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3)])
def test_membership_freeness_matches_oracle(p, n):
    # every subgroup of ranks 1..n, free or not
    ct = CurveType(p, n)
    for m in range(1, n + 1):
        for K in enumerate_all_subgroups(ct, m):
            witness = fixed_point_witness(K)
            assert (witness is None) == is_free_oracle(K)
            if witness is None:
                require_free(K)
            else:
                assert K.contains(witness) and has_fixed_points(witness)
                with pytest.raises(NotFreeSubgroupError) as info:
                    require_free(K)
                assert info.value.witness == witness


@pytest.mark.parametrize("p,n,total", [(2, 7, 14220), (3, 5, 1716), (5, 4, 863)])
def test_enumeration_matches_closed_form_count(p, n, total):
    ct = CurveType(p, n)
    counts = [len(enumerate_free_subgroups(ct, m)) for m in range(1, n)]
    assert counts == [count_free_subgroups(ct, m) for m in range(1, n)]
    assert sum(counts) == total
