"""Admissible partitions, kernels, enumeration, and the brute-force oracle."""

import hashlib
import sys
import tracemalloc

import pytest

from gfcurves import (
    CurveType,
    DomainError,
    NotFreeSubgroupError,
    Subgroup,
    allowed_hyperelliptic_ranks,
    count_free_subgroups,
    enumerate_free_subgroups,
    quotient_genus,
)
from gfcurves.errors import MalformedPartitionError, ResourceLimitError
from gfcurves.free_action import (
    AdmissiblePartition,
    fixed_point_witness,
    free_subgroup_batches,
    free_subgroup_count,
    is_admissible,
    kernel_of_partition,
    require_free,
    zp_elements,
)
from gfcurves.groups import rref_mod_p, standard_generators
from gfcurves.hyperelliptic import rank_label
from helpers import (
    WALK_SIZES,
    _iter_canonical_assignments,
    blocks_of,
    brute_force_free_subgroups,
    enumerate_all_subgroups,
    has_fixed_points,
    is_free_oracle,
    reference_blocks,
    reference_kernel,
    recursive_walk,
    reference_witness,
    walk_leaves,
)


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
    # built once per curve type: equal curve types get the same frozenset
    ranks = allowed_hyperelliptic_ranks(CurveType(2, 7))
    assert type(ranks) is frozenset
    assert allowed_hyperelliptic_ranks(CurveType(2, 7)) is ranks
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


@pytest.mark.parametrize("p,n", sorted(WALK_SIZES))
def test_walk_budget_trips_past_its_node_count(p, n):
    # the partition-walk oracle's own budget
    sizes, digest = WALK_SIZES[(p, n)]
    order = hashlib.sha256()
    for r, nodes, count in sizes:
        leaves = walk_leaves(n + 1, r, p, 10**6)
        assert len(leaves) == count
        assert walk_leaves(n + 1, r, p, nodes) == leaves
        visited = []
        assert _iter_canonical_assignments(n + 1, r, p, nodes, lambda values, fresh: visited.append(values)) is None
        assert visited == leaves
        with pytest.raises(ResourceLimitError):
            walk_leaves(n + 1, r, p, nodes - 1)
        for leaf in leaves:
            order.update(repr(leaf).encode())
    assert order.hexdigest() == digest


@pytest.mark.parametrize("p, n", [(2, 7), (3, 5), (5, 4)])
def test_walk_passes_where_each_unit_vector_first_lands(p, n):
    # the kernel builder takes its pivot columns from these positions
    for r in range(1, n):
        units = [tuple(int(i == d) for i in range(r)) for d in range(r)]
        leaves = []
        _iter_canonical_assignments(n + 1, r, p, 10**6, lambda values, fresh: leaves.append((values, fresh)))
        assert leaves
        assert all(fresh == tuple(values.index(u) for u in units) for values, fresh in leaves)


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


def test_free_subgroup_count_admits_up_to_its_limit():
    ct = CurveType(2, 7)
    assert free_subgroup_count(ct, 3, 7415) == 7415 == count_free_subgroups(ct, 3)
    with pytest.raises(ResourceLimitError, match="more than 7414"):
        free_subgroup_count(ct, 3, 7414)
    # rank 3 of (2,800): the lower bound refuses before the exact count, which would take minutes
    with pytest.raises(ResourceLimitError):
        free_subgroup_count(CurveType(2, 800), 3, 10**6)
    with pytest.raises(DomainError):
        free_subgroup_count(ct, 7, 10**6)


def test_the_walk_has_no_depth_limit():
    # at p = 2, rank n - 1 has one free subgroup at odd n and none at even
    # n: the kernel of the map sending every a_j to 1, whose RREF rows are
    # a_q a_n (q < n); the walk goes 1,200 rows deep from its stack, past
    # the recursion limit, and at even n finds nothing at the bottom
    assert sys.getrecursionlimit() < 1200
    n = 1201
    [(prefix, rows)] = free_subgroup_batches(CurveType(2, n), n - 1)
    unit = [(0,) * q + (1,) + (0,) * (n - q) for q in range(n)]
    assert prefix + tuple(rows) == tuple(tuple(map(max, e, unit[n - 1])) for e in unit[: n - 1])
    assert list(free_subgroup_batches(CurveType(2, n + 1), n)) == []
    assert free_subgroup_count(CurveType(2, n), n - 1, 1) == 1
    assert free_subgroup_count(CurveType(2, n + 1), n, 1) == 0
    with pytest.raises(DomainError):
        free_subgroup_count(CurveType(2, n), n, 10**6)


# 253,221 subgroups over every rank of these types
ORDER_SWEEP_TYPES = [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5),
                     (5, 3), (5, 4), (7, 3), (7, 4), (13, 3)]


@pytest.mark.parametrize("p,n", ORDER_SWEEP_TYPES)
def test_stack_walk_yields_the_recursive_walks_order(p, n):
    # the stack walk's leaf batches, each nonempty and sharing its prefix,
    # give the recursive walk's subgroups in its order; enumerate_free_subgroups
    # is their flat list
    ct = CurveType(p, n)
    for m in range(1, n):
        batches = list(free_subgroup_batches(ct, m))
        assert all(rows and len(prefix) == m - 1 for prefix, rows in batches)
        walked = [prefix + (row,) for prefix, rows in batches for row in rows]
        assert walked == recursive_walk(ct, m)
        assert len(walked) == count_free_subgroups(ct, m)
        assert [K.basis for K in enumerate_free_subgroups(ct, m)] == walked


REFERENCE_TYPES = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3)]


@pytest.mark.parametrize("p,n", REFERENCE_TYPES)
def test_kernels_match_elimination_route(p, n):
    # the kernel written from the right-reduced image matrix against RREF +
    # from_generators, on every walk leaf and on its columns reversed (not in
    # RREF, a_{n+1} moved), the latter through kernel_of_partition
    ct = CurveType(p, n)
    for m in range(1, n):
        r = n - m
        labels = zp_elements(p, r)[1:]
        leaves = walk_leaves(n + 1, r, p, 10**6)
        expected = [reference_kernel(ct, values) for values in leaves]
        assert enumerate_free_subgroups(ct, m) == sorted(expected)
        for values in leaves:
            flipped = values[::-1]
            parts = [{j for j, c in enumerate(flipped, 1) if c == u} for u in labels]
            K = kernel_of_partition(part(ct, r, parts))
            assert K == reference_kernel(ct, flipped) and K.rank == m


@pytest.mark.parametrize("p,n", REFERENCE_TYPES + [(7, 3)])
def test_walked_kernels_read_off_their_leaves(p, n):
    # the walked kernels are the sorted elimination-route kernels of the
    # partition walk's leaves (position t < n at a_{n-t}, the forced value at
    # a_{n+1}); each is the elimination route's kernel of its generator
    # images, which are nonzero, send every basis row to 0 and span F_p^r
    ct = CurveType(p, n)
    for m in range(1, n):
        r = n - m
        walked = enumerate_free_subgroups(ct, m)
        leaves = walk_leaves(n + 1, r, p, 10**6)
        assert walked == sorted(reference_kernel(ct, v[n - 1 :: -1] + v[n:]) for v in leaves)
        for K in walked:
            columns = K.generator_images()
            assert columns == require_free(K)
            assert K == reference_kernel(ct, columns) and K.rank == m
            assert all(map(any, columns))
            for row in K.basis:
                assert not any(sum(e * c[i] for e, c in zip(row, columns)) % p for i in range(r))
            assert len(rref_mod_p(list(zip(*columns)), p)[1]) == r


@pytest.mark.parametrize(
    "p,n", [(2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5), (5, 3), (5, 4), (7, 3), (13, 3)]
)
def test_rref_walk_matches_the_partition_walk_and_the_subspace_filter(p, n):
    # every rank comes out strictly increasing, so it needs no sort, and
    # equal to the sorted kernels of the partition walk's leaves and, where
    # tractable, to the brute-force filter of all subspaces by membership of
    # each a_j; every subgroup's generator images are all nonzero
    ct = CurveType(p, n)
    for m in range(1, n):
        walked = enumerate_free_subgroups(ct, m)
        assert all(K.basis < L.basis for K, L in zip(walked, walked[1:]))
        leaves = walk_leaves(n + 1, n - m, p, 10**6)
        assert walked == sorted(reference_kernel(ct, values) for values in leaves)
        if (p, n) != (2, 7):  # its 29,210 subspaces would take 2 s
            assert walked == sorted(K for K in enumerate_all_subgroups(ct, m) if reference_witness(K) is None)
        assert all(all(map(any, K.generator_images())) for K in walked)


# rows offered by the RREF walk at each rank 1..n-1, counted by the walk itself
RREF_WALK_NODES = {(2, 5): [26, 109, 77, 4], (3, 4): [36, 100, 14]}


@pytest.mark.parametrize("p,n", sorted(RREF_WALK_NODES))
def test_rref_walk_budget_trips_past_its_node_count(p, n):
    # the walk's own budget: nodes - 1 still admits the subgroup count, so
    # the pre-flight count in enumerate_free_subgroups does not refuse it
    ct = CurveType(p, n)
    for m, nodes in enumerate(RREF_WALK_NODES[(p, n)], start=1):
        assert free_subgroup_count(ct, m, nodes - 1) == count_free_subgroups(ct, m)
        walked = enumerate_free_subgroups(ct, m, budget=nodes)
        assert walked == enumerate_free_subgroups(ct, m) and len(walked) == count_free_subgroups(ct, m)
        with pytest.raises(ResourceLimitError, match=f"walk exceeded {nodes - 1} nodes"):
            enumerate_free_subgroups(ct, m, budget=nodes - 1)


def test_walk_with_images_on_the_undecided_ranks_stays_small():
    # (2,7) with every rank walked and held at once, and the generator images
    # of each subgroup of the ranks whose labels rank_label leaves to the
    # blocks held beside them
    ct = CurveType(2, 7)
    undecided = [m for m in range(1, 7) if rank_label(ct, m) is None]
    assert undecided == [4, 5]
    tracemalloc.start()
    try:
        walks = [enumerate_free_subgroups(ct, m) for m in range(1, 7)]
        images = [K.generator_images() for m in undecided for K in walks[m - 1]]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, walks)) == 14220 and len(images) == sum(len(walks[m - 1]) for m in undecided)
    assert peak < 3 * 2**20


@pytest.mark.parametrize("p,n", REFERENCE_TYPES)
def test_witness_and_blocks_match_membership_routes(p, n):
    # every subgroup of ranks 1..n, free or not
    ct = CurveType(p, n)
    for m in range(1, n + 1):
        for K in enumerate_all_subgroups(ct, m):
            assert fixed_point_witness(K) == reference_witness(K)
            assert blocks_of(K) == reference_blocks(K)


def test_require_free_returns_the_images_of_a_free_subgroup():
    # a free K's generator images, equal for equal K and never attached to
    # it; a K with fixed points has none, only its witness
    ct = CurveType(3, 4)
    walked = enumerate_free_subgroups(ct, 2)[0]
    images = require_free(walked)
    assert images == walked.generator_images() and all(map(any, images))
    assert require_free(Subgroup(ct, walked.basis)) == images
    assert Subgroup.__slots__ == ("curve_type", "basis")
    K = Subgroup.from_words(ct, ["a1*a2", "a3"])
    with pytest.raises(NotFreeSubgroupError) as info:
        require_free(K)
    assert info.value.witness == fixed_point_witness(K) == standard_generators(ct)[2]
