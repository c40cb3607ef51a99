"""Edge-length sums, projectivity, planarity, counting, enumeration, sampling."""

import itertools

import numpy as np
import pytest
from scipy import stats

from projlin import (
    CapExceeded,
    LinearArrangement,
    SizeMismatch,
    build_tree,
    count_projective,
    enumerate_projective,
    is_planar,
    is_projective,
    make_class,
    parse_head_vector,
    random_tree,
    sample_projective,
    sum_edge_lengths,
)
from projlin import arrangement
from helpers import (
    all_arrangements,
    broom,
    brute_projective_arrangements,
    caterpillar,
    oracle_edge_sum,
    oracle_is_planar,
    oracle_is_projective,
    oracle_segment_offsets,
)

CHAIN3 = parse_head_vector("0 1 2")


def test_arrangement_validation():
    a = LinearArrangement([2, 1, 3])
    assert a.pos[1:] == (2, 1, 3)
    assert a.inverse[1:] == (2, 1, 3)
    assert LinearArrangement.from_inverse([3, 1, 2]).pos[1:] == (2, 3, 1)
    with pytest.raises(ValueError):
        LinearArrangement([1, 1, 3])
    with pytest.raises(ValueError):
        LinearArrangement([0, 1, 2])


def test_sum_edge_lengths_examples():
    assert sum_edge_lengths(CHAIN3, LinearArrangement.identity(3)) == 2
    assert sum_edge_lengths(CHAIN3, LinearArrangement.identity(3), "minus_one") == 0

    star = make_class("star_hub", 4)
    hub_first = LinearArrangement([1, 2, 3, 4])
    assert sum_edge_lengths(star, hub_first) == 1 + 2 + 3


def test_sum_edge_lengths_sentence_fixture():
    # eight-token sentence in surface order, heads (2, 3, 0, 7, 4, 7, 3, 7)
    sentence = build_tree(
        8, [(1, 2), (2, 3), (4, 7), (5, 4), (6, 7), (7, 3), (8, 7)], 3
    )
    identity = LinearArrangement.identity(8)
    assert sum_edge_lengths(sentence, identity) == 12
    assert is_projective(sentence, identity)


def test_sum_edge_lengths_size_mismatch():
    with pytest.raises(SizeMismatch):
        sum_edge_lengths(CHAIN3, LinearArrangement.identity(4))
    with pytest.raises(SizeMismatch):
        is_projective(CHAIN3, LinearArrangement.identity(2))


def test_variant_relation_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        t = random_tree(int(rng.integers(2, 40)), rng)
        a = sample_projective(t, rng)
        assert sum_edge_lengths(t, a, "minus_one") == sum_edge_lengths(t, a) - (t.n - 1)


def test_projectivity_chain3_against_brute_force():
    # all 6 arrangements of the 3-chain, checked against the set oracle
    for a in all_arrangements(3):
        assert is_projective(CHAIN3, a) == oracle_is_projective(CHAIN3, a)
    # the hand-picked case: vertex 2's subtree {2, 3} sits at positions {1, 3}
    split = LinearArrangement([2, 1, 3])
    assert not is_projective(CHAIN3, split)
    projective_count = sum(is_projective(CHAIN3, a) for a in all_arrangements(3))
    assert projective_count == count_projective(CHAIN3) == 4


def test_star_always_projective():
    star = make_class("star_hub", 4)
    assert all(is_projective(star, a) for a in all_arrangements(4))


def test_planar_not_projective_when_root_covered():
    # root 2 with children 1 and 3, and 4 below 3; reading order 3 2 1 4
    # draws no crossing but the edge 3-4 spans the root's position
    t4 = build_tree(4, [(1, 2), (3, 2), (4, 3)], 2)
    arrangement = LinearArrangement.from_inverse([3, 2, 1, 4])
    assert is_planar(t4, arrangement)
    assert oracle_is_planar(t4, arrangement)
    assert not is_projective(t4, arrangement)


def test_planar_crossing_detected():
    chain4 = parse_head_vector("0 1 2 3")
    crossing = LinearArrangement.from_inverse([1, 3, 2, 4])
    assert not is_planar(chain4, crossing)
    assert not oracle_is_planar(chain4, crossing)
    assert not is_projective(chain4, crossing)


def test_planarity_small_sizes_against_oracle():
    for heads in ("0", "0 1", "0 1 2 3", "0 1 1 2", "0 1 1 1"):
        t = parse_head_vector(heads)
        for a in all_arrangements(t.n):
            assert is_planar(t, a) == oracle_is_planar(t, a)
            if is_projective(t, a):
                assert is_planar(t, a)


def test_planarity_random_trees_against_oracle():
    # random permutations are mostly crossing, projective samples never,
    # and a projective sample with two vertices swapped is either
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(1, 13))
        t = random_tree(n, rng)
        projective = sample_projective(t, rng)
        swapped = list(projective.pos[1:])
        i, j = rng.integers(0, n, size=2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for a in (
            LinearArrangement((rng.permutation(n) + 1).tolist()),
            projective,
            LinearArrangement(swapped),
        ):
            planar = is_planar(t, a)
            assert planar == oracle_is_planar(t, a)
            outcomes.add(planar)
    assert outcomes == {True, False}


def test_count_projective_examples():
    assert count_projective(make_class("star_hub", 5)) == 120
    assert count_projective(make_class("linear_k", 4, 0)) == 8
    assert count_projective(make_class("linear_k", 5, 2)) == 24
    assert count_projective(build_tree(1, [], 1)) == 1


def test_enumerate_small_cases():
    single = build_tree(1, [], 1)
    assert [a.inverse[1:] for a in enumerate_projective(single)] == [(1,)]
    pair = parse_head_vector("0 1")
    assert sorted(a.inverse[1:] for a in enumerate_projective(pair)) == [(1, 2), (2, 1)]


def test_enumerate_matches_brute_force_filter():
    trees = [
        CHAIN3,
        parse_head_vector("0 1 1 2"),
        make_class("qstar_bridge", 5),
        make_class("star_leaf", 5),
        build_tree(6, [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)], 1),
    ]
    for t in trees:
        enumerated = list(enumerate_projective(t))
        assert len(enumerated) == count_projective(t)
        assert len(set(enumerated)) == len(enumerated)
        assert all(is_projective(t, a) for a in enumerated)
        brute = brute_projective_arrangements(t)
        assert set(enumerated) == set(brute)


def test_enumerate_equals_oracle_filter_exhaustively():
    # set equality against the independent oracle for every rooted tree
    # shape up to five vertices
    from projlin import enumerate_rooted_trees

    for n in range(1, 6):
        for t in enumerate_rooted_trees(n):
            assert set(enumerate_projective(t)) == set(brute_projective_arrangements(t))


def test_enumerate_eight_vertex_count():
    t = build_tree(8, [(1, 4), (2, 4), (5, 4), (3, 4), (6, 4), (7, 6), (8, 6)], 4)
    assert count_projective(t) == 4320
    assert sum(1 for _ in enumerate_projective(t)) == 4320


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_projective(make_class("star_hub", 8), cap=100))


def test_enumerate_deterministic_order():
    t = parse_head_vector("0 1 1")
    first = [a.inverse[1:] for a in enumerate_projective(t)]
    second = [a.inverse[1:] for a in enumerate_projective(t)]
    assert first == second
    assert first[0] == (1, 2, 3)  # identity-like order comes first


def test_reversal_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(30):
        t = random_tree(int(rng.integers(2, 25)), rng)
        a = sample_projective(t, rng)
        r = LinearArrangement.from_inverse(a.inverse[:0:-1])
        assert sum_edge_lengths(t, r) == sum_edge_lengths(t, a)
        assert is_projective(t, r) == is_projective(t, a)


def test_sample_single_vertex_and_pair():
    single = build_tree(1, [], 1)
    assert sample_projective(single, 3).pos[1:] == (1,)
    pair = parse_head_vector("0 1")
    rng = np.random.default_rng(0)
    seen = {sample_projective(pair, rng).inverse[1:] for _ in range(200)}
    assert seen == {(1, 2), (2, 1)}


def test_sample_deterministic_given_seed():
    t = random_tree(15, 9)
    assert sample_projective(t, 77) == sample_projective(t, 77)


def test_sample_only_projective_arrangements():
    rng = np.random.default_rng(21)
    for _ in range(50):
        t = random_tree(int(rng.integers(2, 30)), rng)
        a = sample_projective(t, rng)
        assert is_projective(t, a)


def test_sampler_uniform_on_eight_vertex_tree():
    # 43,200 draws over the 4,320 projective arrangements of the tree with
    # root degree 5 and one degree-2 child
    t = build_tree(8, [(1, 4), (2, 4), (5, 4), (3, 4), (6, 4), (7, 6), (8, 6)], 4)
    index = {a: i for i, a in enumerate(enumerate_projective(t))}
    counts = np.zeros(len(index), dtype=np.int64)
    rng = np.random.default_rng(2024)
    for _ in range(43200):
        counts[index[sample_projective(t, rng)]] += 1
    assert counts.sum() == 43200
    result = stats.chisquare(counts)
    assert result.pvalue > 1e-3


@pytest.mark.parametrize("z", [1, 3, 100])
def test_segment_offsets_match_the_sorting_oracle(z):
    # from equal generator states the per-block kernel and one sort of all
    # segments by (block, rank) give the same offsets, on shapes that run
    # every branch: two segments, pairwise ranks, and a sort past the cut-off
    rng = np.random.default_rng(2718)
    trees = [random_tree(int(rng.integers(2, 61)), rng) for _ in range(60)]
    trees += [make_class("linear_k", n, k) for n, k in ((2, 0), (3, 1), (17, 0), (60, 29))]
    trees += [make_class("star_hub", leaves + 1) for leaves in range(1, 61)]
    trees += [caterpillar(spine, legs) for spine, legs in ((1, 1), (5, 1), (4, 3), (6, 7), (3, 12))]
    trees += [broom(handle, bristles) for handle, bristles in ((2, 2), (10, 7), (5, 8), (4, 30))]
    sizes = {segments.shape[1] for tree in trees for segments in tree.blocks}
    cut = arrangement._PAIRWISE_MAX_SEGMENTS
    assert 2 in sizes and sizes & set(range(3, cut + 1)) and max(sizes) > cut
    for tree in trees:
        seed = int(rng.integers(2**32))
        kids, offsets = arrangement._segment_offsets(tree, z, np.random.default_rng(seed))
        oracle_kids, oracle_offsets = oracle_segment_offsets(tree, z, np.random.default_rng(seed))
        assert np.array_equal(kids, oracle_kids)
        assert offsets.dtype == np.int64 and np.array_equal(offsets, oracle_offsets), tree
