"""Exact expectation formulas against brute-force enumeration oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlin import (
    OutOfRange,
    TREE_CLASSES,
    UnsupportedSize,
    build_tree,
    canonical_code,
    class_formula,
    count_projective,
    edge_length_probability,
    enumerate_projective,
    enumerate_rooted_trees,
    expected_sum_projective,
    expected_sum_unconstrained,
    make_class,
    parse_head_vector,
    random_tree,
)
from projlin.expectation import _closed_numerators
from projlin.tree import _Forest, _forest
from helpers import (
    all_labeled_rooted_trees,
    brute_mean_projective,
    oracle_anchor_length,
    oracle_coanchor_length,
    oracle_recurrence_expectation,
    oracle_root_edge_length,
    oracle_vertex_numerator,
)


def test_unconstrained_values():
    assert expected_sum_unconstrained(1) == 0
    assert expected_sum_unconstrained(5) == 8
    assert expected_sum_unconstrained(7) == 16
    with pytest.raises(OutOfRange):
        expected_sum_unconstrained(0)


def test_edge_length_distribution():
    assert edge_length_probability(2, 1) == 1
    assert edge_length_probability(3, 1) == Fraction(2, 3)
    assert edge_length_probability(3, 2) == Fraction(1, 3)
    for n in (2, 3, 7, 10):
        probabilities = [edge_length_probability(n, d) for d in range(1, n)]
        assert sum(probabilities) == 1
        mean = sum(d * p for d, p in zip(range(1, n), probabilities))
        assert mean == Fraction(n + 1, 3)
    with pytest.raises(OutOfRange):
        edge_length_probability(5, 5)
    with pytest.raises(OutOfRange):
        edge_length_probability(5, 0)


def test_edge_length_distribution_matches_enumeration():
    # frequency of each distance of a fixed vertex pair over all 3! ways of
    # placing 3 vertices; the pair occupies two of the three positions
    import itertools

    n = 3
    counts = {1: 0, 2: 0}
    for perm in itertools.permutations(range(1, n + 1)):
        counts[abs(perm[0] - perm[1])] += 1
    total = sum(counts.values())
    for d in (1, 2):
        assert edge_length_probability(n, d) == Fraction(counts[d], total)


def test_anchor_and_coanchor_values():
    assert oracle_anchor_length(1) == 1
    assert oracle_anchor_length(3) == 2
    assert oracle_anchor_length(8) == Fraction(9, 2)
    assert oracle_coanchor_length(2, 1) == 0
    assert oracle_coanchor_length(5, 1) == 1


def test_root_edge_length_consistent_with_star():
    # each of the 3 edges of the hub-rooted star on 4 vertices has a
    # single-vertex subtree below it
    per_edge = oracle_root_edge_length(4, 1)
    assert per_edge == Fraction(2 * 4 + 1 + 1, 6)
    assert 3 * per_edge == expected_sum_projective(make_class("star_hub", 4)) == 5


def test_projective_expectation_examples():
    single = parse_head_vector("0")
    assert expected_sum_projective(single) == 0
    assert expected_sum_projective(make_class("star_hub", 5)) == 8
    assert expected_sum_projective(make_class("linear_k", 5, 1)) == Fraction(41, 6)


def test_minus_one_variant_examples():
    assert expected_sum_projective(parse_head_vector("0"), "minus_one") == 0
    assert expected_sum_projective(make_class("star_hub", 5), "minus_one") == 4
    assert expected_sum_projective(parse_head_vector("0 1"), "minus_one") == 0


def test_methods_agree_on_random_trees():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        t = random_tree(int(rng.integers(1, 201)), rng)
        closed = expected_sum_projective(t)
        assert closed == oracle_recurrence_expectation(t)
        assert closed.denominator in (1, 2, 3, 6)
        closed_m1 = expected_sum_projective(t, "minus_one")
        assert closed_m1 == oracle_recurrence_expectation(t, "minus_one") == closed - (t.n - 1)


def test_closed_form_matches_recurrence_on_large_trees():
    # bushy random trees and the deep shapes (a path, a caterpillar), all
    # above the size where the tree is measured by pointer doubling
    rng = np.random.default_rng(33)
    trees = [random_tree(3000, rng) for _ in range(5)]
    trees.append(make_class("linear_k", 3000, 0))
    spine = [(v, v - 1) for v in range(2, 1501)]
    legs = [(1500 + v, v) for v in range(1, 1501)]
    trees.append(build_tree(3000, spine + legs, 1))
    for t in trees:
        assert t.n == 3000
        assert expected_sum_projective(t) == oracle_recurrence_expectation(t)
    assert trees[5].size_array[1:].tolist() == list(range(3000, 0, -1))
    assert expected_sum_projective(trees[5]) == Fraction(2999 * 3002, 4)


def test_brute_force_oracle_small_trees():
    # every labeled rooted tree up to n = 5: enumeration mean equals the
    # closed form and the recurrence exactly (acceptance covers n <= 7 per shape)
    for n in range(1, 6):
        for t in all_labeled_rooted_trees(n):
            mean = brute_mean_projective(t)
            assert mean == expected_sum_projective(t)
            assert mean == oracle_recurrence_expectation(t)


def test_every_edge_has_its_closed_form_expected_length():
    # edge (p, c) of every rooted tree with 2 <= n <= 8: its mean length
    # over the projective arrangements is (n_c + 2 n_p + 1) / 6, the term
    # the closed form sums per edge
    edges = 0
    for n in range(2, 9):
        for tree in enumerate_rooted_trees(n):
            kids = [c for c in range(1, n + 1) if tree.parent[c]]
            totals = dict.fromkeys(kids, 0)
            count = 0
            for a in enumerate_projective(tree):
                count += 1
                for c in kids:
                    totals[c] += abs(a.pos[c] - a.pos[tree.parent[c]])
            size = tree.size_array.tolist()
            for c in kids:
                assert Fraction(totals[c], count) == Fraction(size[c] + 2 * size[tree.parent[c]] + 1, 6)
            edges += len(kids)
    assert edges == 1246


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.builds(random_tree, st.integers(1, 40), st.integers(0, 2**32 - 1)), min_size=1, max_size=20
    )
)
def test_per_edge_sums_equal_the_vertex_form_tree_by_tree(trees):
    # 1 to 20 uniform random trees of 1 to 40 vertices, laid end to end
    assert _closed_numerators(_forest(trees)) == [oracle_vertex_numerator(t) for t in trees]


def test_closed_numerators_sum_terms_past_the_int32_range_exactly():
    # the sizes are int32, but n_c + 2 n_p + 1 passes 2^31 once sizes near
    # 2^30: a hand-built forest of a 3-vertex path and a root with two
    # children, whose sizes are set by hand
    big = 2**30
    parent = np.array([0, 0, 1, 2, 0, 4, 4], dtype=np.int32)
    size = np.array([0, big + 2, big + 1, big, big - 1, big - 2, 3], dtype=np.int32)
    forest = _Forest(6, parent, size, np.zeros(7, dtype=np.int32), np.array([0, 3]), ())
    sizes = size.tolist()
    want = [
        sum(sizes[c] + 2 * sizes[parent[c]] + 1 for c in range(1 + start, 4 + start) if parent[c])
        for start in (0, 3)
    ]
    assert want[0] > 2**32 and want[1] > 2**32
    assert _closed_numerators(forest) == want


def test_edge_decomposition_of_expectation():
    # the expectation splits into the root edges plus the child subtrees
    rng = np.random.default_rng(8)
    for _ in range(60):
        t = random_tree(int(rng.integers(2, 60)), rng)
        size = t.size_array.tolist()
        total = Fraction(0)
        for child in t.children[t.root]:
            total += oracle_anchor_length(size[child])
            total += oracle_coanchor_length(t.n, size[child])
            total += expected_sum_projective(t.subtree(child))
        assert total == expected_sum_projective(t)


def test_projective_below_unconstrained():
    rng = np.random.default_rng(14)
    star_code = canonical_code(make_class("star_hub", 30))
    for _ in range(50):
        t = random_tree(30, rng)
        bound = expected_sum_unconstrained(30)
        value = expected_sum_projective(t)
        assert value <= bound
        if value == bound:
            assert canonical_code(t) == star_code


def test_class_formula_examples():
    assert class_formula("star_leaf", 6) == (240, 11)
    assert class_formula("qstar_bridge", 6) == (144, Fraction(61, 6))
    assert class_formula("linear_k", 6, 2) == (48, Fraction(26, 3))
    assert class_formula("star_hub", 5) == (120, 8)
    with pytest.raises(UnsupportedSize):
        class_formula("qstar_far_leaf", 3)
    with pytest.raises(ValueError):
        class_formula("nonesuch", 5)


def test_class_formula_matches_constructed_trees():
    for tree_class in TREE_CLASSES:
        for n in range(4, 51):
            ks = range((n + 1) // 2) if tree_class == "linear_k" else (None,)
            for k in ks:
                t = make_class(tree_class, n, k)
                expected = (count_projective(t), expected_sum_projective(t))
                assert class_formula(tree_class, n, k) == expected


def test_class_formula_k_normalization():
    assert class_formula("linear_k", 9, 2) == class_formula("linear_k", 9, 6)
    assert class_formula("linear_k", 9, 0) == class_formula("linear_k", 9, 8)
