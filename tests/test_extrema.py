"""Maximum characterization and the minimum-search dynamic program."""

from fractions import Fraction

import pytest

from projlin import (
    CapExceeded,
    build_tree,
    canonical_code,
    combine_forests,
    enumerate_rooted_trees,
    expected_sum_projective,
    make_class,
    max_expected_sum,
    min_expected_sum,
    parse_head_vector,
)
from projlin.extrema import _partitions
from helpers import all_labeled_rooted_trees, oracle_minima, oracle_recurrence_expectation

# published minimum values and minimizer counts for sizes 1..20
MINIMA_TABLE = {
    1: (Fraction(0), 1),
    2: (Fraction(1), 1),
    3: (Fraction(5, 2), 1),
    4: (Fraction(9, 2), 2),
    5: (Fraction(19, 3), 1),
    6: (Fraction(26, 3), 1),
    7: (Fraction(11), 1),
    8: (Fraction(83, 6), 2),
    9: (Fraction(33, 2), 1),
    10: (Fraction(58, 3), 2),
    11: (Fraction(22), 1),
    12: (Fraction(151, 6), 1),
    13: (Fraction(85, 3), 2),
    14: (Fraction(63, 2), 1),
    15: (Fraction(104, 3), 1),
    16: (Fraction(38), 1),
    17: (Fraction(83, 2), 1),
    18: (Fraction(45), 2),
    19: (Fraction(97, 2), 2),
    20: (Fraction(52), 2),
}

# distinct unlabeled rooted trees per size (OEIS A000081)
ROOTED_TREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115, 9: 286, 10: 719}


def test_partitions_generator():
    assert list(_partitions(0, 0)) == [()]
    assert list(_partitions(4, 4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(_partitions(5, 2)) == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    counts = []
    for total in range(1, 12):
        parts = list(_partitions(total, total))
        for p in parts:
            assert sum(p) == total
            assert all(a >= b for a, b in zip(p, p[1:]))
        assert parts == sorted(set(parts), reverse=True)  # distinct, reverse-lexicographic
        counts.append(len(parts))
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]  # p(1..11)
    # ``fits`` vetoes a part by its size and by what remains after it
    assert list(_partitions(6, 6, lambda s, rest: s % 2 == 0)) == [(6,), (4, 2), (2, 2, 2)]
    assert list(_partitions(4, 4, lambda s, rest: rest != 2)) == [(4,), (3, 1)]


def test_max_expected_examples():
    value, tree = max_expected_sum(3)
    assert value == Fraction(8, 3)
    assert canonical_code(tree) == canonical_code(make_class("star_hub", 3))
    value, tree = max_expected_sum(8)
    assert value == 21
    assert tree.head_vector() == "0 1 1 1 1 1 1 1"


def test_max_unique_by_exhaustion_n6():
    star_code = canonical_code(make_class("star_hub", 6))
    bound = Fraction(35, 3)
    seen_star = 0
    for t in enumerate_rooted_trees(6):
        value = expected_sum_projective(t)
        assert value <= bound
        if value == bound:
            assert canonical_code(t) == star_code
            seen_star += 1
    assert seen_star == 1


def test_min_expected_examples():
    assert min_expected_sum(2).value == 1
    entry7 = min_expected_sum(7)
    assert entry7.value == 11 and len(entry7.trees) == 1
    entry10 = min_expected_sum(10)
    assert entry10.value == Fraction(58, 3) and len(entry10.trees) == 2


def test_min_expected_full_table():
    memo = {}
    min_expected_sum(20, memo)
    for n, (value, count) in MINIMA_TABLE.items():
        entry = memo[n]
        assert entry.value == value, f"value mismatch at n={n}"
        assert len(entry.trees) == count, f"minimizer count mismatch at n={n}"
        assert all(oracle_recurrence_expectation(t) == value for t in entry.trees)
        codes = {canonical_code(t) for t in entry.trees}
        assert len(codes) == len(entry.trees)
        assert all(t.n == n for t in entry.trees)


def test_min_expected_memo_monotonicity():
    memo = {}
    min_expected_sum(20, memo)
    for k in range(1, 21):
        fresh = min_expected_sum(k)
        assert memo[k].value == fresh.value
        assert {canonical_code(t) for t in memo[k].trees} == {
            canonical_code(t) for t in fresh.trees
        }


def test_min_expected_matches_the_pruned_sweep_oracle():
    memo = {}
    min_expected_sum(40, memo, cap=40)
    for m, (value, trees) in oracle_minima(40).items():
        assert memo[m].value == value, f"value mismatch at n={m}"
        assert [t.head_vector() for t in memo[m].trees] == [t.head_vector() for t in trees]


def test_min_expected_cap():
    with pytest.raises(CapExceeded):
        min_expected_sum(25)
    entry = min_expected_sum(22, cap=22)
    assert all(oracle_recurrence_expectation(t) == entry.value for t in entry.trees)


def test_min_vs_max_strict_for_n3_and_up():
    memo = {}
    min_expected_sum(20, memo)
    for n in range(3, 21):
        assert memo[n].value < max_expected_sum(n)[0]


def test_min_matches_brute_force_enumeration():
    # independent oracle: scan every unlabeled rooted tree up to n = 9
    for n in range(1, 10):
        best = None
        best_codes = set()
        for t in enumerate_rooted_trees(n):
            value = expected_sum_projective(t)
            if best is None or value < best:
                best = value
                best_codes = {canonical_code(t)}
            elif value == best:
                best_codes.add(canonical_code(t))
        entry = min_expected_sum(n)
        assert entry.value == best
        assert {canonical_code(t) for t in entry.trees} == best_codes


def test_combine_forests_repeated_parts():
    # one 11-vertex candidate and two 13-vertex candidates: the repeated
    # size contributes multisets, so 3 forests rather than 4
    eleven = [min_expected_sum(11).trees[0]]
    thirteen = list(min_expected_sum(13).trees)
    assert len(thirteen) == 2
    forests = list(combine_forests([11, 13, 13], [eleven, thirteen, thirteen]))
    assert len(forests) == 3
    codes = {canonical_code(t) for t in forests}
    assert len(codes) == 3
    assert all(t.n == 1 + 11 + 13 + 13 for t in forests)


def test_combine_forests_all_singletons():
    single = build_tree(1, [], 1)
    forests = list(combine_forests([1, 1, 1], [[single]] * 3))
    assert len(forests) == 1
    assert canonical_code(forests[0]) == canonical_code(make_class("star_hub", 4))


def test_combine_forests_distinct_parts():
    twos = [parse_head_vector("0 1")]
    threes = [parse_head_vector("0 1 2"), parse_head_vector("0 1 1")]
    forests = list(combine_forests([2, 3], [twos, threes]))
    assert len(forests) == len(twos) * len(threes)
    assert len({canonical_code(t) for t in forests}) == len(forests)


def test_enumerate_rooted_trees_counts():
    for n, count in ROOTED_TREE_COUNTS.items():
        trees = list(enumerate_rooted_trees(n))
        assert len(trees) == count
        degrees = [int(t.out_degree_array[t.root]) for t in trees]
        assert degrees == sorted(degrees)  # fewest root children first
        codes = {canonical_code(t) for t in trees}
        assert len(codes) == count
        assert all(t.n == n for t in trees)


def test_enumerate_rooted_trees_matches_labeled_sweep():
    # full Pruefer sweep as an independent generator of the same classes
    for n in range(1, 7):
        via_labels = {canonical_code(t) for t in all_labeled_rooted_trees(n)}
        via_partitions = {canonical_code(t) for t in enumerate_rooted_trees(n)}
        assert via_labels == via_partitions


def test_enumerate_rooted_trees_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_rooted_trees(11))
