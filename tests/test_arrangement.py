"""Edge-length sums, projectivity, planarity, counting, enumeration, sampling."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from projlin import (
    BadRoot,
    CapExceeded,
    LinearArrangement,
    OutOfRange,
    SizeMismatch,
    TreebankSentence,
    UnsupportedSize,
    aggregate_errors,
    analyze_treebank,
    build_tree,
    class_formula,
    combine_forests,
    count_projective,
    edge_length_probability,
    enumerate_projective,
    enumerate_rooted_trees,
    estimate_expected_sum,
    expected_sum_projective,
    expected_sum_unconstrained,
    is_planar,
    is_projective,
    make_class,
    max_expected_sum,
    min_expected_sum,
    parse_conllu,
    parse_head_vector,
    random_tree,
    sample_projective,
    sum_edge_lengths,
)
from projlin import arrangement
from projlin.cli import format_rational
from projlin.tree import _forest, tree_from_heads
from helpers import (
    NarrowKeys,
    all_arrangements,
    broom,
    brute_projective_arrangements,
    caterpillar,
    oracle_edge_sum,
    oracle_is_planar,
    oracle_is_projective,
    oracle_segment_offsets,
    random_tree_corpus,
)

CHAIN3 = parse_head_vector("0 1 2")


def _sentences(trees):
    lines = []
    for tree in trees:
        lines += [f"{v}\tw{v}\t_\tX\t_\t_\t{h}\t_\t_\t_" for v, h in enumerate(tree.parent[1:], 1)]
        lines.append("")
    return list(parse_conllu(lines))


# more sentences than one block holds, so that jobs=2 runs a process pool
CORPUS = _sentences(random_tree_corpus(20, 1, 9, 17))


def test_arrangement_validation():
    a = LinearArrangement([2, 1, 3])
    assert a.pos[1:] == (2, 1, 3)
    assert a.inverse[1:] == (2, 1, 3)
    assert LinearArrangement.from_inverse([3, 1, 2]).pos[1:] == (2, 3, 1)
    with pytest.raises(ValueError):
        LinearArrangement([1, 1, 3])
    with pytest.raises(ValueError):
        LinearArrangement([0, 1, 2])


# Sequence arguments of the wrong shape: a call and the argument its
# message names.
SEQUENCE_ARGUMENTS = {
    "z_values_not_iterable": (lambda: analyze_treebank([], 10), "z_values"),
    "sentences_not_iterable": (lambda: analyze_treebank(None, [10]), "sentences"),
    "records_none": (lambda: aggregate_errors(None), "records"),
    "record_of_one_value": (lambda: aggregate_errors([(3,)]), "records"),
    "record_error_not_a_number": (lambda: aggregate_errors([(3, "x")]), "records"),
    "record_size_not_an_integer": (lambda: aggregate_errors([(3.5, 0.1)]), "records"),
    "positions_not_iterable": (lambda: LinearArrangement(5), "positions"),
    "forest_arguments_none": (lambda: list(combine_forests(None, None)), "part_sizes"),
    "forest_candidates_none": (lambda: list(combine_forests([1], [None])), "per_size_trees"),
    "forest_size_not_an_integer": (lambda: list(combine_forests(["1"], [[]])), "part_sizes"),
    # checked at the call, before the first next()
    "conllu_lines_not_iterable": (lambda: parse_conllu(5), "lines"),
    "conllu_lines_one_str": (lambda: parse_conllu("1\tw\t_\tX\t_\t_\t0\t_\t_\t_\n"), "lines"),
    "conllu_lines_one_bytes": (lambda: parse_conllu(b"1\tw\t_\tX\t_\t_\t0\t_\t_\t_\n"), "lines"),
    "conllu_line_not_text": (lambda: list(parse_conllu([None])), "lines"),
    "sentences_of_integers": (lambda: analyze_treebank([1, 2], [1]), "sentences"),
    "sentences_one_str": (lambda: analyze_treebank("abc", [1]), "sentences"),
    "sentence_tree_a_str": (lambda: analyze_treebank([TreebankSentence("a", "x")], [10]), "sentences"),
    "record_error_infinite": (lambda: aggregate_errors([(3, float("inf"))]), "records"),
    "record_error_nan": (lambda: aggregate_errors([(3, float("nan"))]), "records"),
    # an arrangement given as a plain list of positions
    "sum_arrangement_a_list": (lambda: sum_edge_lengths(CHAIN3, [1, 2, 3]), "arrangement"),
    "projective_arrangement_a_list": (lambda: is_projective(CHAIN3, [1, 2, 3]), "arrangement"),
    "planar_arrangement_a_list": (lambda: is_planar(CHAIN3, (1, 2, 3)), "arrangement"),
}


@pytest.mark.parametrize(
    "call",
    [
        lambda: LinearArrangement([1, 1]),
        lambda: LinearArrangement.from_inverse([2, 2]),
        lambda: sum_edge_lengths(CHAIN3, LinearArrangement.identity(3), "nope"),
        lambda: expected_sum_projective(CHAIN3, "nope"),
        lambda: make_class("nope", 3),
        lambda: aggregate_errors([]),
        lambda: list(combine_forests([1, 2], [[build_tree(1, [], 1)]])),
        lambda: list(combine_forests([1], [[]])),
        lambda: enumerate_projective(CHAIN3, cap=-1),
        lambda: enumerate_rooted_trees(3, cap=-1),
        lambda: min_expected_sum(3, cap=-1),
        lambda: CHAIN3.subtree(0),
        lambda: CHAIN3.subtree(4),
        lambda: edge_length_probability(1, 1),
        lambda: enumerate_rooted_trees(0),
        lambda: build_tree(2, [(2.0, 1)], 1),
        lambda: build_tree(2, [(2, 1, 1)], 1),
        lambda: LinearArrangement([2.7, 1.2]),
        lambda: LinearArrangement.from_inverse(["2", 1.9]),
        lambda: analyze_treebank(CORPUS, z_values=[10.5]),
        lambda: aggregate_errors([(3, 0.1)], resamples=0),
        lambda: LinearArrangement.identity(-3),
        lambda: build_tree(2, None, 1),
        lambda: parse_head_vector(None),
        lambda: parse_head_vector(b"0 1"),
        lambda: estimate_expected_sum(CHAIN3, 10, np.random.default_rng(3)),
        *(call for call, _ in SEQUENCE_ARGUMENTS.values()),
    ],
    ids=[
        "positions",
        "from_inverse",
        "sum_variant",
        "expected_variant",
        "tree_class",
        "no_records",
        "forest_lengths",
        "forest_no_candidates",
        "enumerate_negative_cap",
        "rooted_trees_negative_cap",
        "minima_negative_cap",
        "subtree_vertex_zero",
        "subtree_vertex_past_n",
        "edge_length_one_vertex",
        "rooted_trees_no_vertex",
        "float_vertex_id",
        "link_of_three_ids",
        "float_positions",
        "non_integer_vertex_ids",
        "fractional_z",
        "no_resamples",
        "negative_identity",
        "links_not_iterable",
        "head_vector_none",
        "head_vector_bytes",
        "estimate_generator_seed",
        *SEQUENCE_ARGUMENTS,
    ],
)
def test_bad_arguments_raise_out_of_range(call):
    with pytest.raises(OutOfRange):
        call()


@pytest.mark.parametrize("argument", SEQUENCE_ARGUMENTS)
def test_sequence_argument_errors_name_the_argument(argument):
    call, name = SEQUENCE_ARGUMENTS[argument]
    with pytest.raises(OutOfRange, match=name):
        call()


# Every integer argument of the entry points: a call that takes the value,
# the least value the argument accepts, the error a bad value raises, and
# whether None is valid (it selects a default).
INTEGER_ARGUMENTS = {
    "build_tree_n": (lambda v: build_tree(v, [(2, 1)], 1), 1, UnsupportedSize, False),
    "build_tree_root": (lambda v: build_tree(2, [(2, 1)], v), 1, BadRoot, False),
    "build_tree_link_id": (lambda v: build_tree(2, [(2, v)], 1), 1, OutOfRange, False),
    "make_class_n": (lambda v: make_class("star_hub", v), 1, UnsupportedSize, False),
    "make_class_k": (lambda v: make_class("linear_k", 5, v), 0, UnsupportedSize, True),
    "class_formula_n": (lambda v: class_formula("star_hub", v), 1, UnsupportedSize, False),
    "class_formula_k": (lambda v: class_formula("linear_k", 5, v), 0, UnsupportedSize, True),
    "random_tree_n": (lambda v: random_tree(v, 1), 1, UnsupportedSize, False),
    "random_tree_seed": (lambda v: random_tree(5, v), 0, OutOfRange, False),
    "subtree_vertex": (lambda v: CHAIN3.subtree(v), 1, OutOfRange, False),
    "unconstrained_n": (lambda v: expected_sum_unconstrained(v), 1, OutOfRange, False),
    "edge_probability_n": (lambda v: edge_length_probability(v, 1), 1, OutOfRange, False),
    "edge_probability_d": (lambda v: edge_length_probability(5, v), 1, OutOfRange, False),
    "enumerate_cap": (lambda v: enumerate_projective(CHAIN3, v), 0, OutOfRange, False),
    "identity_n": (lambda v: LinearArrangement.identity(v), 0, OutOfRange, False),
    "minima_n": (lambda v: min_expected_sum(v), 1, OutOfRange, False),
    "minima_cap": (lambda v: min_expected_sum(3, cap=v), 0, OutOfRange, False),
    "rooted_trees_n": (lambda v: enumerate_rooted_trees(v), 1, OutOfRange, False),
    "rooted_trees_cap": (lambda v: enumerate_rooted_trees(3, cap=v), 0, OutOfRange, False),
    "maxima_n": (lambda v: max_expected_sum(v), 1, OutOfRange, False),
    "sample_seed": (lambda v: sample_projective(CHAIN3, v), 0, OutOfRange, False),
    "estimate_z": (lambda v: estimate_expected_sum(CHAIN3, v, 1), 1, OutOfRange, False),
    "estimate_seed": (lambda v: estimate_expected_sum(CHAIN3, 10, v), 0, OutOfRange, False),
    "aggregate_resamples": (lambda v: aggregate_errors([(3, 0.1)], resamples=v), 1, OutOfRange, False),
    "aggregate_seed": (lambda v: aggregate_errors([(3, 0.1)], seed=v), 0, OutOfRange, False),
    "analyze_z": (lambda v: analyze_treebank(CORPUS, [10, v]), 1, OutOfRange, False),
    "analyze_seed": (lambda v: analyze_treebank(CORPUS, [10], seed=v), 0, OutOfRange, False),
    "analyze_jobs": (lambda v: analyze_treebank(CORPUS, [10], jobs=v), 1, OutOfRange, False),
    "decimal_digits": (lambda v: format_rational(Fraction(1, 3), v), 0, OutOfRange, True),
}


def _not_integers(least, none_is_valid):
    """Integral and non-integral floats, numeric strings, None, and the ints
    below ``least``: negative ones, and 0 where 0 is out of range."""
    return st.one_of(
        st.integers(-3, 40).map(float),
        st.integers(-3, 40).map(np.float64),
        st.floats().filter(lambda x: not x.is_integer()),
        st.integers(-3, 40).map(str),
        st.nothing() if none_is_valid else st.none(),
        st.integers(max_value=least - 1),
    )


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_arguments_raise_their_documented_error(argument, data):
    call, least, error, none_is_valid = INTEGER_ARGUMENTS[argument]
    value = data.draw(_not_integers(least, none_is_valid))
    with pytest.raises(error):  # a bare TypeError, ValueError or IndexError fails here
        call(value)


def test_numpy_integer_ids_are_accepted():
    ids = np.array([2, 1, 3])
    assert LinearArrangement(ids).pos[1:] == (2, 1, 3)
    assert LinearArrangement.from_inverse(ids).inverse[1:] == (2, 1, 3)
    assert all(type(p) is int for p in LinearArrangement(ids).pos)
    assert build_tree(3, [(np.int64(2), 1), (3, np.int32(2))], 1) == CHAIN3
    # numpy integer sizes, roots, caps, seeds, z and jobs give what ints give
    n, cap, seed, z, jobs = np.int64(6), np.int32(50), np.uint32(3), np.int16(10), np.int64(2)
    tree = random_tree(n, seed)
    assert tree == random_tree(6, 3)
    assert build_tree(np.int8(3), [(2, 1), (3, 2)], np.int64(1)) == CHAIN3
    assert list(enumerate_projective(tree, cap=np.int64(10**4))) == list(enumerate_projective(tree))
    assert min_expected_sum(n, cap=cap) == min_expected_sum(6, cap=50)
    assert list(enumerate_rooted_trees(n, cap=cap)) == list(enumerate_rooted_trees(6, cap=50))
    assert make_class("linear_k", n, np.int64(2)) == make_class("linear_k", 6, 2)
    assert LinearArrangement.identity(n) == LinearArrangement.identity(6)
    assert sample_projective(tree, seed) == sample_projective(tree, 3)
    # int64 arithmetic would wrap: 2^69 arrangements, (2^32)^2 - 1 over 3
    assert class_formula("linear_k", np.int64(70)) == class_formula("linear_k", 70)
    assert expected_sum_unconstrained(np.int64(2**32)) == expected_sum_unconstrained(2**32)
    estimate = estimate_expected_sum(tree, z, seed)
    assert estimate == estimate_expected_sum(tree, 10, 3)
    assert type(estimate.z) is int and type(estimate.mean) is float
    assert type(estimate.seed) is int and estimate.seed == 3
    records = [(3, 0.1), (3, -0.2), (4, 0.05)]
    assert aggregate_errors(records, np.int64(50), seed) == aggregate_errors(records, 50, 3)
    report = analyze_treebank(CORPUS, [z], seed=seed, jobs=jobs)
    assert report == analyze_treebank(CORPUS, [10], seed=3, jobs=1)
    assert format_rational(Fraction(1, 3), np.int64(4)) == format_rational(Fraction(1, 3), 4)


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
    # every rooted tree with n <= 6, each with all n! arrangements
    trees = [parse_head_vector(h) for h in ("0", "0 1", "0 1 2 3", "0 1 1 2", "0 1 1 1")]
    trees += [t for n in range(1, 7) for t in enumerate_rooted_trees(n)]
    arrangements = {n: list(all_arrangements(n)) for n in range(1, 7)}
    for t in trees:
        for a in arrangements[t.n]:
            assert is_planar(t, a) == oracle_is_planar(t, a)
            if is_projective(t, a):
                assert is_planar(t, a)


def test_planarity_leaves_the_tree_views_unbuilt():
    # is_planar reads the parent array; a tuple view cached on the caller's
    # tree would outlive the call
    t = random_tree(50, 3)
    assert is_planar(t, sample_projective(t, 4))
    assert not {"parent", "children", "order"} & vars(t).keys()


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


def _relabeled(tree, arrangement):
    """The tree with each vertex v renamed to its position in the arrangement,
    in which the identity is the arrangement."""
    heads = [0] * tree.n
    for v in range(1, tree.n + 1):
        parent = tree.parent[v]
        heads[arrangement.pos[v] - 1] = arrangement.pos[parent] if parent else 0
    return tree_from_heads(heads)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 12), st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_projectivity_and_sums_equal_the_oracles_on_random_trees(shapes, seed):
    # random permutations are mostly crossing, projective samples never,
    # and a projective sample with two vertices swapped is either; the
    # identity of a tree relabeled by a projective sample is projective
    rng = np.random.default_rng(seed)
    trees = []
    for n, tree_seed in shapes:
        tree = random_tree(n, tree_seed)
        projective = sample_projective(tree, rng)
        swapped = list(projective.pos[1:])
        i, j = rng.integers(0, n, size=2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for a in (LinearArrangement((rng.permutation(n) + 1).tolist()), projective, LinearArrangement(swapped)):
            assert is_projective(tree, a) == oracle_is_projective(tree, a), (tree, a)
            assert sum_edge_lengths(tree, a) == oracle_edge_sum(tree, a), (tree, a)
        trees.append(_relabeled(tree, projective) if rng.integers(2) else tree)
    forest = _forest(trees)
    flags = arrangement._projective_rows(forest, np.arange(1, forest.n + 1)[None])[:, 0].tolist()
    assert flags == [oracle_is_projective(t, LinearArrangement.identity(t.n)) for t in trees]


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


def test_unchecked_arrangements_equal_validated_ones():
    # enumerate_projective and sample_projective wrap (pos, inverse) pairs
    # without the bijection check of LinearArrangement's constructor
    found = [a for n in range(1, 7) for t in enumerate_rooted_trees(n) for a in enumerate_projective(t)]
    rng = np.random.default_rng(27)
    found += [sample_projective(random_tree(int(rng.integers(1, 41)), rng), rng) for _ in range(200)]
    for a in found:
        validated = LinearArrangement(a.pos[1:])
        assert validated == a and validated.inverse == a.inverse
        assert all(type(x) is int for x in a.pos + a.inverse)


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


def test_enumerate_orders_are_pinned():
    # every vertex order, one line each, for the 85 rooted trees with
    # n <= 7 (in enumerate_rooted_trees order) and the 8-vertex hub star
    trees = [t for n in range(1, 8) for t in enumerate_rooted_trees(n)]
    trees.append(make_class("star_hub", 8))
    digest = hashlib.sha256()
    for t in trees:
        for a in enumerate_projective(t):
            digest.update(" ".join(map(str, a.inverse[1:])).encode() + b"\n")
    assert digest.hexdigest() == "8030d14dffdd94af94bf3e87b88c0321d90f93a66ab38d7053b6c9f84a288ef4"


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


def test_sample_negative_seed_is_out_of_range():
    t = random_tree(15, 9)
    for seed in (-1, np.int64(-5)):
        with pytest.raises(OutOfRange):
            sample_projective(t, seed)


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


def _tie_prone_cases():
    # (tree, key bits): 8 keys for trees whose blocks have at most 6
    # segments, 2^10 for stars of 9..60 leaves, so a row is often tied but
    # can still come out tie-free; together they run every kernel branch
    rng = np.random.default_rng(31)
    cases = [(random_tree(int(rng.integers(2, 13)), rng), 3) for _ in range(40)]
    cases = [(t, bits) for t, bits in cases if max(t.out_degree_array) <= 5]
    cases += [(make_class("star_hub", leaves + 1), 10) for leaves in (9, 12, 20, 40, 60)]
    cases += [(caterpillar(3, 10), 10), (broom(4, 12), 10)]
    sizes = {segments.shape[1] for tree, _ in cases for segments in tree.blocks}
    assert 2 in sizes and sizes & set(range(3, 7)) and max(sizes) > arrangement._PAIRWISE_MAX_SEGMENTS
    return cases


@pytest.mark.parametrize("z", [1, 3, 100])
def test_segment_offsets_match_the_oracle_when_keys_tie(z):
    # keys from a small range tie often; the kernel must drop exactly the
    # rows the oracle's own tie rule drops, and keep the rest in order
    redrawn = 0
    for i, (tree, bits) in enumerate(_tie_prone_cases()):
        rng = NarrowKeys(i, bits)
        offsets = np.concatenate(list(arrangement._segment_offsets(tree, z, rng)))
        oracle_kids, oracle_offsets = oracle_segment_offsets(tree, z, NarrowKeys(i, bits))
        assert np.array_equal(np.flatnonzero(tree.parent_array), oracle_kids)
        assert offsets.shape == oracle_offsets.shape == (z, 2 * tree.n - 1)
        assert np.array_equal(offsets, oracle_offsets), tree
        redrawn += rng.rows - z
    assert redrawn > 0


@pytest.mark.parametrize("cells", [1, 10, 100])
def test_groups_taken_in_slices_give_the_oracles_offsets_when_keys_tie(monkeypatch, cells):
    # a budget below one group's keys splits the group into slices of
    # max(1, cells // (k * rows)) blocks; a tie in any slice drops the row
    monkeypatch.setattr(arrangement, "_CHUNK_CELLS", cells)
    for i, (tree, bits) in enumerate(_tie_prone_cases()):
        offsets = np.concatenate(list(arrangement._segment_offsets(tree, 20, NarrowKeys(i, bits))))
        _, oracle_offsets = oracle_segment_offsets(tree, 20, NarrowKeys(i, bits))
        assert np.array_equal(offsets, oracle_offsets), (tree, cells)


def test_a_hub_past_the_int32_sort_key_keeps_its_block():
    # the block plan sorts links by out-degree * (n + 1) + parent, which
    # passes 2^31 here: a star of 50,000 vertices around hub 1, and one
    # more vertex below leaf 2
    n = 50_001
    tree = tree_from_heads([0] + [1] * 49_999 + [2])
    assert [segments.shape for segments in tree.blocks] == [(1, 2), (1, 50_000)]
    assert tree.blocks[0].tolist() == [[1, n + 49_999]]
    assert tree.blocks[1][0, 0] == 0 and sorted(tree.blocks[1][0, 1:].tolist()) == list(range(n, n + 49_999))
    a = sample_projective(tree, 50)
    assert is_projective(tree, a) and oracle_is_projective(tree, a)
    assert sum_edge_lengths(tree, a) == oracle_edge_sum(tree, a)


def test_segment_offsets_drawn_at_once_equal_successive_draws_when_keys_tie():
    for i, (tree, bits) in enumerate(_tie_prone_cases()):
        for z in (2, 7, 40):
            at_once = np.concatenate(list(arrangement._segment_offsets(tree, z, NarrowKeys(i, bits))))
            rng = NarrowKeys(i, bits)
            successive = [next(arrangement._segment_offsets(tree, 1, rng)) for _ in range(z)]
            assert np.array_equal(at_once, np.concatenate(successive)), (tree, z)


@pytest.mark.parametrize("z", [1, 7, 40])
def test_positions_over_the_chunks_equal_successive_draws_when_keys_tie(monkeypatch, z):
    # chunks of at most 3 rows: with keys this narrow some chunks are tied
    # in every row, yield nothing and must leave the stream in step
    wholly_tied = 0
    for i, (tree, bits) in enumerate(_tie_prone_cases()):
        monkeypatch.setattr(arrangement, "_CHUNK_CELLS", 3 * (2 * tree.n - 1))
        rng = NarrowKeys(i, bits)
        chunks = list(arrangement._segment_offsets(tree, z, rng))
        rows = [row for offsets in chunks for row in arrangement._positions(tree, offsets).tolist()]
        draws = NarrowKeys(i, bits)
        assert rows == [list(sample_projective(tree, draws).pos[1:]) for _ in range(z)], (tree, z)
        assert rng.rows == draws.rows
        wholly_tied += rng.calls - len(chunks)
    assert wholly_tied > 0


@pytest.mark.parametrize("cells", [None, 1, 50, 1000], ids=["default", "1", "50", "1000"])
def test_every_chunk_holds_at_most_the_cell_budget_in_rows(monkeypatch, cells):
    # max(1, _CHUNK_CELLS // columns) rows, for one tree and for a forest,
    # also when a single row is wider than the budget
    if cells:
        monkeypatch.setattr(arrangement, "_CHUNK_CELLS", cells)
    rng = np.random.default_rng(77)
    trees = [random_tree(int(rng.integers(1, 40)), rng) for _ in range(12)]
    for shape in ([make_class("star_hub", 30)], trees):
        forest = _forest(shape)
        columns = forest.n + np.count_nonzero(forest.parent_array)
        limit = max(1, arrangement._CHUNK_CELLS // columns)
        z = 3 * limit + 2
        chunks = list(arrangement._segment_offsets(forest, z, NarrowKeys(5, 12)))
        assert sum(len(offsets) for offsets in chunks) == z
        assert all(offsets.shape[1] == columns and 1 <= len(offsets) <= limit for offsets in chunks)


def test_forest_positions_are_each_trees_positions_shifted_by_its_start():
    # one-vertex trees have no block and no edge column; every tree's
    # columns of the forest's positions are its own draw, moved to start
    # at starts[i] + 1
    rng = np.random.default_rng(88)
    trees = [random_tree(1, 0), make_class("star_hub", 12), random_tree(1, 1), caterpillar(3, 4)]
    trees += [random_tree(int(rng.integers(1, 30)), rng) for _ in range(8)] + [random_tree(1, 2)]
    forest = _forest(trees)
    offsets = np.concatenate(list(arrangement._segment_offsets(forest, 20, NarrowKeys(3, 8))))
    positions = arrangement._positions(forest, offsets)
    for i, (tree, start) in enumerate(zip(trees, forest.starts.tolist())):
        own = offsets[:, start : start + tree.n]
        first_edge = forest.n + start - i  # each earlier tree has one root
        edges = offsets[:, first_edge : first_edge + tree.n - 1]
        alone = arrangement._positions(tree, np.concatenate((own, edges), axis=1))
        assert np.array_equal(positions[:, start : start + tree.n], alone + start), tree


def test_sampler_uniform_on_eight_vertex_tree_when_keys_tie():
    # the tree of the test above with 16 possible keys: about 72% of rows
    # hold a tie (mostly in the root's block of 6 segments) and are
    # redrawn; 21,600 draws, 5 per arrangement, as each draw costs several
    t = build_tree(8, [(1, 4), (2, 4), (5, 4), (3, 4), (6, 4), (7, 6), (8, 6)], 4)
    index = {a: i for i, a in enumerate(enumerate_projective(t))}
    counts = np.zeros(len(index), dtype=np.int64)
    rng = NarrowKeys(2025, 4)
    for _ in range(21600):
        counts[index[sample_projective(t, rng)]] += 1
    assert rng.rows > 2 * 21600
    assert stats.chisquare(counts).pvalue > 1e-3


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
        offsets = np.concatenate(list(arrangement._segment_offsets(tree, z, np.random.default_rng(seed))))
        oracle_kids, oracle_offsets = oracle_segment_offsets(tree, z, np.random.default_rng(seed))
        assert np.array_equal(np.flatnonzero(tree.parent_array), oracle_kids)
        assert offsets.dtype == np.int32 and np.array_equal(offsets, oracle_offsets), tree
