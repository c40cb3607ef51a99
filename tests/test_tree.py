"""Tree construction, validation, metrics, classes, and canonical codes."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import projlin.tree as tree_module
from projlin import (
    BadRoot,
    CycleDetected,
    Disconnected,
    MultipleHeads,
    OutOfRange,
    TREE_CLASSES,
    ProjlinError,
    UnsupportedSize,
    build_tree,
    canonical_code,
    class_formula,
    enumerate_rooted_trees,
    make_class,
    min_expected_sum,
    parse_head_vector,
    random_tree,
    tree_from_heads,
)
from helpers import (
    CLASS_MINIMUM,
    all_labeled_rooted_trees,
    oracle_make_class,
    oracle_parse_head_vector,
    oracle_subtree,
    oracle_tree_from_heads,
    tree_from_pruefer,
)


def test_single_vertex():
    t = build_tree(1, [], 1)
    assert t.n == 1 and t.root == 1 and t.children[1] == ()
    assert t.head_vector() == "0"


def test_star_from_links():
    t = build_tree(3, [(2, 1), (3, 1)], 1)
    assert t.children[1] == (2, 3)
    assert t.parent[2] == t.parent[3] == 1


def test_two_cycle_rejected():
    with pytest.raises((MultipleHeads, CycleDetected)):
        build_tree(3, [(2, 1), (1, 2)], 1)


def test_validation_errors_by_name():
    with pytest.raises(MultipleHeads):
        build_tree(3, [(2, 1), (2, 3)], 1)
    with pytest.raises(Disconnected):
        build_tree(3, [(2, 1)], 1)
    with pytest.raises(Disconnected):
        build_tree(4, [(2, 1), (3, 1), (1, 4)], 1)
    with pytest.raises(CycleDetected):
        build_tree(4, [(2, 1), (3, 4), (4, 3)], 1)
    with pytest.raises(CycleDetected):
        build_tree(2, [(1, 1), (2, 1)], 1)
    # root 1 hangs below the 2-cycle 2 <-> 3: no vertex lacks a parent, and
    # the walk up from the root never comes back to it
    with pytest.raises(CycleDetected):
        build_tree(3, [(1, 2), (2, 3), (3, 2)], 1)
    with pytest.raises(BadRoot):
        build_tree(3, [(2, 1), (3, 1)], 4)
    with pytest.raises(OutOfRange):
        build_tree(3, [(2, 1), (5, 1)], 1)
    with pytest.raises(UnsupportedSize):
        build_tree(0, [], 1)


# Every error build_tree raises for bad links: its class and message.
BUILD_TREE_ERRORS = {
    "too_few_links": (
        (3, [(2, 1)], 1),
        "Disconnected",
        "2 parent links needed to connect 3 vertices, got 1",
    ),
    "root_parent_cycle_through_root": (
        (3, [(1, 2), (2, 1), (3, 1)], 1),
        "CycleDetected",
        "vertex 1 is reached twice from root 1",
    ),
    "root_parent_parentless_vertex": (
        (4, [(2, 1), (3, 1), (1, 4)], 1),
        "Disconnected",
        "vertex 4 is not reachable from root 1",
    ),
    "root_parent_cycle_above_root": (
        (3, [(1, 2), (2, 3), (3, 2)], 1),
        "CycleDetected",
        "the unreachable vertices form one or more cycles",
    ),
    "cycle_beside_root": (
        (4, [(2, 1), (3, 4), (4, 3)], 1),
        "CycleDetected",
        "the unreachable vertices form one or more cycles",
    ),
    "self_loop": ((2, [(1, 1), (2, 1)], 1), "CycleDetected", "vertex 1 is its own parent"),
    "two_heads": ((3, [(2, 1), (2, 3)], 1), "MultipleHeads", "vertex 2 has more than one parent"),
    "out_of_range_id": ((3, [(2, 1), (5, 1)], 1), "OutOfRange", "link (5, 1) not within 1..3"),
}


@pytest.mark.parametrize("case", BUILD_TREE_ERRORS)
def test_build_tree_errors_are_pinned(case):
    args, name, message = BUILD_TREE_ERRORS[case]
    assert _views(lambda: build_tree(*args)) == (name, message)


def test_head_vector_round_trip():
    t = parse_head_vector("0 1 1 2 2")
    assert t.head_vector() == "0 1 1 2 2"
    assert tree_from_heads((0, 1, 1, 2, 2)) == t


def test_head_vectors_must_hold_integers():
    for heads in ([0, 1.5], [0, 10**30], [[0, 1]], ["0", "1"]):
        with pytest.raises(OutOfRange):
            tree_from_heads(heads)


def test_head_vectors_need_exactly_one_root():
    for heads in ([1, 1], [0, 0, 1], [0, 1, 0], [0] * 3 + [1] * 200):
        with pytest.raises(BadRoot):
            tree_from_heads(heads)


def test_metrics_star_and_chain():
    star = make_class("star_hub", 5)
    assert star.size_array[1:].tolist() == [5, 1, 1, 1, 1]
    assert star.out_degree_array[1:].tolist() == [4, 0, 0, 0, 0]

    chain = parse_head_vector("0 1 2")
    assert chain.size_array[1:].tolist() == [3, 2, 1]


def test_metrics_eight_vertex_example():
    # root 4 with children 1, 2, 5, 3, 6; vertex 6 has children 7, 8
    t = build_tree(8, [(1, 4), (2, 4), (5, 4), (3, 4), (6, 4), (7, 6), (8, 6)], 4)
    assert t.size_array[4] == 8
    assert t.size_array[6] == 3
    assert t.out_degree_array[4] == 5


def test_metrics_invariants_random():
    for seed in range(25):
        t = random_tree(2 + seed * 3 % 60 + 1, seed)
        size = t.size_array.tolist()
        assert size[t.root] == t.n
        assert sum(t.out_degree_array[1:].tolist()) == t.n - 1
        for v in range(1, t.n + 1):
            assert size[v] == 1 + sum(size[c] for c in t.children[v])
            assert size[v] >= 1


def test_make_class_shapes():
    star = make_class("star_hub", 4)
    assert star.children[1] == (2, 3, 4)
    chain = make_class("linear_k", 5, 0)
    assert chain.head_vector() == "0 1 2 3 4"
    bridge = make_class("qstar_bridge", 5)
    # root is the internal non-hub vertex: one leaf child and the hub subtree
    assert len(bridge.children[1]) == 2
    degrees = sorted(len(bridge.children[v]) for v in range(1, 6))
    assert degrees == [0, 0, 0, 2, 2]


def test_make_class_constraints():
    with pytest.raises(UnsupportedSize):
        make_class("qstar_hub", 3)
    with pytest.raises(UnsupportedSize):
        make_class("star_leaf", 1)
    with pytest.raises(UnsupportedSize):
        make_class("linear_k", 5, 5)
    with pytest.raises(ValueError):
        make_class("nonesuch", 5)


@pytest.mark.parametrize("tree_class", TREE_CLASSES)
def test_make_class_labels_vertices_as_the_link_recipes(tree_class):
    least = CLASS_MINIMUM[tree_class]
    for n in range(least, 41):
        for k in range(n) if tree_class == "linear_k" else [None]:
            tree = make_class(tree_class, n, k)
            oracle = oracle_make_class(tree_class, n, k)
            assert tree.root == oracle.root
            assert tree.parent == oracle.parent
            assert tree.head_vector() == oracle.head_vector()


@pytest.mark.parametrize("tree_class", TREE_CLASSES)
def test_every_class_is_unsupported_below_its_minimum(tree_class):
    assert TREE_CLASSES == tuple(CLASS_MINIMUM)
    least = CLASS_MINIMUM[tree_class]
    for build in (make_class, class_formula):
        with pytest.raises(UnsupportedSize):
            build(tree_class, least - 1)
        build(tree_class, least)
    if least > 1:  # n = 0 is not a positive integer, whatever the class
        message = f"^{tree_class} needs n >= {least}, got {least - 1}$"
        with pytest.raises(UnsupportedSize, match=message):
            make_class(tree_class, least - 1)


def test_linear_k_rooting_symmetry():
    for n in (2, 5, 8, 9):
        for k in range(n):
            a = make_class("linear_k", n, k)
            b = make_class("linear_k", n, n - 1 - k)
            assert canonical_code(a) == canonical_code(b)


def test_canonical_code_isomorphism():
    # same star with children inserted in different orders
    a = build_tree(4, [(2, 1), (3, 1), (4, 1)], 1)
    b = build_tree(4, [(4, 1), (2, 1), (3, 1)], 1)
    assert canonical_code(a) == canonical_code(b)
    # relabeled chain versus original
    chain = parse_head_vector("0 1 2 3")
    relabeled = build_tree(4, [(1, 3), (3, 4), (2, 1)], 4)
    assert canonical_code(chain) == canonical_code(relabeled)
    # chain and star on four vertices differ
    assert canonical_code(chain) != canonical_code(build_tree(4, [(2, 1), (3, 1), (4, 1)], 1))


def test_canonical_code_partitions_all_rooted_trees():
    # distinct unlabeled rooted trees per size; the full labeled sweep is
    # exhaustive up to n = 6 and randomized (but seeded) at n = 7
    expected = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20}
    for n, want in expected.items():
        codes = {canonical_code(t) for t in all_labeled_rooted_trees(n)}
        assert len(codes) == want
    enumerated = {canonical_code(t) for t in enumerate_rooted_trees(7)}
    assert len(enumerated) == 48
    import numpy as np

    rng = np.random.default_rng(20240520)
    sampled = {canonical_code(random_tree(7, rng)) for _ in range(20000)}
    assert sampled == enumerated


def test_subtree_extraction():
    t = build_tree(8, [(1, 4), (2, 4), (5, 4), (3, 4), (6, 4), (7, 6), (8, 6)], 4)
    sub = t.subtree(6)
    assert sub.n == 3 and sub.root == 1
    assert canonical_code(sub) == canonical_code(parse_head_vector("0 1 1"))
    whole = t.subtree(4)
    assert canonical_code(whole) == canonical_code(t)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_subtree_relabels_breadth_first_as_the_frontier_oracle(n, seed):
    t = random_tree(n, seed)
    for v in range(1, n + 1):
        sub = t.subtree(v)
        want = oracle_subtree(t, v)
        assert sub == want and sub.head_vector() == want.head_vector()


def test_random_tree_negative_seed_is_out_of_range():
    for n in (1, 2, 40):
        with pytest.raises(OutOfRange):
            random_tree(n, -2)


def test_random_tree_needs_a_vertex():
    with pytest.raises(UnsupportedSize):
        random_tree(0, 1)


def test_equal_trees_hash_equal():
    a, b = parse_head_vector("0 1 1 2"), tree_from_heads([0, 1, 1, 2])
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, parse_head_vector("0 1 2 2")}) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from(TREE_CLASSES), st.integers(1, 12))
def test_every_constructor_stores_int32_arrays_and_equal_trees_hash_equal(n, seed, tree_class, m):
    # the hash reads the parent array's bytes, so one dtype from every
    # constructor is what makes equal trees hash alike
    t = random_tree(n, seed)
    links = [(v, p) for v, p in enumerate(t.parent) if p]
    trees = [
        t,
        tree_from_heads(t.parent[1:]),
        tree_from_heads(np.array(t.parent[1:], dtype=np.uint16)),
        parse_head_vector(t.head_vector()),
        build_tree(n, links, t.root),
        make_class(tree_class, n + 3),
        t.subtree(1 + seed % n),
        *min_expected_sum(m).trees,
    ]
    for tree in trees + [tree_module._forest(trees)]:
        arrays = (tree.parent_array, tree.size_array, tree.out_degree_array)
        assert [array.dtype for array in arrays] == [np.int32] * 3
    for tree in trees:
        copy = parse_head_vector(tree.head_vector())
        assert tree == copy and hash(tree) == hash(copy)
    assert len({*trees[:5]}) == 1


def test_random_tree_determinism_and_validity():
    a = random_tree(40, 123)
    b = random_tree(40, 123)
    assert a == b
    assert random_tree(40, 124) != a
    assert a.size_array[a.root] == 40


def test_random_tree_matches_the_pruefer_oracle():
    # random_tree draws the root first, then the Pruefer sequence
    def oracle(n, rng):
        if n == 1:
            return build_tree(1, [], 1)
        root = int(rng.integers(1, n + 1))
        sequence = rng.integers(1, n + 1, size=n - 2).tolist()
        return tree_from_pruefer(sequence, n, root)

    for seed in range(5):
        for n in range(1, 61):
            got = random_tree(n, seed)
            want = oracle(n, np.random.default_rng(seed))
            assert got == want
    shared, replay = np.random.default_rng(77), np.random.default_rng(77)
    for n in list(range(1, 61)) * 3:
        got = random_tree(n, shared)
        want = oracle(n, replay)
        assert got == want
    assert shared.integers(2**62) == replay.integers(2**62)


def _views(build):
    """What a constructor gives: the tree's views, or the error it raised."""
    try:
        t = build()
    except ProjlinError as exc:
        return type(exc).__name__, str(exc)
    return (
        t.parent,
        t.children,
        t.order,
        tuple(t.size_array.tolist()),
        tuple(t.out_degree_array.tolist()),
    )


def test_one_and_two_vertices_through_every_constructor():
    # (parent, children, order, size, out_degree) of each tree
    one = ((0, 0), ((), ()), (1,), (0, 1), (0, 0))
    two_at_1 = ((0, 0, 1), ((), (2,), ()), (1, 2), (0, 2, 1), (0, 1, 0))
    two_at_2 = ((0, 2, 0), ((), (), (1,)), (2, 1), (0, 1, 2), (0, 0, 1))
    builds = [
        (one, lambda: build_tree(1, [], 1)),
        (one, lambda: tree_from_heads([0])),
        (one, lambda: parse_head_vector("0")),
        (one, lambda: make_class("star_hub", 1)),
        (one, lambda: make_class("linear_k", 1)),
        (one, lambda: random_tree(1, 5)),
        (one, lambda: parse_head_vector("0 1 2").subtree(3)),
        (two_at_1, lambda: build_tree(2, [(2, 1)], 1)),
        (two_at_1, lambda: tree_from_heads([0, 1])),
        (two_at_1, lambda: parse_head_vector("0 1")),
        (two_at_1, lambda: make_class("star_hub", 2)),
        (two_at_1, lambda: make_class("star_leaf", 2)),
        (two_at_1, lambda: make_class("linear_k", 2, 1)),
        (two_at_1, lambda: parse_head_vector("0 1 2").subtree(2)),
        (two_at_1, lambda: parse_head_vector("2 0 2 1").subtree(1)),
        (two_at_2, lambda: build_tree(2, [(1, 2)], 2)),
        (two_at_2, lambda: tree_from_heads([2, 0])),
        (two_at_2, lambda: parse_head_vector("2 0")),
    ]
    for want, build in builds:
        assert _views(build) == want
    random_twos = {_views(lambda: random_tree(2, seed)) for seed in range(20)}
    assert random_twos == {two_at_1, two_at_2}


@st.composite
def head_vectors(draw):
    """Arbitrary head vectors, and trees with at most one entry changed."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-1, n + 1), min_size=n, max_size=n))
    labels = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for i in range(1, n):
        heads[labels[i] - 1] = labels[draw(st.integers(0, i - 1))]
    if draw(st.booleans()):
        heads[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n + 1))
    return heads


@settings(max_examples=400, deadline=None)
@given(head_vectors())
def test_head_vectors_give_the_oracle_tree_or_a_named_error(heads):
    got = _views(lambda: tree_from_heads(heads))
    assert got == _views(lambda: parse_head_vector(" ".join(map(str, heads))))
    want = oracle_tree_from_heads(heads)
    if want is None:
        assert isinstance(got[0], str)  # an error's class name
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(head_vectors(), st.randoms(use_true_random=False))
def test_links_in_any_order_give_the_tree_of_their_heads(heads, rnd):
    # the link order is not kept: children come out ascending, as from
    # the head vector
    if oracle_tree_from_heads(heads) is None:
        return
    links = [(v, h) for v, h in enumerate(heads, start=1) if h]
    rnd.shuffle(links)
    root = heads.index(0) + 1
    got = _views(lambda: build_tree(len(heads), links, root))
    assert got == _views(lambda: tree_from_heads(heads))


_WHITESPACE = " \t\n\r\x0b\x0c"
# Pieces the one-call parse must not read itself: signs, underscores (which
# int() accepts inside digits), NBSP (whitespace to str.split), a
# non-ASCII digit, and tokens that overflow int64.
_TEXT_PIECES = st.one_of(
    st.sampled_from(list("0123456789" + _WHITESPACE + "-+_\xa0\u0661")),
    st.integers(10**19, 10**20 - 1).map(str),
)


@st.composite
def head_vector_texts(draw):
    """Text soups of ``_TEXT_PIECES``, and head vectors written between
    runs of ASCII whitespace, one token possibly prefixed by a piece."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(_TEXT_PIECES, max_size=30)))
    tokens = [str(h) for h in draw(head_vectors())]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(_TEXT_PIECES) + tokens[i]
    gaps = draw(
        st.lists(
            st.text(_WHITESPACE, min_size=1, max_size=3),
            min_size=len(tokens) - 1,
            max_size=len(tokens) - 1,
        )
    )
    lead, trail = draw(st.text(_WHITESPACE, max_size=2)), draw(st.text(_WHITESPACE, max_size=2))
    return lead + "".join(g + t for g, t in zip([""] + gaps, tokens)) + trail


@settings(max_examples=400, deadline=None)
@given(head_vector_texts())
@example("0 1 1\n")
@example("\x0b0\x0c1\t1\r\n")
@example("")
@example(" \t\n")
@example("0 1 99999999999999999999")
@example("0 1 9223372036854775807")
@example("0 -1")
@example("0 +1")
@example("0 1_0")
@example("0 \u0661")
@example("0\xa01")
def test_parsed_texts_give_the_oracle_tree_or_its_error(text):
    want = _views(lambda: oracle_parse_head_vector(text))
    assert _views(lambda: parse_head_vector(text)) == want


@pytest.mark.parametrize("k", range(7, 13))
def test_doubling_on_paths_around_powers_of_two(k):
    rnd = random.Random(k)
    for n in (2**k - 1, 2**k, 2**k + 1):
        for labels in (list(range(1, n + 1)), rnd.sample(range(1, n + 1), n)):
            parent = np.zeros(n + 1, dtype=np.int32)
            parent[labels[1:]] = labels[:-1]
            given_parent = parent.copy()
            got = _views(lambda: tree_from_heads(parent[1:]))
            assert np.array_equal(parent, given_parent)
            _, _, order, size, out_degree = got
            assert order == tuple(labels)
            assert [size[v] for v in labels] == list(range(n, 0, -1))
            assert [out_degree[v] for v in labels] == [1] * (n - 1) + [0]


def test_doubling_finds_a_two_cycle_beside_a_path_and_above_one():
    n = 300
    beside = [0] + list(range(1, 298)) + [300, 299]  # path 1..298, cycle 299-300
    # path 1..149, cycle 150-151, and the path 152..300 hanging below 151
    above = [0] + list(range(1, 149)) + [151, 150] + list(range(151, 300))
    for heads in (beside, above):
        parent = np.array([0] + heads, dtype=np.int32)
        assert np.count_nonzero(parent) == n - 1
        got = _views(lambda: tree_from_heads(parent[1:]))
        assert got == ("CycleDetected", "the unreachable vertices form one or more cycles")
