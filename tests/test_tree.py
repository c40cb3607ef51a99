"""Tree construction, validation, metrics, classes, and canonical codes."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projlin.tree as tree_module
from projlin import (
    BadRoot,
    CycleDetected,
    Disconnected,
    MultipleHeads,
    OutOfRange,
    ProjlinError,
    UnsupportedSize,
    build_tree,
    canonical_code,
    enumerate_rooted_trees,
    make_class,
    parse_head_vector,
    random_tree,
    tree_from_heads,
)
from helpers import all_labeled_rooted_trees, oracle_tree_from_heads


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
    with pytest.raises(BadRoot):
        build_tree(3, [(2, 1), (3, 1)], 4)
    with pytest.raises(OutOfRange):
        build_tree(3, [(2, 1), (5, 1)], 1)
    with pytest.raises(UnsupportedSize):
        build_tree(0, [], 1)


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


def test_random_tree_determinism_and_validity():
    a = random_tree(40, 123)
    b = random_tree(40, 123)
    assert a == b
    assert random_tree(40, 124) != a
    assert a.size_array[a.root] == 40


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


def _both_kernels(build):
    """Run a constructor with the Python pass, then with pointer doubling,
    and require the same result from both."""
    results = []
    for cutoff in (10**9, 0):
        with mock.patch.object(tree_module, "_DOUBLING_MIN_N", cutoff):
            results.append(_views(build))
    assert results[0] == results[1]
    return results[0]


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
    got = _both_kernels(lambda: tree_from_heads(heads))
    assert got == _both_kernels(lambda: parse_head_vector(" ".join(map(str, heads))))
    want = oracle_tree_from_heads(heads)
    if want is None:
        assert isinstance(got[0], str)  # an error's class name
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(head_vectors(), st.randoms(use_true_random=False))
def test_links_in_any_order_keep_their_order_in_children(heads, rnd):
    if oracle_tree_from_heads(heads) is None:
        return
    links = [(v, h) for v, h in enumerate(heads, start=1) if h]
    rnd.shuffle(links)
    root = heads.index(0) + 1
    got = _both_kernels(lambda: build_tree(len(heads), links, root))
    parent, children, order, size, out_degree = got
    assert parent == (0,) + tuple(heads)
    for p in range(len(heads) + 1):
        assert children[p] == tuple(c for c, h in links if h == p)
    assert size[root] == len(heads) and sum(out_degree) == len(heads) - 1
    assert order[0] == root and sorted(order) == list(range(1, len(heads) + 1))
