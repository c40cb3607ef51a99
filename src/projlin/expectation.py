"""Exact expected edge-length sums under uniformly random arrangements.

Everything here returns ``fractions.Fraction`` values; no floating point
is involved, so ties between trees can be detected exactly.  The central
quantity is the expectation of the total edge length over the uniform
distribution on projective arrangements, computable in O(n) as

    (1/6) * (-1 + sum over vertices v of n_v * (2 d_v + 1))

where n_v is the size of the subtree rooted at v and d_v its out-degree.
An equivalent bottom-up recurrence adds, per vertex, the expected lengths
of the edges from v to its children: each such edge splits into the part
inside the child's segment, with expectation (n_u + 1) / 2, and the part
crossing the intermediate segments, with expectation (n - n_u - 1) / 3.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import OutOfRange, UnsupportedSize
from .tree import RootedTree, TREE_CLASSES

METHODS = ("closed_form", "recurrence")


def expected_sum_unconstrained(n: int) -> Fraction:
    """Expected total edge length over all n! arrangements: (n^2 - 1) / 3.

    Independent of the tree's shape; any tree on n vertices has n - 1
    edges, each with expected length (n + 1) / 3.
    """
    if n < 1:
        raise OutOfRange(f"n must be positive, got {n}")
    return Fraction(n * n - 1, 3)


def edge_length_probability(n: int, d: int) -> Fraction:
    """Probability that a fixed edge has length d in a uniform arrangement.

    Equals 2 (n - d) / (n (n - 1)) for 1 <= d <= n - 1; the lengths sum to
    one and their mean is (n + 1) / 3.
    """
    if n < 2:
        raise OutOfRange(f"edge lengths need n >= 2, got n={n}")
    if not 1 <= d <= n - 1:
        raise OutOfRange(f"edge length {d} not in 1..{n - 1}")
    return Fraction(2 * (n - d), n * (n - 1))


def expected_anchor_length(subtree_size: int) -> Fraction:
    """Expected span of a root-to-child edge inside the child's segment."""
    if subtree_size < 1:
        raise OutOfRange(f"subtree size must be positive, got {subtree_size}")
    return Fraction(subtree_size + 1, 2)


def expected_coanchor_length(n: int, subtree_size: int) -> Fraction:
    """Expected span of a root-to-child edge across intermediate segments."""
    if not 1 <= subtree_size <= n - 1:
        raise OutOfRange(f"subtree size {subtree_size} not in 1..{n - 1}")
    return Fraction(n - subtree_size - 1, 3)


def expected_root_edge_length(n: int, subtree_size: int) -> Fraction:
    """Expected length of a root-to-child edge: (2n + n_u + 1) / 6."""
    return expected_anchor_length(subtree_size) + expected_coanchor_length(n, subtree_size)


def _closed_numerator(tree: RootedTree) -> int:
    """-1 + sum over v of n_v (2 d_v + 1), from the tree's stored arrays."""
    size = tree.size_array
    out_degree = tree.out_degree_array
    return int(size[1:] @ (2 * out_degree[1:] + 1)) - 1


def _recurrence_numerator(tree: RootedTree, minus_one: bool) -> int:
    """Six times the expectation, evaluated by the per-subtree recurrence."""
    size = tree.size_array.tolist()
    children = tree.children
    acc = [0] * (tree.n + 1)
    shift = -5 if minus_one else 1
    for v in reversed(tree.order):
        kids = children[v]
        if kids:
            d = len(kids)
            acc[v] = d * (2 * size[v] + shift) + size[v] - 1 + sum(acc[c] for c in kids)
    return acc[tree.root]


def expected_sum_projective(
    tree: RootedTree, variant: str = "standard", method: str = "closed_form"
) -> Fraction:
    """Expected total edge length over uniform projective arrangements.

    ``variant="minus_one"`` uses the edge-length definition that ignores
    the endpoints, which simply shifts the result down by n - 1.  The
    closed form is the production path; the recurrence evaluates the same
    quantity bottom-up and exists for cross-validation.  Both are O(n).
    """
    if variant not in ("standard", "minus_one"):
        raise ValueError(f"unknown variant {variant!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "recurrence":
        return Fraction(_recurrence_numerator(tree, variant == "minus_one"), 6)
    numerator = _closed_numerator(tree)
    if variant == "minus_one":
        numerator += 6 - 6 * tree.n
    return Fraction(numerator, 6)


def class_formula(tree_class: str, n: int, k: int | None = None) -> tuple[int, Fraction]:
    """Closed forms for (arrangement count, expected sum) of a named class.

    Returns the same pair that :func:`projlin.arrangement.count_projective`
    and :func:`expected_sum_projective` would produce on the tree built by
    :func:`projlin.tree.make_class`, without building it.
    """
    if tree_class not in TREE_CLASSES:
        raise ValueError(f"unknown tree class {tree_class!r}")
    if n < 1:
        raise UnsupportedSize(f"n must be positive, got {n}")

    if tree_class == "star_hub":
        return math.factorial(n), Fraction(n * n - 1, 3)
    if tree_class == "star_leaf":
        if n < 2:
            raise UnsupportedSize("star_leaf needs n >= 2")
        return 2 * math.factorial(n - 1), Fraction(n * (2 * n - 1), 6)
    if tree_class == "linear_k":
        k = 0 if k is None else k
        if not 0 <= k <= n - 1:
            raise UnsupportedSize(f"linear_k needs 0 <= k <= {n - 1}, got {k}")
        k = min(k, n - 1 - k)
        if k == 0:
            return 2 ** (n - 1), Fraction((n - 1) * (n + 2), 4)
        count = 3 * 2 ** (n - 2)
        return count, Fraction((n - 1) * (3 * n + 10) + 6 * k * (k + 1 - n), 12)

    if n < 4:
        raise UnsupportedSize(f"quasi-star classes need n >= 4, got {n}")
    if tree_class == "qstar_hub":
        return 2 * math.factorial(n - 1), Fraction(2 * n * n - 2 * n + 3, 6)
    if tree_class == "qstar_far_leaf":
        return 4 * math.factorial(n - 2), Fraction(2 * n * n - 2 * n + 3, 6)
    if tree_class == "qstar_edge_leaf":
        return 4 * math.factorial(n - 2), Fraction(2 * n * n - 3 * n + 7, 6)
    # qstar_bridge
    return 6 * math.factorial(n - 2), Fraction(2 * n * n - 3 * n + 7, 6)
