"""Exact expected edge-length sums under uniformly random arrangements.

Everything here returns ``fractions.Fraction`` values; no floating point
is involved, so ties between trees can be detected exactly.  The central
quantity is the expectation of the total edge length over the uniform
distribution on projective arrangements, computable in O(n) as

    (1/6) * (-1 + sum over vertices v of n_v * (2 d_v + 1))

where n_v is the size of the subtree rooted at v and d_v its out-degree.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import OutOfRange
from .tree import RootedTree, _check_class_args


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


def _closed_numerator(tree: RootedTree) -> int:
    """-1 + sum over v of n_v (2 d_v + 1), from the tree's stored arrays."""
    size = tree.size_array
    out_degree = tree.out_degree_array
    return int(size[1:] @ (2 * out_degree[1:] + 1)) - 1


def expected_sum_projective(tree: RootedTree, variant: str = "standard") -> Fraction:
    """Expected total edge length over uniform projective arrangements, in O(n).

    ``variant="minus_one"`` uses the edge-length definition that ignores
    the endpoints, which simply shifts the result down by n - 1.
    """
    if variant not in ("standard", "minus_one"):
        raise ValueError(f"unknown variant {variant!r}")
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
    k = _check_class_args(tree_class, n, k)
    if tree_class == "star_hub":
        return math.factorial(n), Fraction(n * n - 1, 3)
    if tree_class == "star_leaf":
        return 2 * math.factorial(n - 1), Fraction(n * (2 * n - 1), 6)
    if tree_class == "linear_k":
        if k == 0:
            return 2 ** (n - 1), Fraction((n - 1) * (n + 2), 4)
        count = 3 * 2 ** (n - 2)
        return count, Fraction((n - 1) * (3 * n + 10) + 6 * k * (k + 1 - n), 12)
    if tree_class == "qstar_hub":
        return 2 * math.factorial(n - 1), Fraction(2 * n * n - 2 * n + 3, 6)
    if tree_class == "qstar_far_leaf":
        return 4 * math.factorial(n - 2), Fraction(2 * n * n - 2 * n + 3, 6)
    if tree_class == "qstar_edge_leaf":
        return 4 * math.factorial(n - 2), Fraction(2 * n * n - 3 * n + 7, 6)
    # qstar_bridge
    return 6 * math.factorial(n - 2), Fraction(2 * n * n - 3 * n + 7, 6)
