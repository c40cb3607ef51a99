"""Extremes of the expected edge-length sum over all trees of a size.

The maximum has a closed form: the star rooted at its hub attains
(n^2 - 1) / 3, and for n >= 3 it is the only tree that does.  The minimum
has no known closed form, so it is found by dynamic programming on its
optimal substructure: a minimal n-vertex tree consists of a root whose
child subtrees are themselves minimal, with subtree sizes forming a
partition of n - 1.  The cost of such a composition is

    (n - 1) / 6 + sum over the parts s of ((2n + 1) / 6 + minimum of size s).

A part's cost depends only on its size, so the cheapest multiset of child
sizes is an unbounded knapsack, solved by a table in O(n^2) steps.  Every
sub-multiset of an optimal multiset is optimal for its own sum, so one
walk over the partitions of n - 1 that keeps only parts meeting the table
finds every optimal multiset.  All values are exact fractions with
denominator dividing 6, so ties are detected exactly and every minimizer
(up to isomorphism) is kept.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Dict, Iterator, Mapping, NamedTuple, Sequence

from .errors import CapExceeded, OutOfRange, _integer, _iterable
from .expectation import expected_sum_unconstrained
from .tree import RootedTree, _attach_root, make_class

DEFAULT_MIN_CAP = 20
DEFAULT_TREE_ENUM_CAP = 10


class OptimumEntry(NamedTuple):
    """The optimal value for one size and every tree attaining it.

    ``trees`` holds pairwise non-isomorphic trees (distinct canonical
    codes), each with ``n`` vertices and expectation equal to ``value``.
    """

    n: int
    value: Fraction
    trees: tuple[RootedTree, ...]


MemoTable = Dict[int, OptimumEntry]


def max_expected_sum(n: int) -> tuple[Fraction, RootedTree]:
    """The maximum expected sum, (n^2 - 1) / 3, and the hub-rooted star.

    For n >= 3 the star is the unique maximizer; for n <= 2 it is the only
    tree there is.
    """
    return expected_sum_unconstrained(n), make_class("star_hub", n)


def _partitions(
    total: int, largest: int, fits: Callable[[int, int], bool] | None = None
) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into positive parts of at most ``largest``,
    each in non-increasing order, in reverse-lexicographic order.

    With ``fits``, a part ``s`` is only taken when ``fits(s, rest)`` holds,
    ``rest`` being what remains of the total after it.
    """
    if total == 0:
        yield ()
        return
    for first in range(min(largest, total), 0, -1):
        if fits is None or fits(first, total - first):
            for rest in _partitions(total - first, first, fits):
                yield (first,) + rest


def combine_forests(
    part_sizes: Sequence[int], per_size_trees: Sequence[Sequence[RootedTree]]
) -> Iterator[RootedTree]:
    """Attach a new root above every non-isomorphic forest choice.

    ``per_size_trees[i]`` lists the candidate trees for the part
    ``part_sizes[i]``; equal part sizes must carry the same candidate list
    (the plain Cartesian product would then repeat isomorphic forests, so
    a run of k equal sizes takes the multisets of k candidates, by
    ``combinations_with_replacement``).  The runs go by decreasing size,
    and the forests are their product.  Provided each candidate list is
    itself duplicate-free, no two yielded trees are isomorphic.  Part sizes
    that are not positive integers, candidate lists that are not iterable
    or lists of unequal length raise OutOfRange.
    """
    sizes = _iterable(part_sizes, "part_sizes", "positive integers")
    part_sizes = [_integer(size, "an entry of part_sizes", 1) for size in sizes]
    per_size_trees = [
        list(_iterable(trees, "an entry of per_size_trees", "rooted trees"))
        for trees in _iterable(per_size_trees, "per_size_trees", "candidate lists")
    ]
    if len(part_sizes) != len(per_size_trees):
        raise OutOfRange("part_sizes and per_size_trees must have equal length")
    paired = sorted(zip(part_sizes, per_size_trees), key=lambda it: -it[0])
    runs = []  # a run of equal sizes takes its first candidate list
    for size, run in itertools.groupby(paired, key=lambda it: it[0]):
        candidates = [trees for _, trees in run]
        if not all(candidates):
            raise OutOfRange(f"no candidate trees for part of size {size}")
        runs.append(itertools.combinations_with_replacement(candidates[0], len(candidates)))
    for choice in itertools.product(*runs):
        yield _attach_root([tree for trees in choice for tree in trees])


def _check_size(n: int, cap: int) -> int:
    """``n`` as an int, after :func:`_integer` checks ``n`` and ``cap``;
    CapExceeded for n above ``cap``."""
    n = _integer(n, "n", 1)
    cap = _integer(cap, "cap", 0)
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the cap of {cap}; raise cap= to override")
    return n


def min_expected_sum(n: int, memo: MemoTable | None = None, cap: int = DEFAULT_MIN_CAP) -> OptimumEntry:
    """Minimum expected sum over all n-vertex rooted trees, with all minimizers.

    Fills ``memo`` bottom-up for every size up to n, so reusing the table
    across calls costs nothing and smaller entries match fresh runs.
    Minimizers come with the fewest root children first.  ``cap`` bounds
    n: the value table takes O(n^2) steps per size, but every minimizer
    is built as a tree and their number grows fast (2,653 at n = 120).
    A negative ``cap`` raises OutOfRange.
    """
    n = _check_size(n, cap)
    if memo is None:
        memo = {}
    for m in range(1, n + 1):
        if m not in memo:
            memo[m] = _solve_min(m, memo)
    return memo[n]


def _solve_min(m: int, memo: MemoTable) -> OptimumEntry:
    # six times the cost of a root child of size s, and of the cheapest
    # multiset of child sizes summing to t; exact, as denominators divide 6
    part6 = [0] + [2 * m + 1 + int(6 * memo[s].value) for s in range(1, m)]
    best6 = [0] * m
    for t in range(1, m):
        best6[t] = min(part6[s] + best6[t - s] for s in range(1, t + 1))

    def fits(s: int, rest: int) -> bool:
        return part6[s] + best6[rest] == best6[s + rest]

    trees = _sweep(m, {s: entry.trees for s, entry in memo.items()}, fits)
    return OptimumEntry(m, Fraction(m - 1 + best6[m - 1], 6), tuple(trees))


def _sweep(m: int, by_size: Mapping[int, Sequence[RootedTree]], fits=None) -> list[RootedTree]:
    """The trees on m vertices with root children from ``by_size`` whose
    sizes partition m - 1 as ``fits`` allows, fewest root children first."""
    parts = sorted(_partitions(m - 1, m - 1, fits), key=len)
    return [tree for part in parts for tree in combine_forests(part, [by_size[s] for s in part])]


def enumerate_rooted_trees(n: int, cap: int = DEFAULT_TREE_ENUM_CAP) -> Iterator[RootedTree]:
    """Every unlabeled rooted tree on n vertices, exactly once.

    Built recursively: a rooted tree is a root plus a multiset of smaller
    rooted trees, so the trees of size m are obtained by sweeping the
    partitions of m - 1 and combining previously built subtree lists with
    the duplicate-free forest product.  Distinct partitions give distinct
    child-size multisets, hence no tree appears twice.  Trees come with
    the fewest root children first.  n < 1 or a negative ``cap`` raises
    OutOfRange and n above ``cap`` CapExceeded, at the call rather than at
    the first ``next()``.
    """
    return _rooted_trees(_check_size(n, cap))


def _rooted_trees(n: int) -> Iterator[RootedTree]:
    """The generator behind :func:`enumerate_rooted_trees`, whose checks run
    at the call rather than at the first ``next()``."""
    by_size: dict[int, list[RootedTree]] = {}
    for m in range(1, n + 1):
        by_size[m] = _sweep(m, by_size)
    yield from by_size[n]
