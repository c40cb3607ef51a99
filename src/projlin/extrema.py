"""Extremes of the expected edge-length sum over all trees of a size.

The maximum has a closed form: the star rooted at its hub attains
(n^2 - 1) / 3, and for n >= 3 it is the only tree that does.  The minimum
has no known closed form, so it is found by dynamic programming on the
optimal-substructure recurrence: a minimal n-vertex tree consists of a
root of some degree d whose child subtrees are themselves minimal, with
subtree sizes ranging over the partitions of n - 1 into d parts.  The cost
of such a composition is

    (d (2n + 1) + n - 1) / 6 + sum of the minima of the parts.

All values are exact fractions with denominator dividing 6, so ties are
detected exactly and every minimizer (up to isomorphism) is kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Sequence

from .errors import CapExceeded, OutOfRange
from .tree import RootedTree, build_tree, canonical_code, make_class
from .expectation import expected_sum_projective

DEFAULT_MIN_CAP = 20
DEFAULT_TREE_ENUM_CAP = 10


@dataclass(frozen=True)
class OptimumEntry:
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
    if n < 1:
        raise OutOfRange(f"n must be positive, got {n}")
    return Fraction(n * n - 1, 3), make_class("star_hub", n)


def _partitions(total: int, parts: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into exactly ``parts`` positive parts,
    each part at most ``largest``, in non-increasing order."""
    if largest is None:
        largest = total
    if parts == 1:
        if total <= largest:
            yield (total,)
        return
    smallest_first = -(-total // parts)  # ceil: keeps the tail feasible
    for first in range(min(largest, total - parts + 1), smallest_first - 1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _attach_root(subtrees: Sequence[RootedTree]) -> RootedTree:
    """A new tree whose root has the given subtrees as children, in order."""
    total = 1 + sum(t.n for t in subtrees)
    links = []
    offset = 1
    for sub in subtrees:
        links.append((offset + sub.root, 1))
        children = sub.children
        for v in sub.order:
            for c in children[v]:
                links.append((offset + c, offset + v))
        offset += sub.n
    return build_tree(total, links, 1)


def combine_forests(
    part_sizes: Sequence[int], per_size_trees: Sequence[Sequence[RootedTree]]
) -> Iterator[RootedTree]:
    """Attach a new root above every non-isomorphic forest choice.

    ``per_size_trees[i]`` lists the candidate trees for the part
    ``part_sizes[i]``; equal part sizes must carry the same candidate list
    (the plain Cartesian product would then repeat isomorphic forests, so
    equal-size parts are restricted to non-decreasing index selections).
    Provided each candidate list is itself duplicate-free, no two yielded
    trees are isomorphic.
    """
    if len(part_sizes) != len(per_size_trees):
        raise ValueError("part_sizes and per_size_trees must have equal length")
    paired = sorted(zip(part_sizes, per_size_trees), key=lambda it: -it[0])
    # merge runs of equal sizes into (size, candidates, multiplicity) groups
    groups: list[tuple[int, list[RootedTree], int]] = []
    for size, trees in paired:
        trees = list(trees)
        if not trees:
            raise ValueError(f"no candidate trees for part of size {size}")
        if groups and groups[-1][0] == size:
            groups[-1] = (size, groups[-1][1], groups[-1][2] + 1)
        else:
            groups.append((size, trees, 1))
    selectors = [
        itertools.combinations_with_replacement(range(len(candidates)), mult)
        for _, candidates, mult in groups
    ]
    for choice in itertools.product(*selectors):
        forest: list[RootedTree] = []
        for (_, candidates, _), indices in zip(groups, choice):
            forest.extend(candidates[j] for j in indices)
        yield _attach_root(forest)


def min_expected_sum(n: int, memo: MemoTable | None = None, cap: int = DEFAULT_MIN_CAP) -> OptimumEntry:
    """Minimum expected sum over all n-vertex rooted trees, with all minimizers.

    Fills ``memo`` bottom-up for every size up to n, so reusing the table
    across calls costs nothing and smaller entries match fresh runs.  The
    partition loop prunes a candidate as soon as its partial cost exceeds
    the incumbent.  ``cap`` bounds n because the number of partitions of
    n - 1 grows faster than any polynomial.
    """
    if n < 1:
        raise OutOfRange(f"n must be positive, got {n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the cap of {cap}; raise cap= to override")
    if memo is None:
        memo = {}
    for m in range(1, n + 1):
        if m not in memo:
            memo[m] = _solve_min(m, memo)
    return memo[n]


def _solve_min(m: int, memo: MemoTable) -> OptimumEntry:
    if m == 1:
        return OptimumEntry(1, Fraction(0), (build_tree(1, [], 1),))
    if m == 2:
        return OptimumEntry(2, Fraction(1), (build_tree(2, [(2, 1)], 1),))

    sixfold = [0] * m  # 6 * minimum per size, exact since denominators divide 6
    for size in range(1, m):
        value6 = memo[size].value * 6
        sixfold[size] = int(value6)

    best6 = 2 * (m * m - 1)  # start at the maximum, attained by the star
    best_trees: list[RootedTree] = []
    best_codes: set[bytes] = set()
    for d in range(1, m):
        base6 = d * (2 * m + 1) + m - 1
        if base6 > best6:
            break  # grows with d, so no larger degree can win
        for part in _partitions(m - 1, d):
            cost6 = base6
            for size in part:
                cost6 += sixfold[size]
                if cost6 > best6:
                    break
            else:
                if cost6 < best6:
                    best6 = cost6
                    best_trees = []
                    best_codes = set()
                for tree in combine_forests(part, [memo[size].trees for size in part]):
                    code = canonical_code(tree)
                    if code not in best_codes:
                        best_codes.add(code)
                        best_trees.append(tree)
    return OptimumEntry(m, Fraction(best6, 6), tuple(best_trees))


def enumerate_rooted_trees(n: int, cap: int = DEFAULT_TREE_ENUM_CAP) -> Iterator[RootedTree]:
    """Every unlabeled rooted tree on n vertices, exactly once.

    Built recursively: a rooted tree is a root plus a multiset of smaller
    rooted trees, so the trees of size m are obtained by sweeping the
    partitions of m - 1 and combining previously built subtree lists with
    the duplicate-free forest product.  Distinct partitions give distinct
    child-size multisets, hence no tree appears twice.
    """
    if n < 1:
        raise OutOfRange(f"n must be positive, got {n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the cap of {cap}; raise cap= to override")
    by_size: dict[int, list[RootedTree]] = {1: [build_tree(1, [], 1)]}
    for m in range(2, n + 1):
        collected: list[RootedTree] = []
        for d in range(1, m):
            for part in _partitions(m - 1, d):
                collected.extend(combine_forests(part, [by_size[s] for s in part]))
        by_size[m] = collected
    yield from by_size[n]


def verify_entry(entry: OptimumEntry) -> bool:
    """Recompute the expectation of every stored minimizer independently."""
    return all(expected_sum_projective(tree) == entry.value for tree in entry.trees)
