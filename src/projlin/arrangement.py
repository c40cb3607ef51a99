"""Linear arrangements of rooted trees.

An arrangement places the n vertices on positions 1..n.  This module
computes edge-length sums under both the standard and the minus-one
definition, tests projectivity and planarity, and counts, enumerates, and
uniformly samples the projective arrangements of a tree.

A projective arrangement keeps the vertices of every subtree on
consecutive positions.  Each vertex v therefore contributes a block made
of d_v + 1 movable segments (its own position plus one segment per child
subtree), and choosing an order for every such set of segments yields each
projective arrangement exactly once.  That bijection drives the counting
formula (the product of (d_v + 1)! over vertices), the enumeration order,
and the rejection-free sampler below.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceeded, SizeMismatch
from .tree import RootedTree

DEFAULT_ENUMERATION_CAP = 10**6

VARIANTS = ("standard", "minus_one")


class LinearArrangement:
    """A bijection from vertices 1..n to positions 1..n.

    ``pos[v]`` is the position of vertex v and ``inverse[p]`` the vertex at
    position p (index 0 unused in both).  Instances are immutable.
    """

    __slots__ = ("pos", "inverse")

    def __init__(self, positions: Sequence[int]):
        if isinstance(positions, np.ndarray):
            self._init_from_array(positions)
            return
        pos = (0,) + tuple(int(p) for p in positions)
        n = len(pos) - 1
        inverse = [0] * (n + 1)
        for v in range(1, n + 1):
            p = pos[v]
            if not 1 <= p <= n or inverse[p]:
                raise ValueError(f"positions are not a bijection onto 1..{n}")
            inverse[p] = v
        self.pos = pos
        self.inverse = tuple(inverse)

    def _init_from_array(self, positions: np.ndarray) -> None:
        """The same checks in bulk, for an integer array of positions."""
        n = positions.size
        inverse = np.zeros(n + 1, dtype=np.int64)
        if n and not 1 <= positions.min() <= positions.max() <= n:
            raise ValueError(f"positions are not a bijection onto 1..{n}")
        inverse[positions] = np.arange(1, n + 1)
        if np.count_nonzero(inverse) != n:
            raise ValueError(f"positions are not a bijection onto 1..{n}")
        self.pos = (0,) + tuple(positions.tolist())
        self.inverse = tuple(inverse.tolist())

    @classmethod
    def identity(cls, n: int) -> "LinearArrangement":
        return cls(range(1, n + 1))

    @classmethod
    def from_inverse(cls, vertices_by_position: Sequence[int]) -> "LinearArrangement":
        """Build from the sequence of vertex ids read left to right."""
        seq = list(vertices_by_position)
        n = len(seq)
        pos = [0] * n
        for p, v in enumerate(seq, start=1):
            if not 1 <= v <= n or pos[v - 1]:
                raise ValueError(f"vertex sequence is not a permutation of 1..{n}")
            pos[v - 1] = p
        return cls(pos)

    @property
    def n(self) -> int:
        return len(self.pos) - 1

    def reversed(self) -> "LinearArrangement":
        """The mirror arrangement, vertex at position p moved to n + 1 - p."""
        n = self.n
        return LinearArrangement(n + 1 - self.pos[v] for v in range(1, n + 1))

    def __eq__(self, other):
        if not isinstance(other, LinearArrangement):
            return NotImplemented
        return self.pos == other.pos

    def __hash__(self):
        return hash(self.pos)

    def __repr__(self):
        return f"LinearArrangement({' '.join(str(v) for v in self.inverse[1:])!r})"


def _check_same_size(tree: RootedTree, arrangement: LinearArrangement) -> None:
    if arrangement.n != tree.n:
        raise SizeMismatch(
            f"arrangement covers {arrangement.n} positions, tree has {tree.n} vertices"
        )


def sum_edge_lengths(
    tree: RootedTree, arrangement: LinearArrangement, variant: str = "standard"
) -> int:
    """Total edge length of the tree in the arrangement.

    ``standard`` sums |pos(u) - pos(v)| over the edges; ``minus_one``
    counts only the vertices strictly between the endpoints, i.e. the
    standard sum minus (n - 1).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    _check_same_size(tree, arrangement)
    pos = arrangement.pos
    parent = tree.parent
    total = 0
    for v in tree.order[1:]:
        total += abs(pos[v] - pos[parent[v]])
    if variant == "minus_one":
        total -= tree.n - 1
    return total


def is_projective(tree: RootedTree, arrangement: LinearArrangement) -> bool:
    """True when every subtree occupies consecutive positions.

    Runs in O(n): the position span of each subtree is accumulated bottom
    up and compared with the stored subtree size.  This interval criterion
    is equivalent to having no edge crossings plus an uncovered root.
    """
    _check_same_size(tree, arrangement)
    n = tree.n
    pos = arrangement.pos
    parent = tree.parent
    size = tree.size_array.tolist()
    lo = list(pos)
    hi = list(pos)
    for v in reversed(tree.order):
        p = parent[v]
        if lo[v] < lo[p]:
            lo[p] = lo[v]
        if hi[v] > hi[p]:
            hi[p] = hi[v]
    for v in range(1, n + 1):
        if hi[v] - lo[v] + 1 != size[v]:
            return False
    return True


def is_planar(tree: RootedTree, arrangement: LinearArrangement) -> bool:
    """True when no two edges cross when drawn above the positions.

    Edges sharing an endpoint never cross.  Quadratic pairwise test; the
    linear interval criterion lives in :func:`is_projective`.
    """
    _check_same_size(tree, arrangement)
    pos = arrangement.pos
    parent = tree.parent
    spans = []
    for v in tree.order[1:]:
        a, b = pos[v], pos[parent[v]]
        spans.append((a, b) if a < b else (b, a))
    for i in range(len(spans)):
        a1, b1 = spans[i]
        for j in range(i + 1, len(spans)):
            a2, b2 = spans[j]
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                return False
    return True


def count_projective(tree: RootedTree) -> int:
    """Number of distinct projective arrangements: product of (d_v + 1)!.

    Grouped by out-degree, as the product of (d + 1)! ** m_d over the
    histogram m of the stored out-degrees.
    """
    histogram = np.bincount(tree.out_degree_array[1:])
    degrees = np.flatnonzero(histogram)
    return math.prod(
        math.factorial(d + 1) ** m for d, m in zip(degrees.tolist(), histogram[degrees].tolist())
    )


def enumerate_projective(
    tree: RootedTree, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[LinearArrangement]:
    """Yield every projective arrangement of the tree exactly once.

    The stream is deterministic: for each vertex the orders of its
    segments are visited lexicographically, with the root's permutation
    varying slowest.  Raises CapExceeded when the total count is above
    ``cap`` (the count grows factorially with the degrees).
    """
    total = count_projective(tree)
    if total > cap:
        raise CapExceeded(f"{total} projective arrangements exceed the cap of {cap}")
    children = tree.children

    def combos(kids: tuple[int, ...], i: int) -> Iterator[tuple]:
        if i == len(kids):
            yield ()
            return
        for head in walk(kids[i]):
            for rest in combos(kids, i + 1):
                yield (head,) + rest

    def walk(v: int) -> Iterator[tuple[int, ...]]:
        kids = children[v]
        if not kids:
            yield (v,)
            return
        for perm in itertools.permutations(range(len(kids) + 1)):
            for chosen in combos(kids, 0):
                seq: list[int] = []
                for slot in perm:
                    if slot == 0:
                        seq.append(v)
                    else:
                        seq.extend(chosen[slot - 1])
                yield tuple(seq)

    for sequence in walk(tree.root):
        yield LinearArrangement.from_inverse(sequence)


def sample_projective(tree: RootedTree, seed) -> LinearArrangement:
    """Draw one arrangement uniformly from the projective set.

    Every vertex v owns a block of d_v + 1 segments: v itself and the
    subtree of each child.  Sorting the segments by block and then by a
    uniformly random rank orders every block independently and uniformly,
    so no rejection is needed.  Exclusive prefix sums of the segment lengths
    give each segment's offset inside its block, and a block starts at 1
    plus the offsets of the child segments on the path from its vertex
    up to the root, summed by pointer doubling.  ``seed`` may be an int
    or a ``numpy.random.Generator`` (pass a generator to draw several
    samples from one stream).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = tree.n
    parent = tree.parent_array
    size = tree.size_array
    kids = np.flatnonzero(parent)  # every vertex but the root
    # Segment v - 1 is vertex v in its own block; segment n + j is the
    # subtree of kids[j] in its parent's block.
    block = np.concatenate((np.arange(1, n + 1), parent[kids]))
    length = np.concatenate((np.ones(n, dtype=np.int64), size[kids]))
    perm = np.argsort(block * block.size + rng.permutation(block.size))
    placed = length[perm]
    # Block v holds size[v] positions, so the exclusive prefix sums of its
    # d_v + 1 segments start at the total size of the blocks before it.
    block_start = np.repeat(np.cumsum(size[1:]) - size[1:], tree.out_degree_array[1:] + 1)
    offset = np.empty_like(placed)
    offset[perm] = np.cumsum(placed) - placed - block_start

    start = np.zeros(n + 1, dtype=np.int64)
    start[kids] = offset[n:]
    jump = parent.copy()
    active = kids
    while active.size:
        up = jump[active]
        start[active] += start[up]
        up = jump[up]
        jump[active] = up
        active = active[up != 0]
    return LinearArrangement(1 + start[1:] + offset[:n])
