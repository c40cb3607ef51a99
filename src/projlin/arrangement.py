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
from .tree import RootedTree, _generator

DEFAULT_ENUMERATION_CAP = 10**6

VARIANTS = ("standard", "minus_one")

# Blocks of up to this many segments are ordered by comparing every pair of
# keys, larger ones (stars and the like) by a sort of their own rows.
_PAIRWISE_MAX_SEGMENTS = 8


class LinearArrangement:
    """A bijection from vertices 1..n to positions 1..n.

    ``pos[v]`` is the position of vertex v and ``inverse[p]`` the vertex at
    position p (index 0 unused in both).  Instances are immutable.
    """

    __slots__ = ("pos", "inverse")

    def __init__(self, positions: Sequence[int]):
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

    @classmethod
    def _of_bijection(cls, positions: np.ndarray) -> "LinearArrangement":
        """Wrap an int array of positions that is a bijection onto 1..n by
        construction, without the checks of the public constructors."""
        inverse = np.zeros(positions.size + 1, dtype=np.int64)
        inverse[positions] = np.arange(1, positions.size + 1)
        arrangement = cls.__new__(cls)
        arrangement.pos = (0,) + tuple(positions.tolist())
        arrangement.inverse = tuple(inverse.tolist())
        return arrangement

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

    Edges sharing an endpoint never cross.  The edge spans are scanned by
    left end, longer spans first, with a stack of the spans still open:
    spans ending at or before the new left end are closed, and the new
    span crosses an open one exactly when the innermost open span ends
    strictly inside it.  O(n log n); the linear interval criterion lives in
    :func:`is_projective`.
    """
    _check_same_size(tree, arrangement)
    pos = arrangement.pos
    parent = tree.parent
    spans = sorted(
        (min(pos[v], pos[p]), -max(pos[v], pos[p])) for v, p in enumerate(parent) if p
    )
    open_ends: list[int] = []
    for left, neg_right in spans:
        right = -neg_right
        while open_ends and open_ends[-1] <= left:
            open_ends.pop()
        if open_ends and open_ends[-1] < right:
            return False
        open_ends.append(right)
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


def _segment_offsets(
    tree: RootedTree, z: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Offset of every segment inside its block, for z independent draws.

    Every vertex v owns a block of d_v + 1 segments: v itself and the
    subtree of each child.  Returns ``kids``, every vertex but the root,
    and a (z, 2n - 1) int64 matrix whose column v - 1 holds the offset of
    v's own slot in block v and whose column n + j holds the offset of the
    subtree of kids[j] in its parent's block.

    A draw gives each segment an independent uniform 64-bit key, one
    ``rng.integers`` row, and orders every block by key: a segment's
    offset is the total length of the segments of its own block with
    smaller keys.  A row in which two segments of one block drew the same
    key is dropped and more rows are drawn, so the result is the first z
    rows of the stream without such a tie, in stream order.  Given no tie
    the keys of a block are exchangeable, so each block's order is exactly
    uniform and independent of the others; and a draw does not depend on
    how many rows are drawn with it.
    """
    n = tree.n
    kids = np.flatnonzero(tree.parent_array)
    length = np.ones(2 * n - 1, dtype=np.int64)
    length[n:] = tree.size_array[kids]
    parts = []
    while z:
        keys = rng.integers(0, 2**64, size=(z, 2 * n - 1), dtype=np.uint64)
        offsets, tied = _ordered_blocks(tree.blocks, length, keys)
        if tied is not None:
            offsets = offsets[~tied]
        parts.append(offsets)
        z -= len(offsets)
    return kids, parts[0] if len(parts) == 1 else np.concatenate(parts)


def _ordered_blocks(
    blocks: tuple[np.ndarray, ...], length: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Segment offsets for rows of keys, and a mask of the rows with a tie
    in some block (None when there is no tie).

    The blocks of one size are handled together, from the plan in
    ``tree.blocks``: a leaf's block needs nothing (offset 0), two segments
    one comparison, up to ``_PAIRWISE_MAX_SEGMENTS`` segments a comparison
    of every pair, and larger blocks a sort of their own rows.  Each group
    is checked for equal keys at once, by the same comparisons; only a
    group where that check fires is searched for the tied rows.
    """
    out = np.zeros(keys.shape, dtype=np.int64)
    tied = None
    for segments in blocks:
        key = keys[:, segments]  # (z, blocks, segments per block)
        k = segments.shape[1]
        if k == 2:
            # the vertex's own slot (length 1) and its one child's subtree
            own, child = segments.T
            own_later = key[..., 0] > key[..., 1]
            out[:, own] = own_later * length[child]
            out[:, child] = ~own_later
            tie = np.count_nonzero(key[..., 0] == key[..., 1])
        else:
            lengths = length[segments]
            if k <= _PAIRWISE_MAX_SEGMENTS:
                # earlier[..., i, j]: segment j precedes segment i in its
                # block; without ties, one of every pair does
                earlier = key[..., None, :] < key[..., :, None]
                offset = np.einsum("zbij,bj->zbi", earlier, lengths)
                tie = np.count_nonzero(earlier) != key.size * (k - 1) // 2
            else:
                order = np.argsort(key, axis=2)
                ranked = np.take_along_axis(key, order, axis=2)
                tie = np.count_nonzero(ranked[..., 1:] == ranked[..., :-1])
                placed = np.take_along_axis(np.broadcast_to(lengths, key.shape), order, axis=2)
                before = np.cumsum(placed, axis=2)
                before -= placed
                offset = np.empty_like(before)
                np.put_along_axis(offset, order, before, axis=2)
            out[:, segments] = offset
        if tie:
            ranked = np.sort(key, axis=2)
            rows = (ranked[..., 1:] == ranked[..., :-1]).any(axis=(1, 2))
            tied = rows if tied is None else tied | rows
    return out, tied


def sample_projective(tree: RootedTree, seed) -> LinearArrangement:
    """Draw one arrangement uniformly from the projective set.

    The one-draw case of :func:`_segment_offsets`, which orders each block
    by 64-bit random keys and redraws the whole row in the rare case (about
    one in 2^64 per pair of segments in a block) that two keys of one block
    are equal.  A block starts at 1 plus the offsets of the child segments
    on the path from its vertex up to the root, summed by pointer doubling,
    and a vertex sits at its own offset from the start of its block; the
    positions are a bijection by construction and are not checked again.
    ``seed`` may be a non-negative int or a ``numpy.random.Generator``
    (pass a generator to draw several samples from one stream).
    """
    rng = _generator(seed)
    n = tree.n
    kids, (offset,) = _segment_offsets(tree, 1, rng)
    # Doubling turns start[v] into the sum of these values from v up to the
    # root, whose block starts at position 1.
    start = np.zeros(n + 1, dtype=np.int64)
    start[kids] = offset[n:]
    start[tree.root] = 1
    jump = tree.parent_array
    while np.count_nonzero(jump):
        start += start[jump]
        jump = jump[jump]
    return LinearArrangement._of_bijection(start[1:] + offset[:n])
