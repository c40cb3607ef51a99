"""Linear arrangements of rooted trees.

An arrangement places the n vertices on positions 1..n.  This module
computes edge-length sums under both the standard and the minus-one
definition, tests projectivity and planarity (projectivity at the
leftmost vertex), and counts, enumerates, and uniformly samples the
projective arrangements of a tree.

A projective arrangement keeps the vertices of every subtree on
consecutive positions.  Each vertex v therefore contributes a block made
of d_v + 1 movable segments (its own position plus one segment per child
subtree), and choosing an order for every such set of segments yields each
projective arrangement exactly once.  That bijection drives the counting
formula (the product of (d_v + 1)! over vertices), the enumeration order,
and the rejection-free sampler below.

The one draw loop, ``_segment_offsets``, yields each segment's offset
inside its block, row by row: the sampler turns a row into positions, and
the Monte Carlo kernel, ``_forest_totals``, needs only the offsets, from
which it gathers every edge's length and sums them per tree with
``tree._tree_sums``, the reducer the exact columns share.  Both work
on a forest of trees laid end to end (``tree._forest``), a ``RootedTree``
being the one-tree forest: the treebank pipeline draws a block of
sentences at once, one draw-loop call per (block, z), and a tie in any
tree redraws the row for every tree of the block.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceeded, OutOfRange, SizeMismatch, _integer, _iterable
from .tree import RootedTree, _Forest, _generator, _reroot, _segment_lengths, _tree_sums, tree_from_heads

DEFAULT_ENUMERATION_CAP = 10**6

VARIANTS = ("standard", "minus_one")

# Blocks of up to this many segments are ordered by comparing every pair of
# keys, larger ones (stars and the like) by a sort of their own rows.
_PAIRWISE_MAX_SEGMENTS = 8

# Keep each matrix of sampled keys or offsets at about 2^16 cells (512 kB of
# keys, their segment-major copy, 256 kB of offsets), so that a chunk and
# its temporaries stay in the L2 cache for any tree or forest size; a row
# wider than that is drawn alone.
_CHUNK_CELLS = 65_536


class LinearArrangement:
    """A bijection from vertices 1..n to positions 1..n.

    ``pos[v]`` is the position of vertex v and ``inverse[p]`` the vertex at
    position p (index 0 unused in both).  Instances are immutable.
    """

    __slots__ = ("pos", "inverse")

    def __init__(self, positions: Sequence[int]):
        self.pos, self.inverse = _bijection(positions, "position")

    @classmethod
    def _trusted(cls, pos: tuple[int, ...], inverse: tuple[int, ...]) -> "LinearArrangement":
        """Wrap ``pos`` and ``inverse``, tuples of ints from index 1 behind a
        0 that are inverse bijections of 1..n by construction, unchecked."""
        arrangement = cls.__new__(cls)
        arrangement.pos, arrangement.inverse = pos, inverse
        return arrangement

    @classmethod
    def _of_bijection(cls, positions: np.ndarray) -> "LinearArrangement":
        """:meth:`_trusted` for an int array of positions, a bijection onto 1..n."""
        inverse = np.zeros(positions.size + 1, dtype=np.int64)
        inverse[positions] = np.arange(1, positions.size + 1)
        return cls._trusted((0,) + tuple(positions.tolist()), tuple(inverse.tolist()))

    @classmethod
    def identity(cls, n: int) -> "LinearArrangement":
        ids = tuple(range(_integer(n, "n", 0) + 1))
        return cls._trusted(ids, ids)

    @classmethod
    def from_inverse(cls, vertices_by_position: Sequence[int]) -> "LinearArrangement":
        """Build from the sequence of vertex ids read left to right."""
        inverse, pos = _bijection(vertices_by_position, "vertex id")
        return cls._trusted(pos, inverse)

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


def _bijection(values: Sequence[int], what: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``values`` and their inverse, each a tuple of ints from index 1 behind
    a 0.  ``values`` goes through :func:`_iterable` and each value through
    :func:`_integer`; values that are not a permutation of 1..n raise
    OutOfRange, naming ``what``."""
    values = _iterable(values, f"{what}s", "positive integers")
    bijection = (0, *(_integer(value, what, 1) for value in values))
    n = len(bijection) - 1
    inverse = [0] * (n + 1)
    for i in range(1, n + 1):
        x = bijection[i]
        if x > n or inverse[x]:
            raise OutOfRange(f"{what}s are not a permutation of 1..{n}")
        inverse[x] = i
    return bijection, tuple(inverse)


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
        raise OutOfRange(f"unknown variant {variant!r}")
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


def _identity_projective(forest: RootedTree | _Forest) -> np.ndarray:
    """Whether each tree's identity arrangement is projective, as a bool
    array; :func:`is_projective` is the oracle.

    The identity is projective exactly when it equals the projective
    arrangement that orders every block by label: v's own slot by v, each
    child c's segment by c, a label inside it.  No two labels tie.  A
    tree's positions are a bijection onto its own range, so its root is in
    place when all its other vertices are.
    """
    kids = np.flatnonzero(forest.parent_array)
    keys = np.concatenate((np.arange(1, forest.n + 1), kids))[:, None]
    offsets = _ordered_blocks(forest.blocks, _segment_lengths(forest), keys)
    misplaced = _positions(forest, offsets.T)[0][kids - 1] != kids
    return _tree_sums(forest, misplaced) == 0


def is_planar(tree: RootedTree, arrangement: LinearArrangement) -> bool:
    """True when no two edges cross when drawn above the positions.

    An arrangement is projective exactly when no edges cross and no edge
    covers the root.  No edge covers position 1, so an arrangement is
    planar exactly when it is projective for the tree rerooted at the
    vertex there.  O(n), by :func:`is_projective`.
    """
    _check_same_size(tree, arrangement)
    parent = _reroot(list(tree.parent), arrangement.inverse[1])
    return is_projective(tree_from_heads(parent[1:]), arrangement)


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

    An odometer over block orders: each vertex with children (a block
    owner) has one digit, the order of its block, and the digits run
    through the owners depth first over ascending children, the root's
    slowest and the last owner's fastest.  Each digit visits its block's
    orders lexicographically, with the vertex's own slot first, so the
    first arrangement lays out the tree depth first.  A vertex order is
    read off the block orders, with its positions, in one stack pass.
    Raises CapExceeded when the count is above ``cap`` (it grows
    factorially with the degrees), and OutOfRange for a ``cap`` that is
    not a non-negative integer, both at the call, not the first ``next()``.
    """
    cap = _integer(cap, "cap", 0)
    total = count_projective(tree)
    if total > cap:
        raise CapExceeded(f"{total} projective arrangements exceed the cap of {cap}")
    children = tree.children
    owners, pending = [], [tree.root]  # the vertices with children, depth first
    while pending:
        v = pending.pop()
        if children[v]:
            owners.append(v)
            pending.extend(reversed(children[v]))
    block_order: dict[int, tuple[int, ...]] = {}
    pos = [0] * (tree.n + 1)  # every pass lays down, and so places, every vertex

    def odometer(i: int) -> Iterator[LinearArrangement]:
        if i < len(owners):
            v = owners[i]
            for block_order[v] in itertools.permutations((v,) + children[v]):
                yield from odometer(i + 1)
            return
        # an owner's subtree opens into its block, where its own slot is
        # pushed negated; a leaf or a negated slot is laid down
        sequence, stack = [0], [tree.root]
        while stack:
            v = stack.pop()
            if v in block_order:
                stack.extend(-u if u == v else u for u in reversed(block_order[v]))
            else:
                pos[abs(v)] = len(sequence)
                sequence.append(abs(v))
        yield LinearArrangement._trusted(tuple(pos), tuple(sequence))

    return odometer(0)


def _segment_offsets(
    tree: RootedTree | _Forest, z: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Offset of every segment inside its block, for z independent draws.

    ``tree`` is one tree or a forest of trees laid end to end.
    Every vertex v owns a block of d_v + 1 segments: v itself and the
    subtree of each child.  Yields (rows, n + m) int32 chunks, z rows in
    all, where m is the number of non-root vertices (n - 1 for a tree):
    column v - 1 holds the offset of v's own slot in block v and column
    n + j the offset of the subtree of the j-th non-root vertex in its
    parent's block.  Each chunk is the transposed view of a C-contiguous
    (n + m, rows) array, so one segment's offsets in every row are one
    contiguous run; an offset is below n, which fits int32 for any tree
    the block plan's int32 ids allow.

    A draw gives each segment an independent uniform 64-bit key, one
    ``rng.integers`` row, and orders every block by key: a segment's
    offset is the total length of the segments of its own block with
    smaller keys.  Up to ``max(1, _CHUNK_CELLS // (n + m))`` rows are
    drawn at a time, the rows where two segments of one block drew the
    same key are dropped, and the rest, if any, is yielded: the first z
    tie-free rows of the stream, in order.  Given no tie the keys of a
    block are exchangeable, so each block's order is exactly uniform and
    independent of the others; and a draw does not depend on how many
    rows are drawn with it.  In a forest a tie drops the whole row, every
    tree's draw with it; the kept rows are still the first z tie-free ones,
    so each tree's draws stay exactly uniform and independent.
    """
    length = _segment_lengths(tree)
    chunk = max(1, _CHUNK_CELLS // length.size)
    while z:
        keys = rng.integers(0, 2**64, size=(min(z, chunk), length.size), dtype=np.uint64)
        offsets = _ordered_blocks(tree.blocks, length, np.ascontiguousarray(keys.T))
        del keys  # only the offsets stay alive while the caller uses the chunk
        if offsets.shape[1]:
            z -= offsets.shape[1]
            yield offsets.T
        del offsets  # hold no chunk while the next is drawn


def _ordered_blocks(
    blocks: tuple[np.ndarray, ...], length: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Segment offsets for the rows of keys without a tie in any block.

    ``keys`` is segment-major, (segments, rows), and so is the int32
    result, so every gather of a group's keys and every scatter of its
    offsets moves whole rows.  The blocks of one size are handled
    together, from the plan in ``tree.blocks``: a leaf's block needs
    nothing (offset 0), two segments one comparison, up to
    ``_PAIRWISE_MAX_SEGMENTS`` segments a comparison of every pair, and
    larger blocks a sort of their own columns.  Each group is checked for
    equal keys at once, by the same comparisons; only a group where that
    check fires is searched for the tied rows to drop.
    """
    out = np.zeros(keys.shape, dtype=np.int32)
    tied = None
    for segments in blocks:
        key = keys[segments]  # (blocks, segments per block, z)
        k = segments.shape[1]
        if k == 2:
            # the vertex's own slot (length 1) and its one child's subtree
            own, child = segments.T
            own_later = key[:, 0] > key[:, 1]
            out[own] = own_later * length[child, None]
            out[child] = ~own_later
            tie = np.count_nonzero(key[:, 0] == key[:, 1])
        else:
            lengths = length[segments]
            if k <= _PAIRWISE_MAX_SEGMENTS:
                # earlier[:, i, j]: segment j precedes segment i in its
                # block; without ties, one of every pair does
                earlier = key[:, None] < key[:, :, None]
                offset = np.einsum("bijz,bj->biz", earlier, lengths)
                tie = np.count_nonzero(earlier) != key.size * (k - 1) // 2
            else:
                order = np.argsort(key, axis=1)
                ranked = np.take_along_axis(key, order, axis=1)
                tie = np.count_nonzero(ranked[:, 1:] == ranked[:, :-1])
                placed = np.take_along_axis(np.broadcast_to(lengths[..., None], key.shape), order, axis=1)
                before = np.cumsum(placed, axis=1, dtype=np.int32)
                before -= placed
                offset = np.empty_like(before)
                np.put_along_axis(offset, order, before, axis=1)
            out[segments] = offset
        if tie:
            ranked = np.sort(key, axis=1)
            rows = (ranked[:, 1:] == ranked[:, :-1]).any(axis=(0, 1))
            tied = rows if tied is None else tied | rows
    return out if tied is None else out[:, ~tied]


def _positions(forest: RootedTree | _Forest, offsets: np.ndarray) -> np.ndarray:
    """Positions of vertices 1..n, one row per row of segment offsets.

    Tree i of the forest (or the one tree) takes positions from
    ``starts[i] + 1``: a block starts there plus the offsets of the child
    segments on the path up to its root (a vertex with parent 0), summed
    by pointer doubling in an (n + 1, rows) start matrix, whose gathers by
    vertex read whole rows.  A vertex sits at its own offset from the
    start of its block, so each row is a bijection onto 1..n.
    """
    n = forest.n
    parent = forest.parent_array
    start = np.zeros((n + 1, len(offsets)), dtype=np.int64)
    start[np.flatnonzero(parent)] = offsets[:, n:].T
    start[np.flatnonzero(parent[1:] == 0) + 1] = forest.starts[:, None] + 1
    jump = parent
    while np.count_nonzero(jump):
        start += start[jump]
        jump = jump[jump]
    return start[1:].T + offsets[:, :n]


def _forest_totals(forest: RootedTree | _Forest, z: int, rng: np.random.Generator) -> list[int]:
    """Every tree's edge-length sum over z draws of the whole forest.

    The Monte Carlo kernel.  Edge (p, c) has length |seg(c) + own(c) -
    own(p)|: c's segment offset in block p, c's own offset in block c, p's
    in block p.  Each chunk's lengths are gathered from the segment-major
    ``offsets.T``, whole rows at a time, stay int32 and are summed per tree
    by :func:`tree._tree_sums`; the chunks' sums are added up as Python
    ints, so the totals are exact however large z grows.
    """
    totals = [0] * forest.starts.size
    for offsets in _segment_offsets(forest, z, rng):
        columns = offsets.T
        kids = np.flatnonzero(forest.parent_array)
        lengths = columns[forest.n :] + columns[kids - 1]
        lengths -= columns[forest.parent_array[kids] - 1]
        np.abs(lengths, out=lengths)
        chunk = _tree_sums(forest, lengths).sum(axis=1).tolist()
        totals = [total + s for total, s in zip(totals, chunk)]
        del kids, lengths  # hold no edge array while the next chunk is drawn
    return totals


def sample_projective(tree: RootedTree, seed) -> LinearArrangement:
    """Draw one arrangement uniformly from the projective set.

    The :func:`_positions` of the one row that :func:`_segment_offsets`
    yields for z = 1; a row with two equal keys in one block (about one in
    2^64 per pair of segments) is redrawn.  ``seed`` may be a non-negative
    int or a ``numpy.random.Generator`` (pass a generator to draw several
    samples from one stream).
    """
    (offsets,) = _segment_offsets(tree, 1, _generator(seed))
    return LinearArrangement._of_bijection(_positions(tree, offsets)[0])
