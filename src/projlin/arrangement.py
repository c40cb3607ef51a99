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

Every path from block orders to positions goes through two kernels over
whole row matrices: ``_ordered_blocks`` turns per-segment keys into each
segment's offset inside its block, and ``_positions`` turns offsets into
positions.  Three callers give the keys:

* the one draw loop, ``_segment_offsets``, draws them at random, row by
  row: the sampler turns a row into positions, and the Monte Carlo
  kernel, ``_forest_totals``, needs only the offsets, from which it
  gathers every edge's length;
* the enumerator, ``_projective_positions``, reads row r's block orders
  off the mixed-radix digits of r, as ranks in permutations;
* the one projectivity test, ``_projective_rows``, keys each block by the
  positions of a row under test, and the row is projective exactly when
  the kernels give it back.  ``is_projective``, ``is_planar`` (on the
  rerooted tree), the treebank's identity flags and ``selfcheck`` call it.

Per-tree sums of per-edge terms (edge lengths, misplaced vertices) go
through ``tree._tree_sums``, the reducer the exact columns share.  The
kernels work on a forest of trees laid end to end (``tree._forest``), a
``RootedTree`` being the one-tree forest: the treebank pipeline draws a
block of sentences at once, one draw-loop call per (block, z), and a tie
in any tree redraws the row for every tree of the block.
"""

from __future__ import annotations

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

# Rows per chunk of enumerated arrangements, and the clamp of the
# enumerator's place values and factorials.
_ENUMERATION_ROWS = 1024
_CLAMP = 2**62


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
    if not isinstance(arrangement, LinearArrangement):
        raise OutOfRange(f"arrangement must be a LinearArrangement, got {type(arrangement).__name__}")
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
    standard sum minus (n - 1).  The one-row call of
    :func:`_edge_length_sums`.
    """
    if variant not in VARIANTS:
        raise OutOfRange(f"unknown variant {variant!r}")
    _check_same_size(tree, arrangement)
    total = int(_edge_length_sums(tree, np.array([arrangement.pos[1:]]))[0, 0])
    if variant == "minus_one":
        total -= tree.n - 1
    return total


def _edge_length_sums(forest: RootedTree | _Forest, positions: np.ndarray) -> np.ndarray:
    """Every tree's sum of |pos(c) - pos(p)| over its edges (p, c), for each
    row of positions, (rows, n): a (trees, rows) int64 array, summed by
    :func:`tree._tree_sums`."""
    kids = np.flatnonzero(forest.parent_array)
    columns = positions.T
    lengths = columns[kids - 1] - columns[forest.parent_array[kids] - 1]
    return _tree_sums(forest, np.abs(lengths, out=lengths))


def is_projective(tree: RootedTree, arrangement: LinearArrangement) -> bool:
    """True when every subtree occupies consecutive positions.

    The one-row call of :func:`_projective_rows`, O(n).  Contiguous
    subtrees are equivalent to having no edge crossings plus an uncovered
    root.
    """
    _check_same_size(tree, arrangement)
    return bool(_projective_rows(tree, np.array([arrangement.pos[1:]]))[0, 0])


def _projective_rows(forest: RootedTree | _Forest, positions: np.ndarray) -> np.ndarray:
    """Whether each tree is projective in each row of positions, (rows, n):
    a (trees, rows) bool array.  Tree i's positions in a row must be a
    bijection onto its own range, ``starts[i] + 1`` onward.

    A row is projective exactly when it equals the :func:`_positions` of
    the blocks ordered by its own positions: v's own slot by pos(v), each
    child c's segment by pos(c).  In a projective row the segments of a
    block are disjoint intervals, so any vertex of one places it; no two
    keys tie.  The rebuilt row is a bijection onto the same range, so a
    tree's root is in place when all its other vertices are, and the
    misplaced non-root vertices are counted per tree by
    :func:`tree._tree_sums`.
    """
    kids = np.flatnonzero(forest.parent_array)
    columns = positions.T
    keys = np.concatenate((columns, columns[kids - 1]))
    offsets = _ordered_blocks(forest.blocks, _segment_lengths(forest), keys)
    misplaced = (_positions(forest, offsets.T) != positions).T[kids - 1]
    return _tree_sums(forest, misplaced) == 0


def is_planar(tree: RootedTree, arrangement: LinearArrangement) -> bool:
    """True when no two edges cross when drawn above the positions.

    An arrangement is projective exactly when no edges cross and no edge
    covers the root.  No edge covers position 1, so an arrangement is
    planar exactly when it is projective for the tree rerooted at the
    vertex there.  O(n), by the one-row call of :func:`_projective_rows`.
    """
    _check_same_size(tree, arrangement)
    rerooted = tree_from_heads(_reroot(tree.parent_array.tolist(), arrangement.inverse[1])[1:])
    return bool(_projective_rows(rerooted, np.array([arrangement.pos[1:]]))[0, 0])


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
    first arrangement lays out the tree depth first.  The rows of
    :func:`_projective_positions`, wrapped by :func:`_arrangements`.  Raises
    CapExceeded when the count is above ``cap`` (it grows factorially
    with the degrees), and OutOfRange for a ``cap`` that is not a
    non-negative integer, both at the call, not the first ``next()``.
    """
    chunks = _projective_positions(tree, cap)
    return (arrangement for positions in chunks for arrangement in _arrangements(positions))


def _projective_positions(tree: RootedTree, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[np.ndarray]:
    """The positions of every projective arrangement, in the order of
    :func:`enumerate_projective`, as (rows, n) int32 chunks of up to
    ``_ENUMERATION_ROWS`` rows; the cap is checked at the call.

    Row r's block orders are the mixed-radix digits of r, one per owner,
    of radix k! for a block of k segments.  Digit d of a block gives each
    segment a key, its rank in the d-th permutation of (own slot,
    ascending children); the keys go through :func:`_ordered_blocks` and
    :func:`_positions`, and never tie.  A chunk's rows are consecutive, so
    an owner's digits in it are a run of consecutive quotients of the row
    by its place value, and only that run is decoded, at most one radix of
    it.  Values past ``_CLAMP`` are clamped: a row below it divides and
    reduces alike, and no enumeration reaches the rows past it.
    """
    cap = _integer(cap, "cap", 0)
    total = count_projective(tree)
    if total > cap:
        raise CapExceeded(f"{total} projective arrangements exceed the cap of {cap}")
    return _position_chunks(tree)


def _position_chunks(tree: RootedTree) -> Iterator[np.ndarray]:
    """The generator of :func:`_projective_positions`, behind its cap check."""
    children = tree.children
    owners, pending = [], [tree.root]  # the vertices with children, depth first
    while pending:
        v = pending.pop()
        if children[v]:
            owners.append(v)
            pending.extend(reversed(children[v]))
    place = np.ones(tree.n + 1, dtype=np.int64)  # the product of the radices of later owners
    rows = 1
    for v in reversed(owners):
        place[v] = min(rows, _CLAMP)
        rows *= math.factorial(len(children[v]) + 1)
    length = _segment_lengths(tree)
    dtype = np.min_scalar_type(max((segments.shape[1] for segments in tree.blocks), default=1))
    for first in range(0, rows, _ENUMERATION_ROWS):
        row = np.arange(first, min(first + _ENUMERATION_ROWS, rows), dtype=np.int64)
        keys = np.zeros((length.size, row.size), dtype=dtype)
        for segments in tree.blocks:
            k = segments.shape[1]
            radix = min(math.factorial(k), _CLAMP)
            quotient = row // place[segments[:, 0] + 1, None]  # (blocks, rows)
            low = quotient[:, 0]
            used = np.minimum(quotient[:, -1] - low + 1, radix)
            start = np.cumsum(used) - used
            digits = np.arange(start[-1] + used[-1]) + np.repeat(low - start, used)
            ranks = _permutation_ranks(digits % radix, k, dtype)
            ranks = ranks[(quotient - low[:, None]) % radix + start[:, None]]  # (blocks, rows, k)
            keys[segments[:, 0]] = ranks[:, :, 0]
            # the plan may list a block's children in any order; segment
            # n + j belongs to the j-th non-root vertex, so sorted segment
            # ids are the ascending children
            keys[np.sort(segments[:, 1:], axis=1)] = ranks[:, :, 1:].transpose(0, 2, 1)
        yield _positions(tree, _ordered_blocks(tree.blocks, length, keys).T)


def _permutation_ranks(digits: np.ndarray, k: int, dtype) -> np.ndarray:
    """Row i: the rank of each of k items in the ``digits[i]``-th
    permutation of them, in ``itertools.permutations`` order.

    The digit's Lehmer code holds, at each place, the index of the item
    placed there among the items not placed before it.  Taken from the
    last place back, an index grows by one past each earlier index at or
    below it, which turns the code into the items themselves.
    """
    weights = [min(math.factorial(k - 1 - i), _CLAMP) for i in range(k)]
    items = digits[:, None] // np.array(weights) % np.arange(k, 0, -1)
    for i in range(k - 2, -1, -1):
        items[:, i + 1 :] += items[:, i + 1 :] >= items[:, i : i + 1]
    ranks = np.empty(items.shape, dtype=dtype)
    np.put_along_axis(ranks, items, np.arange(k, dtype=dtype), axis=1)
    return ranks


def _vertex_rows(positions: np.ndarray) -> np.ndarray:
    """The vertices of each row of positions, (rows, n), in position order:
    each row's inverse, as an int32 view."""
    r, n = positions.shape
    rows = np.empty((r, n + 1), dtype=np.int32)
    rows[np.arange(r)[:, None], positions] = np.arange(1, n + 1, dtype=np.int32)
    return rows[:, 1:]


def _arrangements(positions: np.ndarray) -> Iterator[LinearArrangement]:
    """Each row of positions, (rows, n), a bijection onto 1..n by
    construction, wrapped unchecked with its row of :func:`_vertex_rows`."""
    for pos, inverse in zip(positions.tolist(), _vertex_rows(positions).tolist()):
        yield LinearArrangement._trusted((0, *pos), (0, *inverse))


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
    blocks = tree.blocks  # a tree's plan is built before any key, so its sort never meets them
    length = _segment_lengths(tree)
    chunk = max(1, _CHUNK_CELLS // length.size)
    while z:
        keys = rng.integers(0, 2**64, size=(min(z, chunk), length.size), dtype=np.uint64)
        offsets = _ordered_blocks(blocks, length, np.ascontiguousarray(keys.T))
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
    larger blocks a sort of their own columns.  A group is taken in slices
    of at most ``_CHUNK_CELLS`` key cells (at least one block each), so its
    gathers stay within the chunk budget however many blocks share a size;
    a forest drawn several rows at a time has every group in one slice.
    Each slice is checked for equal keys at once, by the same comparisons;
    only a slice where that check fires is searched for the tied rows to
    drop.
    """
    out = np.zeros(keys.shape, dtype=np.int32)
    tied = None
    for group in blocks:
        k = group.shape[1]
        step = max(1, _CHUNK_CELLS // (k * keys.shape[1]))
        for first in range(0, len(group), step):
            segments = group[first : first + step]
            key = keys[segments]  # (blocks, segments per block, z)
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
    by pointer doubling in an (n + 1, rows) int32 start matrix, whose
    gathers by vertex read whole rows; ``jump`` is an intp copy of the
    parent array, which spares numpy converting an int32 index on every
    gather.  A vertex sits at its own offset from the start of its block,
    so each row is a bijection onto 1..n, and the result is int32.
    """
    n = forest.n
    parent = forest.parent_array
    start = np.zeros((n + 1, len(offsets)), dtype=np.int32)
    start[np.flatnonzero(parent)] = offsets[:, n:].T
    start[np.flatnonzero(parent[1:] == 0) + 1] = forest.starts[:, None] + 1
    jump = parent.astype(np.intp)
    while np.count_nonzero(jump):
        start += start[jump]
        jump = jump[jump]
    return start[1:].T + offsets[:, :n]


def _forest_totals(forest: RootedTree | _Forest, z: int, rng: np.random.Generator) -> list[int]:
    """Every tree's edge-length sum over z draws of the whole forest.

    The Monte Carlo kernel.  Edge (p, c) has length |seg(c) + own(c) -
    own(p)|: c's segment offset in block p, c's own offset in block c, p's
    in block p.  Each chunk's lengths are gathered from the segment-major
    ``offsets.T``, whole rows at a time, and stay int32; a chunk of several
    rows first sums each edge's lengths over its rows, in int64, and the
    per-edge column is summed per tree by :func:`tree._tree_sums`.  The
    chunks' sums are added up as Python ints, so the totals are exact
    however large z grows.
    """
    totals = [0] * forest.starts.size
    for offsets in _segment_offsets(forest, z, rng):
        columns = offsets.T
        kids = np.flatnonzero(forest.parent_array)
        lengths = columns[forest.n :] + columns[kids - 1]
        lengths -= columns[forest.parent_array[kids] - 1]
        np.abs(lengths, out=lengths)
        if lengths.shape[1] > 1:
            lengths = lengths.sum(axis=1, dtype=np.int64, keepdims=True)
        chunk = _tree_sums(forest, lengths)[:, 0].tolist()
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
    (arrangement,) = _arrangements(_positions(tree, offsets))
    return arrangement
