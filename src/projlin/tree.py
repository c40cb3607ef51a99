"""Rooted trees on vertices 1..n.

A rooted tree is stored as three int32 numpy arrays, computed once when
it is built: the parent of every vertex, the size of every subtree and
every out-degree.  The parent array is the only form a tree takes: the tuple
views that Python loops read (parents, ascending children lists,
breadth-first order) and the block plan the projective sampler reads are
built from the arrays on first use and cached.  The block layout lives
here: ``_block_plan`` names the segments of every block,
``_segment_lengths`` gives their lengths, and ``_tree_sums`` sums a
per-edge array (edge j joins the j-th non-root vertex to its parent) over
each tree's edges, for the closed form, the observed sums and the Monte
Carlo kernel alike.  Vertex ids and arrangement positions share the same
1-based range, so head vectors and CoNLL-U token ids line up without
translation.

``build_tree`` and ``tree_from_heads`` check what only their own input
can get wrong, then end in one line, ``RootedTree(n, root, parent,
*_doubling_kernel(n, parent))``: the kernel finds any cycle and computes
the subtree sizes by numpy pointer doubling, in about log2(height)
rounds of one ``bincount`` and one gather over the whole array, so a path
costs no more than a bushy tree of the same size.  The root-above
constructor ``_attach_root``, which builds the minimizing trees of
``extrema``, skips the kernel: it lays subtrees already built end to end
below a new root, as ``_forest`` lays out a forest, so the result is a
tree by construction.  A head-vector text of ASCII digits and
whitespace is read by one ``np.fromstring`` call; any other text goes
through ``str.split``, which names what is wrong with it.

The module also provides the named tree classes used by the closed-form
tables (stars, quasi-stars, linear trees), AHU-style canonical codes for
unlabeled-isomorphism tests, and uniform random labeled trees.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BadRoot,
    CycleDetected,
    Disconnected,
    MultipleHeads,
    OutOfRange,
    UnsupportedSize,
    _integer,
    _iterable,
)

# Every named class but the path on its fewest vertices: a head vector
# (entry i is the parent of vertex i + 1) and the hub below which every
# further vertex hangs.  A quasi-star's internal vertex lies on its one
# subdivided edge, between the hub and the far leaf.
_CLASS_HEADS = {
    "star_hub": ((0,), 1),  # 1 = hub
    "star_leaf": ((0, 1), 2),  # 1 = a leaf, 2 = hub
    "qstar_hub": ((0, 1, 2, 1), 1),  # 1 = hub, 2 = internal, 3 = far leaf, 4 = a hub leaf
    "qstar_edge_leaf": ((0, 1, 2, 3), 2),  # 1 = a hub leaf, 2 = hub, 3 = internal, 4 = far leaf
    "qstar_far_leaf": ((0, 1, 2, 3), 3),  # 1 = far leaf, 2 = internal, 3 = hub, 4 = a hub leaf
    "qstar_bridge": ((0, 1, 1, 3), 3),  # 1 = internal, 2 = far leaf, 3 = hub, 4 = a hub leaf
}

TREE_CLASSES = (*_CLASS_HEADS, "linear_k")

# The characters of a head vector that np.fromstring reads as str.split
# would: the ASCII digits and the six ASCII whitespace characters.
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\x0b\x0c"


class RootedTree:
    """Immutable rooted tree over vertices 1..n.

    Instances are produced by :func:`build_tree` and :func:`tree_from_heads`
    (or the constructors built on them), which validate single headedness,
    connectedness and acyclicity, or are assembled from such trees by
    :func:`_attach_root`.  Only the three arrays are stored;
    ``parent``, ``children``, ``order`` and ``blocks`` are built from them
    on first use and cached.  The arrays are read-only and the views are
    tuples, so the object is safe to share between threads.  Every
    constructor stores int32 arrays, 12 bytes per vertex: ids and sizes
    are at most n, and every sum that can pass 2^31 is taken in int64.
    Equal trees therefore hold equal bytes and hash alike.

    Attributes:
        n: number of vertices.
        root: the root vertex id.
        parent_array: int32 array, ``parent_array[v]`` is the parent of
            ``v`` (0 for the root and for the unused index 0).
        size_array: int32 array of subtree sizes (index 0 holds 0).
        out_degree_array: int32 array of child counts (index 0 holds 0).
        parent: ``parent_array`` as a tuple of ints.
        children: ``children[v]`` is the tuple of children of ``v``, in
            ascending order.
        order: all vertices in breadth-first order from the root.
        blocks: the segment ids of every block of two or more segments,
            grouped by size (see :func:`_block_plan`).
        starts: ``[0]``, read-only and shared by every tree: a tree is the
            one-tree :class:`_Forest`, with every field the kernels read.
    """

    starts = np.zeros(1, dtype=np.int64)
    starts.flags.writeable = False

    def __init__(self, n, root, parent_array, size_array, out_degree_array):
        for array in (parent_array, size_array, out_degree_array):
            array.flags.writeable = False
        self.n = n
        self.root = root
        self.parent_array = parent_array
        self.size_array = size_array
        self.out_degree_array = out_degree_array

    @cached_property
    def parent(self) -> tuple[int, ...]:
        return tuple(self.parent_array.tolist())

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids = np.flatnonzero(self.parent_array)
        kids = kids[np.argsort(self.parent_array[kids], kind="stable")].tolist()
        children = []
        start = 0
        for d in self.out_degree_array.tolist():
            children.append(tuple(kids[start : start + d]))
            start += d
        return tuple(children)

    @cached_property
    def order(self) -> tuple[int, ...]:
        return _bfs_order(self.root, self.children)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return _block_plan(self.n, self.parent_array, self.out_degree_array)

    def head_vector(self) -> str:
        """Serialize as whitespace-separated parent ids, 0 for the root."""
        return " ".join(map(str, self.parent_array[1:].tolist()))

    def subtree(self, v: int) -> "RootedTree":
        """Extract the subtree rooted at ``v`` as a tree of its own.

        Vertices are relabeled 1..m in breadth-first discovery order, so
        the result's root is vertex 1 and its children lists keep the
        order of this tree's (ascending) ones.
        """
        v = _integer(v, "vertex", 1)
        if v > self.n:
            raise OutOfRange(f"vertex {v} not in 1..{self.n}")
        order = _bfs_order(v, self.children)
        relabel = {u: i for i, u in enumerate(order, 1)}
        parent = self.parent
        return tree_from_heads([0] + [relabel[parent[u]] for u in order[1:]])

    def __eq__(self, other):
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self.root == other.root and np.array_equal(self.parent_array, other.parent_array)

    def __hash__(self):
        return hash((self.root, self.parent_array.tobytes()))

    def __repr__(self):
        if self.n <= 16:
            return f"RootedTree({self.head_vector()!r})"
        return f"RootedTree(n={self.n}, root={self.root})"


class _Forest(NamedTuple):
    """Rooted trees laid end to end over vertices 1..n, drawn as one.

    Tree i's vertex v is vertex ``starts[i] + v`` here, and its parent is
    shifted alike; each root keeps parent 0.  ``blocks`` is the
    :func:`_block_plan` of the whole forest, so one draw orders the blocks
    of every tree, and tree i's non-root vertices, taken in ascending
    order, are the contiguous range from ``starts[i] - i`` of the forest's.
    A :class:`RootedTree` is the one-tree forest, with ``starts = [0]``.
    """

    n: int
    parent_array: np.ndarray
    size_array: np.ndarray
    out_degree_array: np.ndarray
    starts: np.ndarray
    blocks: tuple[np.ndarray, ...]


def _end_to_end(trees: Sequence[RootedTree], top: int):
    """Lay the trees end to end after vertex ``top`` (0 or 1): tree i's
    vertex v becomes ``starts[i] + v``, its parent is shifted alike, its
    root gets parent ``top``.  Returns n, the parent, size and out-degree
    arrays (slots 0..top hold 0, for the caller to fill) and ``starts``."""
    counts = np.array([tree.n for tree in trees], dtype=np.int64)
    starts = np.cumsum(counts) - counts + top
    parent, size, out_degree = (
        np.concatenate([np.zeros(top + 1, np.int32), *(getattr(tree, name)[1:] for tree in trees)])
        for name in ("parent_array", "size_array", "out_degree_array")
    )
    parent[top + 1 :] += np.where(parent[top + 1 :] != 0, np.repeat(starts, counts), top)
    return parent.size - 1, parent, size, out_degree, starts


def _forest(trees: Sequence[RootedTree]) -> _Forest:
    """Lay the trees end to end, in order."""
    n, parent, size, out_degree, starts = _end_to_end(trees, 0)
    return _Forest(n, parent, size, out_degree, starts, _block_plan(n, parent, out_degree))


def _attach_root(subtrees: Sequence[RootedTree]) -> RootedTree:
    """A new root 1 above the given subtrees, in order; a subtree's vertex
    v becomes v plus the count of vertices before that subtree.  Children
    lists come out ascending.  The result is a tree by construction and the
    subtrees' sizes and out-degrees carry over, so it is assembled from
    their arrays without the validating kernel; its views come on first use.
    """
    n, parent, size, out_degree, _ = _end_to_end(subtrees, 1)
    size[1], out_degree[1] = n, len(subtrees)
    return RootedTree(n, 1, parent, size, out_degree)


def _bfs_order(root: int, children) -> tuple[int, ...]:
    order = [root]
    for v in order:  # the loop also visits the vertices appended here
        order.extend(children[v])
    return tuple(order)


def _block_plan(n: int, parent: np.ndarray, out_degree: np.ndarray):
    """The segments of every block, grouped by out-degree, for the sampler.

    Vertex v's block holds d_v + 1 segments: v's own slot and the subtree
    of each child.  Segment v - 1 is v's own slot and segment n + j the
    subtree of ``kids[j]``, the j-th non-root vertex in ascending order.
    ``parent`` may hold several roots, each marked by a 0 (a ``_Forest``).
    Returns one read-only int32 (g, d + 1) array per out-degree d >= 1
    present, in ascending d: row i lists the segments of the block of the
    i-th vertex of out-degree d, its own slot first.  Leaves, whose one
    segment always sits at offset 0, are left out.  One sort of the links
    by (parent's out-degree, parent) lists every block's children together
    and the blocks of one out-degree together; a ``bincount`` of the
    out-degrees sizes the groups.  The sort key, out-degree times (n + 1)
    plus parent, passes 2^31 on a hub star above 46,341 vertices, so it is
    int64 even though ``parent`` and ``out_degree`` are int32.  int32 ids
    halve the memory the cached plan holds; they cover trees of up to 2^30
    vertices.
    """
    vertices_per_degree = np.bincount(out_degree[1:])
    vertices_per_degree[0] = 0  # leaves get no group
    # Every group is a view of one buffer, allocated before the sort's
    # temporaries so that the cached plan does not pin them in the heap.
    flat = np.empty(np.count_nonzero(parent) + np.count_nonzero(out_degree), dtype=np.int32)
    heads = parent[parent != 0]  # the parent of kids[j], for every j
    key = out_degree[heads].astype(np.int64)
    key *= n + 1
    key += heads
    order = np.argsort(key)
    del key
    plan = []
    link = cell = 0
    for d in np.flatnonzero(vertices_per_degree).tolist():
        g = int(vertices_per_degree[d])
        links = order[link : link + g * d].reshape(g, d)
        segments = flat[cell : cell + g * (d + 1)].reshape(g, d + 1)
        link += g * d
        cell += g * (d + 1)
        np.subtract(heads[links[:, 0]], 1, out=segments[:, 0])
        np.add(links, n, out=segments[:, 1:])
        segments.flags.writeable = False
        plan.append(segments)
    return tuple(plan)


def _segment_lengths(forest: RootedTree | _Forest) -> np.ndarray:
    """Every own slot has length 1, every child's segment its subtree size."""
    own = np.ones(forest.n, dtype=np.int32)
    return np.concatenate((own, forest.size_array[forest.parent_array != 0]), dtype=np.int32)


def _tree_sums(forest: RootedTree | _Forest, per_edge: np.ndarray) -> np.ndarray:
    """Every tree's sum of ``per_edge``, one int64 row per tree.  Axis 0
    runs over the edges in ``kids`` order (edge j, from the j-th non-root
    vertex up, is segment n + j); tree i's edges start at ``starts[i] - i``,
    and a one-vertex tree has none."""
    has_edges = np.diff(forest.starts, append=forest.n) > 1
    sums = np.zeros((forest.starts.size, *per_edge.shape[1:]), dtype=np.int64)
    first_edge = forest.starts[has_edges] - np.flatnonzero(has_edges)
    sums[has_edges] = np.add.reduceat(per_edge, first_edge, axis=0, dtype=np.int64)
    return sums


def _doubling_kernel(n: int, parent: np.ndarray):
    """Subtree sizes by pointer doubling, with cycle detection.

    ``parent``, int32 of length n + 1, holds 0 in slot 0 and at the root
    alone, and in every other slot an id in 1..n other than its own.
    Before round k, ``jump[x]`` is the ancestor 2^k links above x (0 when
    there is none) and ``size[x]`` counts the descendants of x, itself
    included, fewer than 2^k links below it.  Adding every ``size[x]``
    into ``size[jump[x]]`` and squaring the jump doubles both distances.
    Each round works on the whole array: slot 0 absorbs the sizes of the
    vertices without an ancestor that far up and is cleared again, which
    costs less than compacting the vertices still climbing.  A vertex
    that still has an ancestor n or more links above lies on, or below, a
    cycle.  ``parent`` is only read: ``jump`` is an intp copy, since
    numpy converts an index array of any other type to intp on every gather
    and ``bincount``.  Returns the int32 sizes and out-degrees.
    """
    size = np.ones(n + 1)  # float64, as bincount sums weights; exact below 2^53
    size[0] = 0
    jump = parent.astype(np.intp)
    reach = 1
    while np.count_nonzero(jump):
        if reach >= n:
            raise CycleDetected("the unreachable vertices form one or more cycles")
        size += np.bincount(jump, weights=size, minlength=n + 1)
        size[0] = 0
        jump = jump[jump]
        reach *= 2
    del jump
    size = size.astype(np.int32)
    out_degree = np.bincount(parent, minlength=n + 1).astype(np.int32)
    out_degree[0] = 0
    return size, out_degree


def _root_head_error(n: int, root: int, parent) -> Exception:
    """The error for a link that gives the root a parent, named as a
    breadth-first walk from the root would find it."""
    v = parent[root]
    for _ in range(n):
        if v in (0, root):
            break
        v = parent[v]
    if v == root:
        return CycleDetected(f"vertex {root} is reached twice from root {root}")
    for w in range(1, n + 1):
        if not parent[w] and w != root:
            return Disconnected(f"vertex {w} is not reachable from root {root}")
    return CycleDetected("the unreachable vertices form one or more cycles")


def build_tree(n: int, links: Iterable[tuple[int, int]], root: int) -> RootedTree:
    """Build and validate a rooted tree from (child, parent) links.

    The links may come in any order; only the parent of each vertex is
    kept.  Unlike a head vector, links can be too few, or give the root a
    parent.  Raises UnsupportedSize, MultipleHeads, CycleDetected,
    Disconnected, BadRoot, or OutOfRange, naming the violated condition.
    """
    n = _integer(n, "n", 1, UnsupportedSize)
    root = _integer(root, "root", 1, BadRoot)
    if root > n:
        raise BadRoot(f"root {root} not in 1..{n}")
    parent = [0] * (n + 1)
    for link in _iterable(links, "links", "(child, parent) pairs"):
        try:
            child, par = link
        except (TypeError, ValueError):
            raise OutOfRange(f"link {link!r} is not a pair of vertex ids") from None
        child, par = _integer(child, "vertex id", 1), _integer(par, "vertex id", 1)
        if child > n or par > n:
            raise OutOfRange(f"link ({child}, {par}) not within 1..{n}")
        if child == par:
            raise CycleDetected(f"vertex {child} is its own parent")
        if parent[child]:
            raise MultipleHeads(f"vertex {child} has more than one parent")
        parent[child] = par
    n_links = n + 1 - parent.count(0)
    if n_links < n - 1:
        raise Disconnected(f"{n - 1} parent links needed to connect {n} vertices, got {n_links}")
    if parent[root]:
        raise _root_head_error(n, root, parent)
    parent = np.array(parent, dtype=np.int32)
    return RootedTree(n, root, parent, *_doubling_kernel(n, parent))


def tree_from_heads(heads: Sequence[int]) -> RootedTree:
    """Build a tree from a head vector (``heads[i]`` is the parent of i+1).

    The one 0 entry marks the root; a vector with no 0 entry, or with
    more than one, raises BadRoot; one 0 gives n - 1 links and a
    parentless root, so the doubling kernel is left to find any cycle.
    """
    head = np.asarray(heads)
    if head.ndim != 1 or (head.size and head.dtype.kind not in "iu"):
        raise OutOfRange("a head vector is a flat sequence of integers within 0..n")
    head = head.astype(np.int64, copy=False)
    n = head.size
    zeros = np.flatnonzero(head == 0)
    if zeros.size != 1:
        raise BadRoot(f"a head vector needs exactly one 0 entry (the root), got {zeros.size}")
    bad = (head < 0) | (head > n) | (head == np.arange(1, n + 1))
    if bad.any():
        v = int(np.argmax(bad)) + 1
        h = int(head[v - 1])
        if h == v:
            raise CycleDetected(f"vertex {v} is its own parent")
        raise OutOfRange(f"link ({v}, {h}) not within 1..{n}")
    parent = np.concatenate(([0], head), dtype=np.int32)
    return RootedTree(n, int(zeros[0]) + 1, parent, *_doubling_kernel(n, parent))


def parse_head_vector(text: str) -> RootedTree:
    """Parse a whitespace-separated head vector such as ``"0 1 1 2"``.

    Text of ASCII digits and whitespace alone, with at least one digit, is
    read by one ``np.fromstring`` call; that call would turn blank text
    into ``[0]``, stop silently at a bad token and saturate an overflowing
    entry, so every other text, and any entry read above the entry count,
    goes through ``str.split``, which names the error.  Anything but a
    ``str`` raises OutOfRange.
    """
    if not isinstance(text, str):
        raise OutOfRange(f"a head vector is text, got {type(text).__name__}")
    if text and text.isascii() and not text.isspace():
        if not text.encode().translate(None, _DIGITS_AND_SPACE):
            heads = np.fromstring(text, dtype=np.int64, sep=" ")
            if heads.max() <= heads.size:
                return tree_from_heads(heads)
    try:
        heads = np.array(text.split(), dtype=np.int64)
    except ValueError as exc:
        raise OutOfRange(f"head vector must contain integers: {exc}") from None
    except OverflowError:
        raise OutOfRange("head vector entries must lie within 0..n") from None
    if not heads.size:
        raise UnsupportedSize("empty head vector")
    return tree_from_heads(heads)


def canonical_code(tree: RootedTree) -> bytes:
    """AHU-style canonical code of the unlabeled rooted tree.

    Children codes are sorted and concatenated inside parentheses, so two
    trees get equal codes exactly when they are isomorphic as unlabeled
    rooted trees.  The computation is iterative and handles deep chains.
    """
    codes: list[bytes] = [b""] * (tree.n + 1)
    children = tree.children
    for v in reversed(tree.order):
        kids = children[v]
        if kids:
            codes[v] = b"(" + b"".join(sorted(codes[c] for c in kids)) + b")"
        else:
            codes[v] = b"()"
    return codes[tree.root]


def _check_class_args(tree_class: str, n: int, k: int | None) -> tuple[int, int | None]:
    """Validate the arguments of a named tree class; return them normalized.

    Raises OutOfRange for an unknown class and UnsupportedSize for a size
    the class does not have (below the length of its ``_CLASS_HEADS``
    entry).  For ``linear_k``, ``k`` defaults to 0 and becomes
    ``min(k, n - 1 - k)``; other classes ignore it.
    """
    if tree_class not in TREE_CLASSES:
        raise OutOfRange(f"unknown tree class {tree_class!r}")
    n = _integer(n, "n", 1, UnsupportedSize)
    if tree_class == "linear_k":
        k = _integer(0 if k is None else k, "k", 0, UnsupportedSize)
        if k > n - 1:
            raise UnsupportedSize(f"linear_k needs 0 <= k <= {n - 1}, got {k}")
        return n, min(k, n - 1 - k)
    least = len(_CLASS_HEADS[tree_class][0])
    if n < least:
        raise UnsupportedSize(f"{tree_class} needs n >= {least}, got {n}")
    return n, k


def make_class(tree_class: str, n: int, k: int | None = None) -> RootedTree:
    """Construct one of the named tree classes.

    ``star_hub`` and ``star_leaf`` are the star on n vertices rooted at its
    hub or at a leaf; the four ``qstar_*`` variants are the quasi-star (a
    star with one subdivided edge) rooted at the hub, at a leaf adjacent to
    the hub, at the far leaf of the subdivided edge, or at the internal
    non-hub vertex.  Each is its ``_CLASS_HEADS`` entry with vertices
    ``len(entry) + 1`` to n hung below the entry's hub, so it needs n at
    least the entry's length: 1 for ``star_hub``, 2 for ``star_leaf``, 4
    for a quasi-star.  ``linear_k`` is the path 1 - 2 - ... - n rooted at
    vertex ``k + 1``, at distance ``k`` from one end, for any n >= 1.  ``k``
    is normalized to ``min(k, n - 1 - k)`` since the two rootings are
    isomorphic.
    """
    n, k = _check_class_args(tree_class, n, k)
    if tree_class == "linear_k":
        return tree_from_heads([*range(2, k + 2), 0, *range(k + 1, n)])
    heads, hub = _CLASS_HEADS[tree_class]
    return tree_from_heads(heads + (hub,) * (n - len(heads)))


def _generator(seed) -> np.random.Generator:
    """``seed`` itself when it is a ``numpy.random.Generator``, else a new
    generator seeded with it, a non-negative integer (else OutOfRange)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_integer(seed, "seed", 0))


def random_tree(n: int, seed) -> RootedTree:
    """Uniformly random labeled rooted tree on n vertices.

    Draws a uniform labeled free tree from its Pruefer sequence and roots
    it at an independently uniform vertex, drawn first.  Decoding hangs
    each removed leaf below the vertex it joins, which roots the tree at
    n; reversing the path from the chosen root up to n moves the root.
    ``seed`` may be an int or a ``numpy.random.Generator``; the result is
    deterministic given both.
    """
    n = _integer(n, "n", 1, UnsupportedSize)
    rng = _generator(seed)
    if n == 1:
        return tree_from_heads([0])
    root = int(rng.integers(1, n + 1))
    seq = rng.integers(1, n + 1, size=n - 2).tolist()
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    parent = [0] * (n + 1)
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        parent[leaf] = x
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    parent[leaf] = n
    return tree_from_heads(_reroot(parent, root)[1:])


def _reroot(parent: list[int], root: int) -> list[int]:
    """Make ``root`` the root of the tree that the parent list describes,
    in place, by reversing the path from it up to the old root; returns
    ``parent``."""
    prev, v = 0, root
    while v:
        parent[v], prev, v = prev, v, parent[v]
    return parent
