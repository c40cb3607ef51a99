"""Rooted trees on vertices 1..n.

A rooted tree is stored as three numpy arrays, computed once when it is
built: the parent of every vertex, the size of every subtree and every
out-degree.  The parent array is the only form a tree takes: the tuple
views that Python loops read (parents, ascending children lists,
breadth-first order) and the block plan the projective sampler reads are
built from the arrays on first use and cached.  Vertex ids and
arrangement positions share the same 1-based range, so head vectors and
CoNLL-U token ids line up without translation.

Every constructor ends in one core that validates a parent array and
computes the subtree sizes by numpy pointer doubling: about log2(height)
rounds, each one ``bincount`` and one gather over the whole array, and no
loop over vertices or levels, so a path costs no more than a bushy tree
of the same size, and a tree of any size takes the same path.  The
minimizing trees of ``extrema`` skip the core: they are assembled from
subtrees already built, and are trees by construction.  A head-vector
text of ASCII digits and whitespace is read by one ``np.fromstring``
call; any other text goes through ``str.split``, which names what is
wrong with it.

The module also provides the named tree classes used by the closed-form
tables (stars, quasi-stars, linear trees), AHU-style canonical codes for
unlabeled-isomorphism tests, and uniform random labeled trees.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadRoot,
    CycleDetected,
    Disconnected,
    MultipleHeads,
    OutOfRange,
    UnsupportedSize,
)

TREE_CLASSES = (
    "star_hub",
    "star_leaf",
    "qstar_hub",
    "qstar_edge_leaf",
    "qstar_far_leaf",
    "qstar_bridge",
    "linear_k",
)

# The characters of a head vector that np.fromstring reads as str.split
# would: the ASCII digits and the six ASCII whitespace characters.
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\x0b\x0c"


class RootedTree:
    """Immutable rooted tree over vertices 1..n.

    Instances are produced by :func:`build_tree` and :func:`tree_from_heads`
    (or the constructors built on them), which validate single headedness,
    connectedness and acyclicity, or are assembled from such trees by
    ``extrema._attach_root``.  Only the three arrays are stored;
    ``parent``, ``children``, ``order`` and ``blocks`` are built from them
    on first use and cached.  The arrays are read-only and the views are
    tuples, so the object is safe to share between threads.

    Attributes:
        n: number of vertices.
        root: the root vertex id.
        parent_array: int64 array, ``parent_array[v]`` is the parent of
            ``v`` (0 for the root and for the unused index 0).
        size_array: int64 array of subtree sizes (index 0 holds 0).
        out_degree_array: int64 array of child counts (index 0 holds 0).
        parent: ``parent_array`` as a tuple of ints.
        children: ``children[v]`` is the tuple of children of ``v``, in
            ascending order.
        order: all vertices in breadth-first order from the root.
        blocks: the segment ids of every block of two or more segments,
            grouped by size (see :func:`_block_plan`).
    """

    __slots__ = (
        "n",
        "root",
        "parent_array",
        "size_array",
        "out_degree_array",
        "_parent",
        "_children",
        "_order",
        "_blocks",
    )

    def __init__(self, n, root, parent_array, size_array, out_degree_array):
        for array in (parent_array, size_array, out_degree_array):
            array.flags.writeable = False
        self.n = n
        self.root = root
        self.parent_array = parent_array
        self.size_array = size_array
        self.out_degree_array = out_degree_array
        self._parent = None
        self._children = None
        self._order = None
        self._blocks = None

    @property
    def parent(self) -> tuple[int, ...]:
        if self._parent is None:
            self._parent = tuple(self.parent_array.tolist())
        return self._parent

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        if self._children is None:
            kids = np.flatnonzero(self.parent_array)
            kids = kids[np.argsort(self.parent_array[kids], kind="stable")].tolist()
            children = []
            start = 0
            for d in self.out_degree_array.tolist():
                children.append(tuple(kids[start : start + d]))
                start += d
            self._children = tuple(children)
        return self._children

    @property
    def order(self) -> tuple[int, ...]:
        if self._order is None:
            self._order = _bfs_order(self.root, self.children)
        return self._order

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        if self._blocks is None:
            self._blocks = _block_plan(self.n, self.parent_array, self.out_degree_array)
        return self._blocks

    def head_vector(self) -> str:
        """Serialize as whitespace-separated parent ids, 0 for the root."""
        return " ".join(map(str, self.parent_array[1:].tolist()))

    def subtree(self, v: int) -> "RootedTree":
        """Extract the subtree rooted at ``v`` as a tree of its own.

        Vertices are relabeled 1..m in breadth-first discovery order, so
        the result's root is vertex 1 and its children lists keep the
        order of this tree's (ascending) ones.
        """
        if not 1 <= v <= self.n:
            raise OutOfRange(f"vertex {v} not in 1..{self.n}")
        children = self.children
        relabel = {v: 1}
        frontier = [v]
        links = []
        while frontier:
            nxt = []
            for u in frontier:
                for c in children[u]:
                    relabel[c] = len(relabel) + 1
                    links.append((relabel[c], relabel[u]))
                    nxt.append(c)
            frontier = nxt
        return build_tree(len(relabel), links, 1)

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
    Returns one read-only int32 (g, d + 1) array per out-degree d >= 1
    present, in ascending d: row i lists the segments of the block of the
    i-th vertex of out-degree d, its own slot first.  Leaves, whose one
    segment always sits at offset 0, are left out.  One sort of the links
    by (parent's out-degree, parent) lists every block's children together
    and the blocks of one out-degree together; a ``bincount`` of the
    out-degrees sizes the groups.  int32 ids halve the memory the cached
    plan holds; they cover trees of up to 2^30 vertices.
    """
    vertices_per_degree = np.bincount(out_degree[1:])
    vertices_per_degree[0] = 0  # leaves get no group
    # Every group is a view of one buffer, allocated before the sort's
    # temporaries so that the cached plan does not pin them in the heap.
    flat = np.empty(n - 1 + np.count_nonzero(out_degree), dtype=np.int32)
    heads = parent[parent != 0]  # the parent of kids[j], for every j
    key = out_degree[heads]
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


def _doubling_kernel(n: int, parent: np.ndarray):
    """Subtree sizes by pointer doubling, with cycle detection.

    Before round k, ``jump[x]`` is the ancestor 2^k links above x (0 when
    there is none) and ``size[x]`` counts the descendants of x, itself
    included, fewer than 2^k links below it.  Adding every ``size[x]``
    into ``size[jump[x]]`` and squaring the jump doubles both distances.
    Each round works on the whole array: slot 0 absorbs the sizes of the
    vertices without an ancestor that far up and is cleared again, which
    costs less than compacting the vertices still climbing.  A vertex
    that still has an ancestor n or more links above lies on, or below, a
    cycle.  ``parent`` is only read: the first squaring makes a new array.
    """
    size = np.ones(n + 1)  # float64, as bincount sums weights; exact below 2^53
    size[0] = 0
    jump = parent
    reach = 1
    while np.count_nonzero(jump):
        if reach >= n:
            raise CycleDetected("the unreachable vertices form one or more cycles")
        size += np.bincount(jump, weights=size, minlength=n + 1)
        size[0] = 0
        jump = jump[jump]
        reach *= 2
    out_degree = np.bincount(parent, minlength=n + 1)
    out_degree[0] = 0
    return size.astype(np.int64), out_degree


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


def _tree_from_parent(n: int, root: int, parent: np.ndarray) -> RootedTree:
    """The constructor core: validate a parent array and measure the tree.

    ``parent`` (an int64 array of length n + 1) must already hold only ids
    in 0..n, no self-loops and a 0 in slot 0; 0 marks a vertex without a
    parent.  It becomes the tree's ``parent_array``.  Raises Disconnected
    or CycleDetected.
    """
    n_links = int(np.count_nonzero(parent))
    if n_links < n - 1:
        raise Disconnected(f"{n - 1} parent links needed to connect {n} vertices, got {n_links}")
    if parent[root]:
        raise _root_head_error(n, root, parent.tolist())
    size, out_degree = _doubling_kernel(n, parent)
    return RootedTree(n, root, parent, size, out_degree)


def build_tree(n: int, links: Iterable[tuple[int, int]], root: int) -> RootedTree:
    """Build and validate a rooted tree from (child, parent) links.

    The links may come in any order; only the parent of each vertex is
    kept.  Raises MultipleHeads, CycleDetected, Disconnected, BadRoot, or
    OutOfRange, naming the violated condition.
    """
    if n < 1:
        raise UnsupportedSize(f"a tree needs at least one vertex, got n={n}")
    if not 1 <= root <= n:
        raise BadRoot(f"root {root} not in 1..{n}")
    parent = [0] * (n + 1)
    for child, par in links:
        if not (1 <= child <= n and 1 <= par <= n):
            raise OutOfRange(f"link ({child}, {par}) not within 1..{n}")
        if child == par:
            raise CycleDetected(f"vertex {child} is its own parent")
        if parent[child]:
            raise MultipleHeads(f"vertex {child} has more than one parent")
        parent[child] = par
    return _tree_from_parent(n, root, np.array(parent, dtype=np.int64))


def tree_from_heads(heads: Sequence[int]) -> RootedTree:
    """Build a tree from a head vector (``heads[i]`` is the parent of i+1).

    The one 0 entry marks the root; a vector with no 0 entry, or with
    more than one, raises BadRoot.
    """
    head = np.asarray(heads)
    if head.ndim != 1 or (head.size and head.dtype.kind not in "iu"):
        raise OutOfRange("a head vector is a flat sequence of integers within 0..n")
    head = head.astype(np.int64)
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
    return _tree_from_parent(n, int(zeros[0]) + 1, np.concatenate(([0], head)))


def parse_head_vector(text: str) -> RootedTree:
    """Parse a whitespace-separated head vector such as ``"0 1 1 2"``.

    Text of ASCII digits and whitespace alone, with at least one digit, is
    read by one ``np.fromstring`` call; that call would turn blank text
    into ``[0]``, stop silently at a bad token and saturate an overflowing
    entry, so every other text, and any entry read above the entry count,
    goes through ``str.split``, which names the error.
    """
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


def _check_class_args(tree_class: str, n: int, k: int | None) -> int | None:
    """Validate the arguments of a named tree class; return ``k`` normalized.

    Raises ValueError for an unknown class and UnsupportedSize for a size
    the class does not have.  For ``linear_k``, ``k`` defaults to 0 and
    becomes ``min(k, n - 1 - k)``; other classes ignore it.
    """
    if tree_class not in TREE_CLASSES:
        raise ValueError(f"unknown tree class {tree_class!r}")
    if n < 1:
        raise UnsupportedSize(f"n must be positive, got {n}")
    if tree_class == "star_leaf" and n < 2:
        raise UnsupportedSize("star_leaf needs n >= 2")
    if tree_class == "linear_k":
        k = 0 if k is None else k
        if not 0 <= k <= n - 1:
            raise UnsupportedSize(f"linear_k needs 0 <= k <= {n - 1}, got {k}")
        return min(k, n - 1 - k)
    if tree_class.startswith("qstar_") and n < 4:
        raise UnsupportedSize(f"quasi-star classes need n >= 4, got {n}")
    return k


def make_class(tree_class: str, n: int, k: int | None = None) -> RootedTree:
    """Construct one of the named tree classes.

    ``star_hub`` and ``star_leaf`` are the star on n vertices rooted at its
    hub or at a leaf; the four ``qstar_*`` variants are the quasi-star (a
    star with one subdivided edge, n >= 4) rooted at the hub, at a leaf
    adjacent to the hub, at the far leaf of the subdivided edge, or at the
    internal non-hub vertex; ``linear_k`` is the path rooted at distance
    ``k`` from one end.  ``k`` is normalized to ``min(k, n - 1 - k)`` since
    the two rootings are isomorphic.
    """
    k = _check_class_args(tree_class, n, k)
    if tree_class == "star_hub":
        return build_tree(n, [(i, 1) for i in range(2, n + 1)], 1)
    if tree_class == "star_leaf":
        links = [(2, 1)] + [(i, 2) for i in range(3, n + 1)]
        return build_tree(n, links, 1)
    if tree_class == "linear_k":
        root = k + 1
        links = [(i, i + 1) for i in range(root - 1, 0, -1)]
        links += [(i, i - 1) for i in range(root + 1, n + 1)]
        return build_tree(n, links, root)
    if tree_class == "qstar_hub":
        # root 1 = hub, 2 = internal vertex, 3 = far leaf, rest hub leaves
        links = [(2, 1), (3, 2)] + [(i, 1) for i in range(4, n + 1)]
        return build_tree(n, links, 1)
    if tree_class == "qstar_edge_leaf":
        # root 1 = a leaf adjacent to the hub 2; 3 = internal, 4 = far leaf
        links = [(2, 1), (3, 2), (4, 3)] + [(i, 2) for i in range(5, n + 1)]
        return build_tree(n, links, 1)
    if tree_class == "qstar_far_leaf":
        # root 1 = far leaf, 2 = internal vertex, 3 = hub
        links = [(2, 1), (3, 2)] + [(i, 3) for i in range(4, n + 1)]
        return build_tree(n, links, 1)
    # qstar_bridge: root 1 = internal non-hub vertex, 2 = far leaf, 3 = hub
    links = [(2, 1), (3, 1)] + [(i, 3) for i in range(4, n + 1)]
    return build_tree(n, links, 1)


def _check_seed(seed) -> None:
    """Raise OutOfRange for a negative int seed, which numpy rejects with
    a ValueError."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise OutOfRange(f"seed must be a non-negative integer, got {seed}")


def _generator(seed) -> np.random.Generator:
    """``seed`` itself when it is a ``numpy.random.Generator``, else a new
    generator seeded with it; a negative int seed raises OutOfRange."""
    if isinstance(seed, np.random.Generator):
        return seed
    _check_seed(seed)
    return np.random.default_rng(seed)


def random_tree(n: int, seed) -> RootedTree:
    """Uniformly random labeled rooted tree on n vertices.

    Draws a uniform labeled free tree from its Pruefer sequence and roots
    it at an independently uniform vertex, drawn first.  Decoding hangs
    each removed leaf below the vertex it joins, which roots the tree at
    n; reversing the path from the chosen root up to n moves the root.
    ``seed`` may be an int or a ``numpy.random.Generator``; the result is
    deterministic given both.
    """
    if n < 1:
        raise UnsupportedSize(f"n must be positive, got {n}")
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
    prev, v = 0, root
    while v:
        parent[v], prev, v = prev, v, parent[v]
    return tree_from_heads(parent[1:])
