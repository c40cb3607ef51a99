"""Shared brute-force oracles for the test suite.

These reimplement the checked quantities from first principles (explicit
vertex sets, full permutation sweeps, Pruefer enumeration) so the fast
library paths are validated against genuinely independent computations.
"""

import itertools
from fractions import Fraction

import numpy as np

from projlin import (
    LinearArrangement,
    OutOfRange,
    RootedTree,
    UnsupportedSize,
    build_tree,
    canonical_code,
    combine_forests,
    random_tree,
    tree_from_heads,
)


def all_arrangements(n):
    """Every assignment of positions 1..n to vertices 1..n."""
    for perm in itertools.permutations(range(1, n + 1)):
        yield LinearArrangement(perm)


def subtree_vertex_sets(tree):
    sets = {v: {v} for v in range(1, tree.n + 1)}
    for v in reversed(tree.order):
        p = tree.parent[v]
        if p:
            sets[p] |= sets[v]
    return sets


def oracle_edge_sum(tree, arrangement):
    pos = arrangement.pos
    return sum(abs(pos[v] - pos[tree.parent[v]]) for v in range(1, tree.n + 1) if tree.parent[v])


def oracle_is_projective(tree, arrangement):
    """Contiguity of every subtree's position set, via explicit sets."""
    for vertices in subtree_vertex_sets(tree).values():
        positions = sorted(arrangement.pos[v] for v in vertices)
        if positions != list(range(positions[0], positions[0] + len(positions))):
            return False
    return True


def oracle_is_planar(tree, arrangement):
    """Pairwise crossing test on explicit position-interval sets."""
    spans = []
    for v in tree.order[1:]:
        a, b = arrangement.pos[v], arrangement.pos[tree.parent[v]]
        spans.append((min(a, b), max(a, b)))
    for (a1, b1), (a2, b2) in itertools.combinations(spans, 2):
        if {a1, b1} & {a2, b2}:
            continue
        left = set(range(a1, b1 + 1))
        right = set(range(a2, b2 + 1))
        if (left & right) and not (left <= right or right <= left):
            return False
    return True


def oracle_subtree(tree, v):
    """The subtree at ``v``, relabeled 1..m level by level from a frontier
    of the vertices found last."""
    relabel = {v: 1}
    frontier = [v]
    links = []
    while frontier:
        nxt = []
        for u in frontier:
            for c in tree.children[u]:
                relabel[c] = len(relabel) + 1
                links.append((relabel[c], relabel[u]))
                nxt.append(c)
        frontier = nxt
    return build_tree(len(relabel), links, 1)


# The fewest vertices of each named tree class, in the order of TREE_CLASSES.
CLASS_MINIMUM = {
    "star_hub": 1,
    "star_leaf": 2,
    "qstar_hub": 4,
    "qstar_edge_leaf": 4,
    "qstar_far_leaf": 4,
    "qstar_bridge": 4,
    "linear_k": 1,
}


def oracle_make_class(tree_class, n, k=None):
    """The named tree class built link by link, with the labels that
    ``make_class`` documents; ``k`` is normalized as it normalizes it."""
    if tree_class == "star_hub":
        return build_tree(n, [(i, 1) for i in range(2, n + 1)], 1)
    if tree_class == "star_leaf":
        links = [(2, 1)] + [(i, 2) for i in range(3, n + 1)]
        return build_tree(n, links, 1)
    if tree_class == "linear_k":
        k = 0 if k is None else min(k, n - 1 - k)
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
    assert tree_class == "qstar_bridge"
    # root 1 = internal non-hub vertex, 2 = far leaf, 3 = hub
    links = [(2, 1), (3, 1)] + [(i, 3) for i in range(4, n + 1)]
    return build_tree(n, links, 1)


def brute_projective_arrangements(tree):
    """All projective arrangements found by filtering the full n! sweep."""
    return [a for a in all_arrangements(tree.n) if oracle_is_projective(tree, a)]


def brute_mean_projective(tree):
    """Exact average edge-length sum over the brute-force projective set."""
    total = 0
    count = 0
    for arrangement in all_arrangements(tree.n):
        if oracle_is_projective(tree, arrangement):
            total += oracle_edge_sum(tree, arrangement)
            count += 1
    return Fraction(total, count)


def oracle_anchor_length(subtree_size):
    """Expected span of a root-to-child edge inside the child's segment."""
    return Fraction(subtree_size + 1, 2)


def oracle_coanchor_length(n, subtree_size):
    """Expected span of a root-to-child edge across intermediate segments."""
    return Fraction(n - subtree_size - 1, 3)


def oracle_root_edge_length(n, subtree_size):
    """Expected length of a root-to-child edge: (2n + n_u + 1) / 6."""
    return oracle_anchor_length(subtree_size) + oracle_coanchor_length(n, subtree_size)


def oracle_recurrence_expectation(tree, variant="standard"):
    """Projective expectation by the bottom-up recurrence over subtrees.

    A subtree rooted at v sits in a uniform projective arrangement of its
    own, so its expectation is that of each child's subtree plus, per
    child u, the expected length of the edge (v, u) in a tree of n_v
    vertices.  Subtree sizes are counted here, not read from the tree.
    """
    size = [1] * (tree.n + 1)
    acc = [Fraction(0)] * (tree.n + 1)
    for v in reversed(tree.order):
        for u in tree.children[v]:
            size[v] += size[u]
        for u in tree.children[v]:
            acc[v] += oracle_root_edge_length(size[v], size[u]) + acc[u]
    if variant == "minus_one":
        return acc[tree.root] - (tree.n - 1)
    return acc[tree.root]


def oracle_vertex_numerator(tree):
    """Six times the projective expectation in the paper's vertex form:
    the sum over vertices v of n_v (2 d_v + 1), less 1, with subtree sizes
    and out-degrees counted here, not read from the tree."""
    size = [1] * (tree.n + 1)
    for v in reversed(tree.order):
        size[v] += sum(size[u] for u in tree.children[v])
    return sum(size[v] * (2 * len(tree.children[v]) + 1) for v in range(1, tree.n + 1)) - 1


def tree_from_pruefer(sequence, n, root):
    """Labeled tree decoded from a Pruefer sequence, rooted at ``root``."""
    degree = [1] * (n + 1)
    for x in sequence:
        degree[x] += 1
    adjacency = [[] for _ in range(n + 1)]
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in sequence:
        adjacency[leaf].append(x)
        adjacency[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    adjacency[leaf].append(n)
    adjacency[n].append(leaf)

    links = []
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    links.append((u, v))
                    nxt.append(u)
        frontier = nxt
    return build_tree(n, links, root)


def all_labeled_rooted_trees(n):
    """Every labeled rooted tree on n vertices (n^(n-2) free trees x n roots)."""
    if n == 1:
        yield build_tree(1, [], 1)
        return
    if n == 2:
        yield build_tree(2, [(2, 1)], 1)
        yield build_tree(2, [(1, 2)], 2)
        return
    for sequence in itertools.product(range(1, n + 1), repeat=n - 2):
        for root in range(1, n + 1):
            yield tree_from_pruefer(sequence, n, root)


def random_tree_corpus(count, n_low, n_high, seed):
    """Deterministic list of uniform random labeled rooted trees."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(count):
        n = int(rng.integers(n_low, n_high + 1))
        corpus.append(random_tree(n, rng))
    return corpus


def caterpillar(spine, legs):
    """A path of ``spine`` vertices rooted at one end, ``legs`` leaves on each."""
    heads = [0] + list(range(1, spine))
    heads += [v for v in range(1, spine + 1) for _ in range(legs)]
    return tree_from_heads(heads)


def broom(handle, bristles):
    """A path of ``handle`` vertices rooted at one end, ``bristles`` leaves on the other."""
    return tree_from_heads([0] + list(range(1, handle)) + [handle] * bristles)


def oracle_tree_from_heads(heads):
    """Views of the tree a head vector describes, or None if it is no tree.

    Works from the definition: exactly one 0 entry, every other entry a
    vertex other than its own, and every vertex reaching the root by
    walking up at most n parent links.  Returns (parent, children, order,
    size, out_degree) with index 0 unused, as the tuples a RootedTree
    exposes.
    """
    n = len(heads)
    if list(heads).count(0) != 1:
        return None
    if any(not 0 <= h <= n or h == v for v, h in enumerate(heads, start=1)):
        return None
    parent = (0,) + tuple(heads)
    root = parent.index(0, 1)
    ancestors = {}
    for v in range(1, n + 1):
        chain = [v]
        while chain[-1] != root and len(chain) <= n:
            chain.append(parent[chain[-1]])
        if chain[-1] != root:
            return None
        ancestors[v] = chain
    children = tuple(
        tuple(v for v in range(1, n + 1) if parent[v] == p and v != root) for p in range(n + 1)
    )
    order = []
    level = [root]
    while level:
        order.extend(level)
        level = [c for p in level for c in children[p]]
    size = (0,) + tuple(sum(u in chain for chain in ancestors.values()) for u in range(1, n + 1))
    out_degree = tuple(len(c) for c in children)
    return parent, children, tuple(order), size, out_degree


def oracle_parse_head_vector(text):
    """The head-vector parse by ``str.split`` and per-token ``int``.

    Reads every text the way the library's one-call parse must read it,
    and names every error it must name: OutOfRange for a token that is
    not an integer or overflows int64, UnsupportedSize for blank text.
    """
    try:
        heads = np.array(text.split(), dtype=np.int64)
    except ValueError as exc:
        raise OutOfRange(f"head vector must contain integers: {exc}") from None
    except OverflowError:
        raise OutOfRange("head vector entries must lie within 0..n") from None
    if not heads.size:
        raise UnsupportedSize("empty head vector")
    return tree_from_heads(heads)


def _fixed_part_partitions(total, parts, largest=None):
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
        for rest in _fixed_part_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def oracle_minima(n):
    """{m: (minimum, minimizers)} for m = 1..n by a pruned sweep.

    Sweeps the root degree d upwards and, for each d, every partition of
    m - 1 into d parts, dropping a partition once its partial cost passes
    the incumbent; minimizers are kept up to isomorphism by canonical
    code, in the order the sweep meets them.
    """
    table = {1: (Fraction(0), (build_tree(1, [], 1),)), 2: (Fraction(1), (build_tree(2, [(2, 1)], 1),))}
    for m in range(3, n + 1):
        sixfold = [0] + [int(6 * table[size][0]) for size in range(1, m)]
        best6 = 2 * (m * m - 1)  # the star's value
        best_trees = []
        best_codes = set()
        for d in range(1, m):
            base6 = d * (2 * m + 1) + m - 1
            if base6 > best6:
                break  # grows with d, so no larger degree can win
            for part in _fixed_part_partitions(m - 1, d):
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
                    for tree in combine_forests(part, [table[size][1] for size in part]):
                        code = canonical_code(tree)
                        if code not in best_codes:
                            best_codes.add(code)
                            best_trees.append(tree)
        table[m] = (Fraction(best6, 6), tuple(best_trees))
    return {m: table[m] for m in range(1, n + 1)}


def oracle_segment_offsets(tree, z, rng):
    """The projective sampler's segment offsets by one sort of all segments.

    Draws the same keys as ``arrangement._segment_offsets`` (rows of 2n - 1
    uniform 64-bit integers), sorts each row by block and then by key, and
    drops the rows where two neighbours in that order share both block and
    key, drawing more rows until z are left.  It then takes exclusive prefix
    sums of the sorted lengths and shifts each block back to start at 0.
    Returns the same ``(kids, offsets)`` pair, so equal generator states
    must give equal matrices.
    """
    n = tree.n
    parent = tree.parent_array
    size = tree.size_array
    kids = np.flatnonzero(parent)
    m = 2 * n - 1
    block = np.concatenate((np.arange(1, n + 1), parent[kids]))
    length = np.concatenate((np.ones(n, dtype=np.int64), size[kids]))
    rows = []
    while len(rows) < z:
        keys = rng.integers(0, 2**64, size=(z - len(rows), m), dtype=np.uint64)
        perm = np.lexsort((keys, np.broadcast_to(block, keys.shape)))
        ranked = np.take_along_axis(keys, perm, axis=1)
        tie = (ranked[:, 1:] == ranked[:, :-1]) & (block[perm[:, 1:]] == block[perm[:, :-1]])
        rows.extend(p for p, tied in zip(perm, tie.any(axis=1)) if not tied)
    perm = np.array(rows).reshape(z, m)
    placed = length[perm]
    offset = np.cumsum(placed, axis=1) - placed
    # Block v holds size[v] positions, so the exclusive prefix sums of its
    # d_v + 1 segments start at the total size of the blocks before it.
    offset -= np.repeat(np.cumsum(size[1:]) - size[1:], tree.out_degree_array[1:] + 1)
    out = np.empty_like(offset)
    out[np.arange(z)[:, None], perm] = offset
    return kids, out


def oracle_decimal_rows(rows, end):
    """The text of ``projlin sample``: each row's ids in decimal, separated
    by " ", and the row followed by ``end``."""
    return "".join(" ".join(map(str, row)) + end for row in rows)


class NarrowKeys(np.random.Generator):
    """A PCG64 generator whose ``integers`` keeps only the top bits.

    Each value still takes one 64-bit word of the stream, as the sampler's
    full-range ``uint64`` keys do, but lies in 0..2**bits - 1, so equal
    keys inside a block are common and the sampler's redraw of tied rows
    runs often.  ``rows`` counts the rows of keys drawn so far and
    ``calls`` the calls that drew them.
    """

    def __init__(self, seed, bits):
        super().__init__(np.random.PCG64(seed))
        self.shift = np.uint64(64 - bits)
        self.rows = 0
        self.calls = 0

    def integers(self, *args, **kwargs):
        keys = super().integers(*args, **kwargs)
        self.rows += len(keys)
        self.calls += 1
        return keys >> self.shift
