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
    RootedTree,
    build_tree,
    canonical_code,
    combine_forests,
    random_tree,
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
