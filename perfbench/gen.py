"""Seeded benchmark inputs, built without importing projlin.

Every generator takes an integer seed and returns text; the same seed gives
byte-identical text.  Trees are head vectors: entry i is the parent of
vertex i + 1, with 0 marking the root.
"""

from __future__ import annotations

import random

import numpy as np


def prufer_parents(seq: list[int], n: int) -> list[int]:
    """Decode a Pruefer sequence over 1..n into parent links rooted at n.

    Each removed leaf is attached to the sequence entry that removed it, so
    orienting every edge away from vertex n needs no second pass.  Returns a
    list of length n + 1 with ``parents[n] == 0`` (index 0 unused).
    """
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    parents = [0] * (n + 1)
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        parents[leaf] = x
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    parents[leaf] = n
    return parents


def reroot(parents: list[int], root: int) -> None:
    """Make ``root`` the root by reversing the links on its path to the old root."""
    prev, v = 0, root
    while v:
        nxt = parents[v]
        parents[v] = prev
        prev, v = v, nxt


def random_heads(n: int, rng: np.random.Generator) -> list[int]:
    """Uniformly random labeled rooted tree on 1..n as a head list.

    A uniform Pruefer sequence gives a uniform labeled free tree; rooting it
    at an independently uniform vertex makes the rooted tree uniform.
    """
    if n == 1:
        return [0]
    seq = rng.integers(1, n + 1, size=n - 2).tolist()
    parents = prufer_parents(seq, n)
    reroot(parents, int(rng.integers(1, n + 1)))
    return parents[1:]


def path_heads(n: int, rng: np.random.Generator) -> list[int]:
    """The path on 1..n rooted at one end, with seeded vertex labels."""
    order = (rng.permutation(n) + 1).tolist()
    heads = [0] * n
    for prev, v in zip(order, order[1:]):
        heads[v - 1] = prev
    return heads


def head_text(heads: list[int]) -> str:
    return " ".join(map(str, heads)) + "\n"


def _projective_relabel(heads: list[int], rng: random.Random) -> list[int]:
    """Relabel a tree so that ids 1..n read left to right form a uniformly
    random projective arrangement of it (each vertex and its child subtrees
    shuffled as blocks)."""
    n = len(heads)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    root = 0
    for v, h in enumerate(heads, start=1):
        if h:
            children[h].append(v)
        else:
            root = v
    sequence: list[int] = []
    stack: list[int] = [root]
    while stack:
        item = stack.pop()
        if item < 0:
            sequence.append(-item)
            continue
        blocks = [-item] + children[item]
        rng.shuffle(blocks)
        stack.extend(reversed(blocks))
    new_id = [0] * (n + 1)
    for position, v in enumerate(sequence, start=1):
        new_id[v] = position
    relabeled = [0] * n
    for v, h in enumerate(heads, start=1):
        relabeled[new_id[v] - 1] = new_id[h] if h else 0
    return relabeled


# Sentence sizes cover 3..40 words evenly, the range of the corpus on which
# analyze was first timed.  The Monte Carlo cost goes as the sum of n * z,
# so the size mix decides what corpus_mc measures; a skewed mix would need a
# published length distribution to ground it, and none is cited here.  The
# sizes are dealt round-robin and then shuffled, not drawn independently, so
# that every seed gives the same multiset of sizes and the same cost: drawn
# sizes would move the sum of n by several per cent from seed to seed.
MIN_WORDS, MAX_WORDS = 3, 40

# Share of valid sentences relabeled so that their surface order is
# projective.  A coverage choice, not a corpus statistic: half keeps both
# values of the projective flag common.
PROJECTIVE_SHARE = 0.5

# Share of sentences with one multiword-token range line; a coverage choice.
MULTIWORD_SHARE = 0.05

# Share of sentences written with a defect that makes projlin skip them, so
# that the skip path runs; a coverage choice.  check.DEFECTS maps
# each kind to projlin's skip reason.
INVALID_SHARE = 0.03
INVALID_KINDS = ("two_roots", "cycle", "dangling_head")


def corpus_text(sentences: int, seed: int) -> tuple[str, dict]:
    """A synthetic CoNLL-U corpus and a manifest of what it holds.

    Valid sentences are uniformly random labeled trees of MIN_WORDS to
    MAX_WORDS vertices; a PROJECTIVE_SHARE of them is relabeled so that the
    surface order is projective.  The sizes, and the number of sentences of
    each kind, are fixed by ``sentences``; the seed decides the trees and
    which sentence is which.  The manifest lists, per sentence, its id, its
    size, its head vector (None when the sentence is invalid) and, for
    invalid ones, the defect kind.
    """
    rng = random.Random(seed)
    np_rng = np.random.default_rng(rng.getrandbits(64))
    span = MAX_WORDS - MIN_WORDS + 1
    sizes = [MIN_WORDS + index % span for index in range(sentences)]
    rng.shuffle(sizes)
    invalid = sorted(rng.sample(range(sentences), round(INVALID_SHARE * sentences)))
    kinds = {index: INVALID_KINDS[k % len(INVALID_KINDS)] for k, index in enumerate(invalid)}
    valid = [index for index in range(sentences) if index not in kinds]
    projective = set(rng.sample(valid, round(PROJECTIVE_SHARE * len(valid))))
    multiword = set(rng.sample(range(sentences), round(MULTIWORD_SHARE * sentences)))
    lines: list[str] = []
    manifest: list[dict] = []
    for index, n in enumerate(sizes):
        heads = random_heads(n, np_rng)
        if index in projective:
            heads = _projective_relabel(heads, rng)
        sent_id = f"bench-{seed}-{index}"
        kind = kinds.get(index)
        if kind:
            heads = _corrupt(heads, kind, rng)
        manifest.append({"id": sent_id, "n": n, "heads": None if kind else heads, "kind": kind})
        words = [f"w{index}x{i}" for i in range(1, n + 1)]
        lines.append(f"# sent_id = {sent_id}")
        lines.append("# text = " + " ".join(words))
        mwt_at = rng.randrange(1, n) if index in multiword else 0
        for i, (word, head) in enumerate(zip(words, heads), start=1):
            if i == mwt_at:
                lines.append(f"{i}-{i + 1}\t{word}{i + 1}\t_\t_\t_\t_\t_\t_\t_\t_")
            deprel = "root" if head == 0 else "dep"
            lines.append(f"{i}\t{word}\t{word}\tNOUN\t_\t_\t{head}\t{deprel}\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n", {"sentences": manifest}


def _corrupt(heads: list[int], kind: str, rng: random.Random) -> list[int]:
    heads = list(heads)
    n = len(heads)
    if kind == "two_roots":
        heads[rng.choice([v for v in range(n) if heads[v]])] = 0
    elif kind == "cycle":
        # point an internal non-root vertex at one of its own children
        parents_of_children = {h for h in heads if h}
        inner = [v for v in range(1, n + 1) if heads[v - 1] and v in parents_of_children]
        if inner:
            v = rng.choice(inner)
            heads[v - 1] = next(c for c in range(1, n + 1) if heads[c - 1] == v)
        else:  # a star rooted at its hub: join two leaves into a 2-cycle
            a, b = rng.sample([v for v in range(1, n + 1) if heads[v - 1]], 2)
            heads[a - 1], heads[b - 1] = b, a
    else:
        heads[rng.choice([v for v in range(n) if heads[v]])] = n + 1 + rng.randrange(5)
    return heads

