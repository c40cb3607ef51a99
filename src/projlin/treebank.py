"""CoNLL-U ingestion and the per-sentence analysis pipeline.

The parser turns each sentence into its id and a rooted tree over its
word tokens (multiword ranges and empty nodes are dropped, ids compacted
to 1..n, the tree built from the compacted head vector), so the surface
token order is the identity arrangement of that tree.  Of a token line
only the id, the head and whether the UPOS is PUNCT outlive the line.
Sentences that do not form a valid tree are reported as skip records with
a reason instead of aborting the stream, since real treebanks contain
annotation errors.

The analysis step computes, per sentence, the observed edge-length sums
under both definitions (in the identity arrangement the standard sum is
the sum of |v - head(v)| over the non-root vertices, and the minus-one
sum is that less n - 1), whether that arrangement is projective, the
exact projective expectation, the number of projective arrangements, and
seeded Monte Carlo estimates with their relative errors for each
requested sample count.

Sentences are analyzed in blocks of ``_BLOCK_SENTENCES`` consecutive
accepted ones, each laid out as one forest (``tree._forest``).  The exact
expectations are per-edge terms of the forest's arrays summed over each
sentence's edges, the observed sums and projectivity flags come from one
identity row of positions through the row kernels of ``arrangement``
(``_edge_length_sums`` and ``_projective_rows``), and the Monte Carlo
columns come from one draw-loop call per (block, z), seeded from the
(block index, z index), so results do not depend on scheduling and the
blocks can be spread over a process pool.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from ._digits import exact_str
from .arrangement import _edge_length_sums, _forest_totals, _projective_rows, count_projective
from .errors import OutOfRange, ProjlinError, _integer, _iterable
from .expectation import _closed_numerators
from .montecarlo import ErrorStats, aggregate_errors, relative_error
from .tree import RootedTree, _forest, tree_from_heads

# Sentences drawn together as one forest.  On the benchmark's 200-sentence
# corpus at z = 10, 100 and 1000, 8 to 32 timed alike and 16 best; larger
# forests leave the cache at z = 1000 (see arrangement._CHUNK_CELLS).
_BLOCK_SENTENCES = 16


@dataclass(frozen=True)
class TreebankSentence:
    """One parsed sentence: its id and the tree of its word tokens, whose
    vertices are the tokens' compacted ids in surface order."""

    sentence_id: str
    tree: RootedTree


@dataclass(frozen=True)
class SkipRecord:
    """A sentence that was rejected, and why."""

    sentence_id: str
    reason: str


@dataclass(frozen=True)
class SentenceAnalysis:
    """Per-sentence results; ``estimates`` maps z to (estimate, relative error)."""

    sentence_id: str
    n: int
    observed_standard: int
    observed_minus_one: int
    projective: bool
    arrangement_count: int
    exact: Fraction
    estimates: tuple[tuple[int, float, float | None], ...]


@dataclass(frozen=True)
class TreebankReport:
    sentences: tuple[SentenceAnalysis, ...]
    error_stats: dict[int, list[ErrorStats]]
    skips: dict[str, int]


def _finish_sentence(
    tokens: list[tuple[int, int, bool]],
    failure: str | None,
    sentence_id: str,
    filter_punct: bool,
) -> TreebankSentence | SkipRecord:
    if failure is not None:
        return SkipRecord(sentence_id, failure)
    if filter_punct:
        tokens = [t for t in tokens if not t[2]]
    if not tokens:
        return SkipRecord(sentence_id, "no word tokens")
    remap = {orig: i for i, (orig, _, _) in enumerate(tokens, start=1)}
    if len(remap) != len(tokens):
        return SkipRecord(sentence_id, "duplicate token id")
    roots = sum(1 for _, head, _ in tokens if head == 0)
    if not roots:
        return SkipRecord(sentence_id, "no root token")
    if roots > 1:
        return SkipRecord(sentence_id, "multiple root tokens")
    heads = []
    for _, head, _ in tokens:
        if head and head not in remap:
            reason = "head refers to a removed token" if filter_punct else "head refers to a missing token"
            return SkipRecord(sentence_id, reason)
        heads.append(remap[head] if head else 0)
    try:
        tree = tree_from_heads(heads)
    except ProjlinError as exc:
        return SkipRecord(sentence_id, type(exc).__name__)
    return TreebankSentence(sentence_id, tree)


def parse_conllu(
    lines: Iterable[str], filter_punct: bool = False
) -> Iterator[TreebankSentence | SkipRecord]:
    """Parse CoNLL-U text into sentences, one record per sentence.

    Each sentence becomes a :class:`TreebankSentence`, its ``sent_id``
    (or its number in the stream, from 1) and its tree, or a
    :class:`SkipRecord`.  ``lines`` is any iterable of text lines (an
    open file works).  Token lines must have 10 tab-separated columns; a
    malformed line rejects its sentence but never the stream.  Multiword
    ranges (ids with '-') and empty nodes (ids with '.') are dropped;
    heads come from column 7 and UPOS from column 4, and no other column
    is kept.
    With ``filter_punct`` set, tokens whose UPOS is PUNCT are removed and
    ids compacted; sentences whose remaining heads point at a removed
    token are skipped with that reason.  ``lines`` that is not iterable or
    is one ``str`` or ``bytes`` raises OutOfRange at the call, a line that
    is not a ``str`` when it is reached.
    """
    if isinstance(lines, (str, bytes)):
        raise OutOfRange("lines must be text lines, not one string: pass an open file or text.splitlines()")
    return _parse_lines(_iterable(lines, "lines", "text lines"), filter_punct)


def _parse_lines(lines: Iterable[str], filter_punct: bool) -> Iterator[TreebankSentence | SkipRecord]:
    tokens: list[tuple[int, int, bool]] = []  # (id, head, is PUNCT) per word token
    failure: str | None = None
    sent_id: str | None = None
    seen_any = False
    count = 0

    for raw in lines:
        if not isinstance(raw, str):
            raise OutOfRange(f"lines must hold text lines, got {raw!r}")
        line = raw.rstrip("\r\n")
        if not line.strip():
            if seen_any:
                count += 1
                yield _finish_sentence(tokens, failure, sent_id or str(count), filter_punct)
                tokens, failure, sent_id, seen_any = [], None, None, False
            continue
        seen_any = True
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            if key.strip() == "sent_id":
                sent_id = value.strip()
            continue
        if failure is not None:
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            failure = f"MalformedLine: expected 10 columns, got {len(cols)}"
            continue
        token_id = cols[0]
        if "-" in token_id or "." in token_id:
            continue  # multiword ranges and empty nodes carry no tree edge
        try:
            orig = int(token_id)
            head = int(cols[6])
        except ValueError:
            failure = f"MalformedLine: non-numeric id or head ({token_id!r}, {cols[6]!r})"
            continue
        if orig < 1 or head < 0:
            failure = f"MalformedLine: id or head out of range ({orig}, {head})"
            continue
        tokens.append((orig, head, cols[3] == "PUNCT"))

    if seen_any:
        count += 1
        yield _finish_sentence(tokens, failure, sent_id or str(count), filter_punct)


def _derived_seed(seed: int, index: int, which: int) -> int:
    entropy = np.random.SeedSequence([seed, index, which])
    return int(entropy.generate_state(1, np.uint64)[0])


def _analyze_block(
    payload: tuple[int, tuple[TreebankSentence, ...], tuple[int, ...], int]
) -> tuple[SentenceAnalysis, ...]:
    """The analyses of one block of sentences, drawn as one forest; the
    observed columns are those of the identity row of positions."""
    index, sentences, z_values, seed = payload
    forest = _forest([sentence.tree for sentence in sentences])
    identity = np.arange(1, forest.n + 1)[None]
    exact = [Fraction(numerator, 6) for numerator in _closed_numerators(forest)]
    observed = _edge_length_sums(forest, identity)[:, 0].tolist()
    projective = _projective_rows(forest, identity)[:, 0].tolist()
    estimates = []  # per z, one (z, estimate, relative error) per sentence
    for which, z in enumerate(z_values):
        rng = np.random.default_rng(_derived_seed(seed, index, which))
        means = [total / z for total in _forest_totals(forest, z, rng)]
        estimates.append(
            [(z, m, relative_error(m, e) if e > 0 else None) for m, e in zip(means, exact)]
        )
    return tuple(
        SentenceAnalysis(
            sentence_id=sentence.sentence_id,
            n=sentence.tree.n,
            observed_standard=observed[i],
            observed_minus_one=observed[i] - (sentence.tree.n - 1),
            projective=projective[i],
            arrangement_count=count_projective(sentence.tree),
            exact=exact[i],
            estimates=tuple(by_z[i] for by_z in estimates),
        )
        for i, sentence in enumerate(sentences)
    )


def analyze_treebank(
    sentences: Iterable[TreebankSentence | SkipRecord],
    z_values: Sequence[int],
    seed: int = 0,
    jobs: int = 1,
) -> TreebankReport:
    """Run the full per-sentence analysis over a parsed sentence stream.

    Skip records are tallied by reason.  The accepted sentences are
    analyzed in blocks of ``_BLOCK_SENTENCES``, each drawn as one forest,
    and ``jobs`` processes share out the blocks.  Monte Carlo seeds are
    derived per (block index, z index), so any ``jobs`` value produces
    identical numbers, and a sentence's estimates depend only on the
    sentences of its own block.  Error statistics exclude single-vertex
    sentences, whose exact expectation is zero.  A seed, ``jobs`` or z value
    that is not an integer, a negative seed, ``jobs`` or a z value below 1,
    ``sentences`` or ``z_values`` not iterable, an item of ``sentences``
    that is neither a skip record nor a sentence whose tree is a
    RootedTree, an empty ``z_values`` or a z value given twice raises
    OutOfRange.
    """
    seed = _integer(seed, "seed", 0)
    jobs = _integer(jobs, "jobs", 1)
    z_values = tuple(_integer(z, "z", 1) for z in _iterable(z_values, "z_values", "positive integers"))
    if not z_values:
        raise OutOfRange("z_values must be nonempty")
    if len(set(z_values)) != len(z_values):
        raise OutOfRange(f"z values must be distinct, got {', '.join(map(str, z_values))}")
    skips: dict[str, int] = {}
    accepted: list[TreebankSentence] = []
    for item in _iterable(sentences, "sentences", "sentences and skip records"):
        if isinstance(item, SkipRecord):
            skips[item.reason] = skips.get(item.reason, 0) + 1
        elif isinstance(item, TreebankSentence) and isinstance(item.tree, RootedTree):
            accepted.append(item)
        else:
            raise OutOfRange(f"sentences must hold skip records and sentences with a RootedTree, got {item!r}")

    payloads = [
        (index, tuple(accepted[start : start + _BLOCK_SENTENCES]), z_values, seed)
        for index, start in enumerate(range(0, len(accepted), _BLOCK_SENTENCES))
    ]
    if jobs > 1 and len(payloads) > 1:
        # imported here: concurrent.futures brings in multiprocessing,
        # logging, socket and more, which a one-process run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            blocks = list(pool.map(_analyze_block, payloads))
    else:
        blocks = [_analyze_block(p) for p in payloads]
    analyses = tuple(analysis for block in blocks for analysis in block)

    error_stats: dict[int, list[ErrorStats]] = {}
    for which, z in enumerate(z_values):
        records = [
            (a.n, a.estimates[which][2])
            for a in analyses
            if a.estimates[which][2] is not None
        ]
        error_stats[z] = aggregate_errors(records, seed=seed) if records else []
    return TreebankReport(analyses, error_stats, skips)


def write_sentence_csv(report: TreebankReport, fp: IO[str]) -> None:
    """Per-sentence rows, one per (sentence, z); exact values as fractions,
    arrangement counts with all their digits."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(
        [
            "sentence_id",
            "n",
            "z",
            "observed_sum_standard",
            "observed_sum_minus_one",
            "projective",
            "projective_arrangements",
            "exact_expected_sum",
            "mc_estimate",
            "relative_error",
        ]
    )
    for a in report.sentences:
        for z, estimate, err in a.estimates:
            writer.writerow(
                [
                    a.sentence_id,
                    a.n,
                    z,
                    a.observed_standard,
                    a.observed_minus_one,
                    "true" if a.projective else "false",
                    exact_str(a.arrangement_count),
                    str(a.exact),
                    repr(estimate),
                    "" if err is None else repr(err),
                ]
            )


def write_summary_csv(report: TreebankReport, fp: IO[str]) -> None:
    """Per-(z, tree size) error summaries with bootstrap intervals."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["z", "n", "count", "mean_err", "ci_low", "ci_high", "min_err", "max_err"])
    for z in sorted(report.error_stats):
        for s in report.error_stats[z]:
            writer.writerow(
                [
                    z,
                    s.n,
                    s.samples,
                    repr(s.mean_err),
                    repr(s.ci_low),
                    repr(s.ci_high),
                    repr(s.min_err),
                    repr(s.max_err),
                ]
            )
