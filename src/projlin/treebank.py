"""CoNLL-U ingestion and the per-sentence analysis pipeline.

The parser turns each sentence into a rooted tree over its word tokens
(multiword ranges and empty nodes are dropped, ids compacted to 1..n, the
tree built from the compacted head vector), so the surface token order
is the identity arrangement of that tree.
Sentences that do not form a valid tree are reported as skip records with
a reason instead of aborting the stream, since real treebanks contain
annotation errors.

The analysis step computes, per sentence, the observed edge-length sums
under both definitions (in the identity arrangement the standard sum is
the sum of |v - head(v)| over the parent array, and the minus-one sum is
that less n - 1), the exact projective expectation, the number of
projective arrangements, and seeded Monte Carlo estimates with their
relative errors for each requested sample count.  Seeds are derived from
the sentence index, so results do not depend on scheduling and the work
can be spread over a process pool.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._digits import exact_str
from .arrangement import LinearArrangement, count_projective, is_projective
from .errors import OutOfRange, ProjlinError
from .expectation import expected_sum_projective
from .montecarlo import ErrorStats, aggregate_errors, estimate_expected_sum, relative_error
from .tree import RootedTree, _check_seed, tree_from_heads


class Token(NamedTuple):
    id: int
    form: str
    head: int


@dataclass(frozen=True)
class TreebankSentence:
    """One parsed sentence: tokens with compacted ids (in surface order) and tree."""

    sentence_id: str
    tokens: tuple[Token, ...]
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
    tokens: list[tuple[int, str, int, str]],
    failure: str | None,
    sentence_id: str,
    filter_punct: bool,
) -> TreebankSentence | SkipRecord:
    if failure is not None:
        return SkipRecord(sentence_id, failure)
    if filter_punct:
        tokens = [t for t in tokens if t[3] != "PUNCT"]
    if not tokens:
        return SkipRecord(sentence_id, "no word tokens")
    remap = {orig: i for i, (orig, _, _, _) in enumerate(tokens, start=1)}
    if len(remap) != len(tokens):
        return SkipRecord(sentence_id, "duplicate token id")
    roots = sum(1 for _, _, head, _ in tokens if head == 0)
    if not roots:
        return SkipRecord(sentence_id, "no root token")
    if roots > 1:
        return SkipRecord(sentence_id, "multiple root tokens")
    heads = []
    compacted = []
    for orig, form, head, _ in tokens:
        if head and head not in remap:
            reason = "head refers to a removed token" if filter_punct else "head refers to a missing token"
            return SkipRecord(sentence_id, reason)
        heads.append(remap[head] if head else 0)
        compacted.append(Token(remap[orig], form, heads[-1]))
    try:
        tree = tree_from_heads(heads)
    except ProjlinError as exc:
        return SkipRecord(sentence_id, type(exc).__name__)
    return TreebankSentence(sentence_id, tuple(compacted), tree)


def parse_conllu(
    lines: Iterable[str], filter_punct: bool = False
) -> Iterator[TreebankSentence | SkipRecord]:
    """Parse CoNLL-U text into sentences, one record per sentence.

    ``lines`` is any iterable of text lines (an open file works).  Token
    lines must have 10 tab-separated columns; a malformed line rejects its
    sentence but never the stream.  Multiword ranges (ids with '-') and
    empty nodes (ids with '.') are dropped; heads come from column 7.
    With ``filter_punct`` set, tokens whose UPOS is PUNCT are removed and
    ids compacted; sentences whose remaining heads point at a removed
    token are skipped with that reason.
    """
    tokens: list[tuple[int, str, int, str]] = []
    failure: str | None = None
    sent_id: str | None = None
    seen_any = False
    count = 0

    for raw in lines:
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
        tokens.append((orig, cols[1], head, cols[3]))

    if seen_any:
        count += 1
        yield _finish_sentence(tokens, failure, sent_id or str(count), filter_punct)


def _derived_seed(seed: int, index: int, which: int) -> int:
    entropy = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, index, which])
    return int(entropy.generate_state(1, np.uint64)[0])


def _analyze_one(
    payload: tuple[int, TreebankSentence, tuple[int, ...], int]
) -> SentenceAnalysis:
    index, sentence, z_values, seed = payload
    tree = sentence.tree
    n = tree.n
    kids = np.flatnonzero(tree.parent_array)
    observed = int(np.abs(kids - tree.parent_array[kids]).sum())
    exact = expected_sum_projective(tree)
    estimates = []
    for which, z in enumerate(z_values):
        estimate = estimate_expected_sum(tree, z, _derived_seed(seed, index, which))
        err = relative_error(estimate.mean, exact) if exact > 0 else None
        estimates.append((z, estimate.mean, err))
    return SentenceAnalysis(
        sentence_id=sentence.sentence_id,
        n=n,
        observed_standard=observed,
        observed_minus_one=observed - (n - 1),
        projective=is_projective(tree, LinearArrangement.identity(n)),
        arrangement_count=count_projective(tree),
        exact=exact,
        estimates=tuple(estimates),
    )


def analyze_treebank(
    sentences: Iterable[TreebankSentence | SkipRecord],
    z_values: Sequence[int],
    seed: int = 0,
    jobs: int = 1,
) -> TreebankReport:
    """Run the full per-sentence analysis over a parsed sentence stream.

    Skip records are tallied by reason.  Monte Carlo seeds are derived per
    (sentence index, z index), so any ``jobs`` value produces identical
    numbers.  Error statistics exclude single-vertex sentences, whose
    exact expectation is zero.  A negative seed, ``jobs`` below 1, an
    empty ``z_values`` or a z value given twice raises OutOfRange.
    """
    _check_seed(seed)
    if jobs < 1:
        raise OutOfRange(f"jobs must be at least 1, got {jobs}")
    z_values = tuple(int(z) for z in z_values)
    if not z_values:
        raise OutOfRange("z_values must be nonempty")
    if len(set(z_values)) != len(z_values):
        raise OutOfRange(f"z values must be distinct, got {', '.join(map(str, z_values))}")
    skips: dict[str, int] = {}
    accepted: list[TreebankSentence] = []
    for item in sentences:
        if isinstance(item, SkipRecord):
            skips[item.reason] = skips.get(item.reason, 0) + 1
        else:
            accepted.append(item)

    payloads = [(i, sentence, z_values, seed) for i, sentence in enumerate(accepted)]
    if jobs > 1 and len(payloads) > 1:
        # imported here: concurrent.futures brings in multiprocessing,
        # logging, socket and more, which a one-process run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            analyses = tuple(pool.map(_analyze_one, payloads, chunksize=16))
    else:
        analyses = tuple(_analyze_one(p) for p in payloads)

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
