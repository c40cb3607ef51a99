"""Monte Carlo estimation of the projective expectation, with error stats.

The estimator averages the total edge length over z independent uniform
projective arrangements.  It runs the same segment-shuffling construction
as :func:`projlin.arrangement.sample_projective`, but vectorized across
samples: per vertex, z random permutations of its d_v + 1 segments are
drawn at once (argsort of iid uniforms) and the position intervals are
assigned in bulk.  The per-sample distribution is identical; only the
generator consumption differs.

Relative errors of estimates against exact values are aggregated per tree
size with percentile-bootstrap confidence intervals, matching the usual
presentation of such error studies (mean, min, max, and a 99% band).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import OutOfRange, ZeroExact
from .tree import RootedTree

# Keep each sampled position matrix around 32 MB regardless of tree size.
_CHUNK_CELLS = 4_000_000


@dataclass(frozen=True)
class MCEstimate:
    """A seeded Monte Carlo estimate from z samples."""

    z: int
    mean: float
    seed: int


@dataclass(frozen=True)
class ErrorStats:
    """Relative-error summary for one tree size."""

    n: int
    samples: int
    mean_err: float
    min_err: float
    max_err: float
    ci_low: float
    ci_high: float


def _sample_positions(
    tree: RootedTree,
    z: int,
    rng: np.random.Generator,
    segment_sizes: list[np.ndarray | None],
) -> np.ndarray:
    """Positions of z independent uniform projective arrangements.

    Returns an int64 array of shape (z, n + 1); column v holds the
    position of vertex v (column 0 unused).
    """
    n = tree.n
    children = tree.children
    pos = np.empty((z, n + 1), dtype=np.int64)
    start = np.zeros((z, n + 1), dtype=np.int64)
    start[:, tree.root] = 1
    for v in tree.order:
        kids = children[v]
        if not kids:
            pos[:, v] = start[:, v]
            continue
        sizes = segment_sizes[v]
        arity = len(kids) + 1
        perm = np.argsort(rng.random((z, arity)), axis=1)
        placed = sizes[perm]
        offsets = np.cumsum(placed, axis=1) - placed
        segment_offset = np.empty_like(offsets)
        np.put_along_axis(segment_offset, perm, offsets, axis=1)
        absolute = start[:, v, None] + segment_offset
        pos[:, v] = absolute[:, 0]
        for j, child in enumerate(kids):
            start[:, child] = absolute[:, j + 1]
    return pos


def estimate_expected_sum(tree: RootedTree, z: int, seed: int) -> MCEstimate:
    """Mean total edge length over z uniform projective samples.

    Deterministic given the seed; cost O(z n).  The per-sample sums are
    integers, so the accumulation is exact and only the final division
    produces a float.
    """
    if z < 1:
        raise OutOfRange(f"z must be positive, got {z}")
    n = tree.n
    if n == 1:
        return MCEstimate(z, 0.0, seed)
    rng = np.random.default_rng(seed)
    size = tree.size_array.tolist()
    children = tree.children
    segment_sizes: list[np.ndarray | None] = [None] * (n + 1)
    for v in tree.order:
        kids = children[v]
        if kids:
            segment_sizes[v] = np.array([1] + [size[c] for c in kids], dtype=np.int64)
    vertices = np.fromiter(tree.order[1:], dtype=np.int64, count=n - 1)
    parents = tree.parent_array[vertices]

    chunk = max(1, min(z, _CHUNK_CELLS // (n + 1)))
    total = 0
    remaining = z
    while remaining:
        batch = min(remaining, chunk)
        pos = _sample_positions(tree, batch, rng, segment_sizes)
        lengths = np.abs(pos[:, vertices] - pos[:, parents]).sum(axis=1)
        total += int(lengths.sum())
        remaining -= batch
    return MCEstimate(z, total / z, seed)


def relative_error(estimate: float, exact: Fraction | int) -> float:
    """Signed relative deviation of an estimate from the exact value.

    Computed as (estimate - exact) / exact, so a positive value means the
    estimate came out above the exact expectation.
    """
    if exact <= 0:
        raise ZeroExact("relative error needs a positive exact value")
    reference = float(exact)
    return (estimate - reference) / reference


def aggregate_errors(
    records: Iterable[tuple[int, float]],
    resamples: int = 1000,
    seed: int = 0,
    confidence: float = 0.99,
) -> list[ErrorStats]:
    """Group (tree size, relative error) records and summarize per size.

    The confidence interval of the mean is a seeded percentile bootstrap
    with the given number of resamples; a single record yields the
    degenerate interval at its own value.
    """
    grouped: dict[int, list[float]] = {}
    for n, err in records:
        grouped.setdefault(n, []).append(err)
    if not grouped:
        raise ValueError("no error records to aggregate")
    if not 0 < confidence < 1:
        raise OutOfRange(f"confidence must be in (0, 1), got {confidence}")
    tail = 100 * (1 - confidence) / 2
    out = []
    for n in sorted(grouped):
        data = np.asarray(grouped[n], dtype=np.float64)
        rng = np.random.default_rng([seed, n])
        indices = rng.integers(0, data.size, size=(resamples, data.size))
        means = data[indices].mean(axis=1)
        low, high = np.percentile(means, [tail, 100 - tail])
        out.append(
            ErrorStats(
                n=n,
                samples=data.size,
                mean_err=float(data.mean()),
                min_err=float(data.min()),
                max_err=float(data.max()),
                ci_low=float(low),
                ci_high=float(high),
            )
        )
    return out


def write_error_stats_csv(stats: Sequence[ErrorStats], fp: IO[str]) -> None:
    """Write per-size error summaries as plot-ready CSV."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["n", "count", "mean_err", "ci_low", "ci_high", "min_err", "max_err"])
    for s in stats:
        writer.writerow(
            [s.n, s.samples, repr(s.mean_err), repr(s.ci_low), repr(s.ci_high), repr(s.min_err), repr(s.max_err)]
        )
