"""Monte Carlo estimation of the projective expectation, with error stats.

The estimator averages the total edge length over z independent uniform
projective arrangements from the one draw loop,
:func:`projlin.arrangement._segment_offsets`, that also feeds
:func:`projlin.arrangement.sample_projective` and ``projlin sample``: the
estimate from a seed is exactly the mean edge-length sum of z successive
``sample_projective`` draws from ``numpy.random.default_rng(seed)``.  It
needs no positions, only each segment's offset inside its block.

There is one kernel, :func:`_edge_sums`, over a forest of trees laid end
to end (``tree._forest``): a ``RootedTree`` is the one-tree forest, and
the treebank pipeline draws a block of sentences at once, one draw-loop
call per (block, z).  A draw of a forest is one row of keys over all its
trees, so a tie in any tree redraws the row for every tree of the block.

Relative errors of estimates against exact values are aggregated per tree
size with percentile-bootstrap confidence intervals, matching the usual
presentation of such error studies (mean, min, max, and a 99% band).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .arrangement import _segment_offsets
from .errors import OutOfRange, ZeroExact
from .tree import RootedTree, _check_seed, _Forest, _generator

# Keep each block of bootstrap indices around 8 MB regardless of group size.
_BOOTSTRAP_CELLS = 1_000_000

# Coverage of the bootstrap interval of the mean relative error.
CONFIDENCE = 0.99


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


def _edge_sums(forest: RootedTree | _Forest, offsets: np.ndarray) -> np.ndarray:
    """Total edge length of every tree of the forest in every row of offsets.

    The Monte Carlo kernel: ``offsets`` is a chunk from
    :func:`projlin.arrangement._segment_offsets` of the forest, and the
    result a (rows, trees) int64 matrix.  Edge (p, c) has length
    |seg(c) + own(c) - own(p)|: c's segment offset in block p, c's own
    offset in block c, p's in block p.  The lengths are gathered from the
    segment-major ``offsets.T``, whole rows at a time, and stay int32; a
    tree's edges are one contiguous range of them, summed in int64 by
    ``np.add.reduceat``.  A one-vertex tree has none and sums to 0.
    """
    n = forest.n
    parent = forest.parent_array
    kids = np.flatnonzero(parent)
    sums = np.zeros((len(offsets), forest.starts.size), dtype=np.int64)
    if kids.size:
        columns = offsets.T
        lengths = columns[n:] + columns[kids - 1]
        lengths -= columns[parent[kids] - 1]
        np.abs(lengths, out=lengths)
        has_edges = np.diff(forest.starts, append=n) > 1
        first_edge = forest.starts - np.arange(forest.starts.size)
        sums[:, has_edges] = np.add.reduceat(lengths, first_edge[has_edges], axis=0, dtype=np.int64).T
    return sums


def _forest_totals(forest: RootedTree | _Forest, z: int, rng: np.random.Generator) -> list[int]:
    """Every tree's edge-length sum over z draws of the whole forest.

    The chunks' int64 column sums are added up as Python ints, so the
    totals are exact however large z grows.
    """
    totals = [0] * forest.starts.size
    for offsets in _segment_offsets(forest, z, rng):
        chunk = _edge_sums(forest, offsets).sum(axis=0).tolist()
        totals = [total + s for total, s in zip(totals, chunk)]
    return totals


def estimate_expected_sum(tree: RootedTree, z: int, seed: int) -> MCEstimate:
    """Mean total edge length over z uniform projective samples.

    Deterministic given the seed, which must be a non-negative int.  A
    sample draws one uniform 64-bit key per segment and costs O(n) for the
    blocks of up to ``arrangement._PAIRWISE_MAX_SEGMENTS`` segments, which
    compare their segments' keys pairwise, plus O(k log k) to sort each
    larger block of k segments; the rare sample with two equal keys in one
    block is redrawn.  The tree is the one-tree forest of
    :func:`_forest_totals`: samples arrive in chunks of bounded memory,
    and their sums are integers, so the accumulation is exact and only the
    final division produces a float.
    """
    if z < 1:
        raise OutOfRange(f"z must be positive, got {z}")
    (total,) = _forest_totals(tree, z, _generator(seed))
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
) -> list[ErrorStats]:
    """Group (tree size, relative error) records and summarize per size.

    The ``CONFIDENCE`` interval of the mean is a seeded percentile
    bootstrap with the given number of resamples; a single record yields
    the degenerate interval at its own value.  The resample indices are
    drawn in blocks of rows of about ``_BOOTSTRAP_CELLS`` cells, so memory
    stays bounded however many records share one size.  A negative seed
    raises OutOfRange.
    """
    _check_seed(seed)
    grouped: dict[int, list[float]] = {}
    for n, err in records:
        grouped.setdefault(n, []).append(err)
    if not grouped:
        raise OutOfRange("no error records to aggregate")
    tail = 100 * (1 - CONFIDENCE) / 2
    sizes = sorted(grouped)
    data = [np.asarray(grouped[n], dtype=np.float64) for n in sizes]
    means = np.empty((len(sizes), resamples))
    for n, values, row in zip(sizes, data, means):
        rng = np.random.default_rng([seed, n])
        # Rows drawn a block at a time are the rows one (resamples, size)
        # draw would give, so the block size does not change the interval.
        rows = max(1, _BOOTSTRAP_CELLS // values.size)
        for start in range(0, resamples, rows):
            indices = rng.integers(0, values.size, size=(min(rows, resamples - start), values.size))
            row[start : start + rows] = values[indices].mean(axis=1)
    # means is scratch, so the percentiles may partition it in place
    low, high = np.percentile(means, [tail, 100 - tail], axis=1, overwrite_input=True).tolist()
    return [
        ErrorStats(
            n=n,
            samples=values.size,
            mean_err=float(values.mean()),
            min_err=float(values.min()),
            max_err=float(values.max()),
            ci_low=lo,
            ci_high=hi,
        )
        for n, values, lo, hi in zip(sizes, data, low, high)
    ]
