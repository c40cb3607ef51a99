"""Monte Carlo estimation of the projective expectation, with error stats.

The estimator averages the total edge length over z independent uniform
projective arrangements, drawn by the same sampler as
:func:`projlin.arrangement.sample_projective`: the estimate from a seed
is exactly the mean edge-length sum of z successive ``sample_projective``
draws from ``numpy.random.default_rng(seed)``.  It needs no positions,
only each segment's offset inside its block, taken for many draws at once:
every draw gives each segment a uniform 64-bit key and orders each block
by key, and a draw in which two segments of one block share a key is
dropped and replaced by the next draw of the stream.

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
from .tree import RootedTree, _check_seed, _generator

# Keep each sampled offset matrix around 32 MB regardless of tree size.
_CHUNK_CELLS = 4_000_000

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


def estimate_expected_sum(tree: RootedTree, z: int, seed: int) -> MCEstimate:
    """Mean total edge length over z uniform projective samples.

    Deterministic given the seed, which must be a non-negative int.  A
    sample draws one uniform 64-bit key per segment and costs O(n) for the
    blocks of up to ``arrangement._PAIRWISE_MAX_SEGMENTS`` segments, which
    compare their segments' keys pairwise, plus O(k log k) to sort each
    larger block of k segments; the rare sample with two equal keys in one
    block is redrawn.  The per-sample sums are integers, so the
    accumulation is exact and only the final division produces a float.
    """
    if z < 1:
        raise OutOfRange(f"z must be positive, got {z}")
    rng = _generator(seed)
    n = tree.n
    if n == 1:
        return MCEstimate(z, 0.0, seed)
    chunk = max(1, min(z, _CHUNK_CELLS // (2 * n - 1)))
    total = 0
    remaining = z
    while remaining:
        batch = min(remaining, chunk)
        kids, offset = _segment_offsets(tree, batch, rng)
        # Edge (p, c) has length |seg(c) + own(c) - own(p)|: c's segment
        # offset in block p, c's own offset in block c, p's in block p.
        lengths = offset[:, n:]
        lengths += offset[:, kids - 1]
        lengths -= offset[:, tree.parent_array[kids] - 1]
        np.abs(lengths, out=lengths)
        total += int(lengths.sum())
        del offset, lengths  # free this chunk before the next is drawn
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
        raise ValueError("no error records to aggregate")
    tail = 100 * (1 - CONFIDENCE) / 2
    out = []
    for n in sorted(grouped):
        data = np.asarray(grouped[n], dtype=np.float64)
        rng = np.random.default_rng([seed, n])
        # Rows drawn a block at a time are the rows one (resamples, size)
        # draw would give, so the block size does not change the interval.
        rows = max(1, _BOOTSTRAP_CELLS // data.size)
        means = np.empty(resamples)
        for start in range(0, resamples, rows):
            indices = rng.integers(0, data.size, size=(min(rows, resamples - start), data.size))
            means[start : start + rows] = data[indices].mean(axis=1)
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

