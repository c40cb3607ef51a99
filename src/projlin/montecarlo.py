"""Monte Carlo estimation of the projective expectation, with error stats.

The estimator averages the total edge length over z independent uniform
projective arrangements from the one draw loop of ``projlin.arrangement``,
which also feeds ``sample_projective`` and ``projlin sample``: the
estimate from a seed is exactly the mean edge-length sum of z successive
``sample_projective`` draws from ``numpy.random.default_rng(seed)``.

Relative errors of estimates against exact values are aggregated per tree
size with percentile-bootstrap confidence intervals, matching the usual
presentation of such error studies (mean, min, max, and a 99% band).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .arrangement import _forest_totals
from .errors import OutOfRange, ZeroExact, _integer, _iterable
from .tree import RootedTree

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
    block is redrawn.  The tree is the one-tree forest of
    :func:`projlin.arrangement._forest_totals`: samples arrive in chunks of
    bounded memory, and their sums are integers, so the accumulation is
    exact and only the final division produces a float.
    """
    z = _integer(z, "z", 1)
    seed = _integer(seed, "seed", 0)
    (total,) = _forest_totals(tree, z, np.random.default_rng(seed))
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


def _percentile(rows: np.ndarray, q: float) -> np.ndarray:
    """The q-th percentile of each sorted row, by numpy's default "linear"
    rule, with the bits ``np.percentile`` gives (which, in numpy 2, imports
    ``numpy.ma`` through ``np.unique`` on its first call).

    The rank v = (count - 1) q / 100 splits into i = floor(v) and g = v - i,
    and a and b are the values at i and i + 1; past the last index numpy
    takes the last value for both, at index -1, so g = v + 1 there.  The
    result is a + (b - a) g for g < 0.5 and b - (b - a)(1 - g) otherwise.
    Where a row holds both -0.0 and 0.0, which of them sorts first is
    unspecified, so the sign of a zero bound may differ.
    """
    count = rows.shape[1]
    rank = (count - 1) * (q / 100)
    if rank < count - 1:
        i = math.floor(rank)
        below, above, gamma = rows[:, i], rows[:, i + 1], rank - i
    else:
        below = above = rows[:, -1]
        gamma = rank + 1
    step = above - below
    return below + step * gamma if gamma < 0.5 else above - step * (1 - gamma)


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
    stays bounded however many records share one size.  A negative seed,
    fewer than one resample, or a record that is not a pair of a positive
    integer and a finite number raises OutOfRange.
    """
    seed = _integer(seed, "seed", 0)
    resamples = _integer(resamples, "resamples", 1)
    grouped: dict[int, list[float]] = {}
    for record in _iterable(records, "records", "(tree size, relative error) pairs"):
        try:
            n, err = record
            err = float(err)
            if not math.isfinite(err):
                raise ValueError
        except (TypeError, ValueError):
            raise OutOfRange(f"records must hold (tree size, finite error) pairs, got {record!r}") from None
        grouped.setdefault(_integer(n, "a tree size in records", 1), []).append(err)
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
    means.sort(axis=1)
    low, high = (_percentile(means, q).tolist() for q in (tail, 100 - tail))
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
