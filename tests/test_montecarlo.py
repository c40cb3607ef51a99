"""Monte Carlo estimator, relative errors, and bootstrap aggregation."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from projlin import (
    OutOfRange,
    ZeroExact,
    aggregate_errors,
    build_tree,
    count_projective,
    enumerate_projective,
    estimate_expected_sum,
    expected_sum_projective,
    make_class,
    parse_head_vector,
    random_tree,
    relative_error,
    sample_projective,
    sum_edge_lengths,
)
from projlin import montecarlo
from helpers import caterpillar


def test_estimate_trivial_trees():
    single = build_tree(1, [], 1)
    assert estimate_expected_sum(single, 50, 3).mean == 0.0
    pair = parse_head_vector("0 1")
    est = estimate_expected_sum(pair, 1000, 4)
    assert est.mean == 1.0  # both arrangements cost exactly 1
    assert est.z == 1000 and est.seed == 4


def test_estimate_close_to_exact_star():
    est = estimate_expected_sum(make_class("star_hub", 5), 100000, 12)
    assert abs(est.mean - 8) < 0.05  # about 9.5 standard errors wide


def test_estimate_deterministic():
    t = random_tree(14, 2)
    a = estimate_expected_sum(t, 5000, 99)
    b = estimate_expected_sum(t, 5000, 99)
    assert a == b
    assert estimate_expected_sum(t, 5000, 100).mean != a.mean


def test_estimate_z_validation():
    with pytest.raises(OutOfRange):
        estimate_expected_sum(parse_head_vector("0 1"), 0, 1)


def test_estimate_matches_enumeration_distribution():
    # chi-square of single-draw estimates (each one draw's edge-length sum)
    # against the exact distribution of sums over the enumerated
    # arrangements of a 5-vertex tree, then the mean of many draws
    t = parse_head_vector("0 1 1 2")
    sums = {}
    for a in enumerate_projective(t):
        s = sum_edge_lengths(t, a)
        sums[s] = sums.get(s, 0) + 1
    total = count_projective(t)
    draws = 20000
    observed = dict.fromkeys(sums, 0)
    for seed in range(draws):
        observed[int(estimate_expected_sum(t, 1, seed).mean)] += 1
    assert sum(observed.values()) == draws  # no sum outside the support
    expected = [draws * sums[s] / total for s in sums]
    assert chisquare(list(observed.values()), expected).pvalue > 1e-3
    exact_mean = expected_sum_projective(t)
    est = estimate_expected_sum(t, 200000, 31)
    assert abs(est.mean - float(exact_mean)) < 0.02


@pytest.mark.parametrize("chunk_rows", [None, 3], ids=["one_chunk", "several_chunks"])
def test_estimate_is_the_mean_of_sampler_draws(monkeypatch, chunk_rows):
    # the estimator draws exactly what z successive sample_projective calls
    # on one generator draw, also when z is split over several chunks
    rng = np.random.default_rng(404)
    for _ in range(125):
        n = int(rng.integers(2, 61))
        z = int(rng.integers(1, 31))
        seed = int(rng.integers(2**32))
        t = random_tree(n, rng)
        if chunk_rows:
            monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", chunk_rows * (2 * n - 1))
        draws = np.random.default_rng(seed)
        total = sum(sum_edge_lengths(t, sample_projective(t, draws)) for _ in range(z))
        assert estimate_expected_sum(t, z, seed).mean == total / z


@pytest.mark.parametrize("chunk_rows", [None, 3], ids=["one_chunk", "several_chunks"])
def test_estimate_is_the_mean_of_sampler_draws_on_stars_and_caterpillars(monkeypatch, chunk_rows):
    # the same identity on blocks of many segments, which the random trees
    # above rarely have: stars up to 60 leaves, caterpillars with many legs
    rng = np.random.default_rng(405)
    trees = [make_class("star_hub", leaves + 1) for leaves in (1, 2, 5, 7, 8, 9, 20, 60)]
    trees += [caterpillar(spine, legs) for spine, legs in ((3, 2), (4, 6), (5, 7), (2, 9), (6, 15))]
    for t in trees:
        z = int(rng.integers(1, 31))
        seed = int(rng.integers(2**32))
        if chunk_rows:
            monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", chunk_rows * (2 * t.n - 1))
        draws = np.random.default_rng(seed)
        total = sum(sum_edge_lengths(t, sample_projective(t, draws)) for _ in range(z))
        assert estimate_expected_sum(t, z, seed).mean == total / z


def test_estimate_converges_on_random_trees():
    rng = np.random.default_rng(6)
    for _ in range(10):
        t = random_tree(10, rng)
        exact = expected_sum_projective(t)
        est = estimate_expected_sum(t, 10**6, int(rng.integers(2**32)))
        assert abs(relative_error(est.mean, exact)) < 0.01


def test_relative_error_arithmetic():
    assert relative_error(8.0, Fraction(8)) == 0
    assert abs(relative_error(8.4, Fraction(8)) - 0.05) < 1e-12
    assert abs(relative_error(7.6, Fraction(8)) + 0.05) < 1e-12
    with pytest.raises(ZeroExact):
        relative_error(1.0, Fraction(0))


def test_relative_error_antisymmetric():
    exact = Fraction(19, 3)
    for delta in (0.01, 0.5, 3.25):
        plus = relative_error(float(exact) + delta, exact)
        minus = relative_error(float(exact) - delta, exact)
        assert plus == pytest.approx(-minus, abs=1e-15)


def test_aggregate_single_and_pair():
    stats = aggregate_errors([(5, 0.1)])
    assert len(stats) == 1
    s = stats[0]
    assert s.n == 5 and s.samples == 1
    assert s.mean_err == s.min_err == s.max_err == 0.1
    assert s.ci_low == s.ci_high == 0.1

    stats = aggregate_errors([(5, -0.1), (5, 0.1)])
    s = stats[0]
    assert s.mean_err == 0 and s.min_err == -0.1 and s.max_err == 0.1
    assert s.ci_low <= s.mean_err <= s.ci_high


def test_aggregate_groups_and_determinism():
    records = [(4, 0.1), (7, -0.2), (4, 0.3), (7, 0.0), (7, 0.2)]
    first = aggregate_errors(records, seed=5)
    second = aggregate_errors(records, seed=5)
    assert first == second
    assert [s.n for s in first] == [4, 7]
    assert first[0].samples == 2 and first[1].samples == 3
    with pytest.raises(ValueError):
        aggregate_errors([])


@pytest.mark.parametrize("cells", [1, 7, 250])
def test_bootstrap_blocks_do_not_change_the_interval(monkeypatch, cells):
    # a cell budget that splits the (resamples, size) index matrix into
    # blocks of rows, down to one row a block, gives the same statistics
    rng = np.random.default_rng(8)
    records = [(int(n), float(e)) for n, e in zip(rng.integers(3, 9, 400), rng.normal(0, 0.1, 400))]
    records += [(40, 0.25)]
    whole = aggregate_errors(records, resamples=301, seed=3)
    monkeypatch.setattr(montecarlo, "_BOOTSTRAP_CELLS", cells)
    assert aggregate_errors(records, resamples=301, seed=3) == whole


def test_bootstrap_coverage():
    # 1000 replications of aggregating 1000 records from a known normal
    # spread: the 99% interval should contain the true mean nearly always
    rng = np.random.default_rng(424242)
    true_mean = 0.05
    hits = 0
    for rep in range(1000):
        data = rng.normal(true_mean, 0.02, size=1000)
        stats = aggregate_errors([(10, float(e)) for e in data], resamples=1000, seed=rep)
        if stats[0].ci_low <= true_mean <= stats[0].ci_high:
            hits += 1
    assert hits >= 985

