"""Statistics against an independent numpy oracle plus invariant properties."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlslayers.errors import EmptySamples
from tlslayers.stats import mean, percentile, sample_sd, summarize


def test_singleton_percentile_any_p():
    for p in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert percentile([5.0], p) == 5.0


def test_four_point_median_interpolates():
    assert percentile([1, 2, 3, 4], 0.5) == pytest.approx(2.5, abs=1e-15)


def test_percentile_matches_sort_interpolate_oracle():
    rng = random.Random(123)
    samples = [rng.uniform(0, 100) for _ in range(1000)]
    arr = np.array(samples)
    for p in (0.5, 0.9, 0.95, 0.99):
        ours = percentile(samples, p)
        oracle = float(np.percentile(arr, p * 100))
        assert ours == pytest.approx(oracle, rel=1e-12)


def test_constant_samples():
    s = summarize([2.0, 2.0, 2.0])
    assert s.mean == 2.0
    assert s.sd == 0.0
    assert s.p50 == s.p95 == s.p99 == 2.0


def test_three_point_sd_uses_n_minus_1():
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == pytest.approx(2.0)
    assert s.sd == pytest.approx(1.0)


def test_summarize_matches_numpy_oracle():
    rng = random.Random(7)
    samples = [rng.gauss(10, 3) for _ in range(500)]
    s = summarize(samples)
    arr = np.array(samples)
    assert s.mean == pytest.approx(float(np.mean(arr)), rel=1e-12)
    assert s.sd == pytest.approx(float(np.std(arr, ddof=1)), rel=1e-12)
    assert s.min == float(np.min(arr))
    assert s.max == float(np.max(arr))
    for field, p in (("p50", 50), ("p90", 90), ("p95", 95), ("p99", 99)):
        assert getattr(s, field) == pytest.approx(float(np.percentile(arr, p)), rel=1e-12)


def test_empty_inputs_raise():
    with pytest.raises(EmptySamples):
        percentile([], 0.5)
    with pytest.raises(EmptySamples):
        summarize([])
    with pytest.raises(EmptySamples):
        mean([])
    with pytest.raises(EmptySamples):
        sample_sd([])


def test_percentile_fraction_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_percentile_monotone_in_p(samples, p, q):
    lo, hi = min(p, q), max(p, q)
    assert percentile(samples, lo) <= percentile(samples, hi) + 1e-9


@given(
    st.lists(st.floats(min_value=0.001, max_value=1e5, allow_nan=False), min_size=2, max_size=40),
    st.floats(min_value=0.01, max_value=1000),
)
@example(samples=[146.25] * 3, c=299.04738376944783)
@settings(max_examples=100)
def test_scale_equivariance(samples, c):
    scaled = [c * x for x in samples]
    for p in (0.5, 0.95):
        assert percentile(scaled, p) == pytest.approx(c * percentile(samples, p), rel=1e-9)
    assert sample_sd(scaled) == pytest.approx(c * sample_sd(samples), rel=1e-9, abs=1e-12)


def test_batch_partition_independence():
    # statistics come from the full sample multiset, not partial summaries
    rng = random.Random(99)
    samples = [rng.expovariate(0.1) for _ in range(333)]
    shuffled = samples[:]
    rng.shuffle(shuffled)
    merged = shuffled[:100] + shuffled[100:250] + shuffled[250:]
    assert summarize(merged) == summarize(samples)
