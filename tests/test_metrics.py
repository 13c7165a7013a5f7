"""Overhead and effect-size metrics against the published reference values."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tlslayers.errors import ZeroBaseline, ZeroBaselineSD, ZeroDenominator
from tlslayers.metrics import (
    classify_effect,
    combined_overhead_factor,
    cryptographic_overhead_share,
    glass_delta,
    overhead_factor,
    relative_e2e_overhead,
)


def test_overhead_factor_reference_values():
    assert overhead_factor(1.866, 0.294) == pytest.approx(6.35, abs=0.005)
    assert overhead_factor(5.879, 5.547) == pytest.approx(1.06, abs=0.005)


def test_overhead_factor_identity():
    for x in (0.001, 1.0, 123.456):
        assert overhead_factor(x, x) == 1.0


def test_overhead_factor_zero_baseline():
    with pytest.raises(ZeroBaseline):
        overhead_factor(1.0, 0.0)


def test_combined_overhead_reference_values():
    assert combined_overhead_factor(1.866, 5.879, 0.294, 5.547) == pytest.approx(1.33, abs=0.005)
    assert combined_overhead_factor(1.903, 6.495, 0.294, 5.547) == pytest.approx(1.44, abs=0.005)


def test_combined_overhead_identity():
    assert combined_overhead_factor(0.3, 5.5, 0.3, 5.5) == 1.0


@pytest.mark.parametrize("tcp2tls_baseline, tls_baseline", [(0.0, 0.0), (0.5, -1.0)], ids=["zero", "negative"])
def test_combined_overhead_zero_baseline(tcp2tls_baseline, tls_baseline):
    with pytest.raises(ZeroBaseline):
        combined_overhead_factor(1.0, 1.0, tcp2tls_baseline, tls_baseline)


def test_cos_reference_values():
    # hybrid-512 p50: excess 1.904 ms over an 18.006 ms layer-sum denominator
    denom = 0.390 + 1.866 + 5.879 + 0.991 + 8.880
    cos = cryptographic_overhead_share(1.866, 5.879, 0.294, 5.547, denom)
    assert cos == pytest.approx(10.6, abs=0.05)

    denom = 0.381 + 1.726 + 5.253 + 0.897 + 9.087
    cos = cryptographic_overhead_share(1.726, 5.253, 0.294, 5.547, denom)
    assert cos == pytest.approx(6.6, abs=0.05)


def test_cos_identity_and_zero_denominator():
    assert cryptographic_overhead_share(0.3, 5.5, 0.3, 5.5, 16.0) == 0.0
    with pytest.raises(ZeroDenominator):
        cryptographic_overhead_share(1, 1, 1, 1, 0.0)


def test_glass_delta_reference_values():
    es = glass_delta(0.402, 0.360, 0.248)
    assert es.delta == pytest.approx(0.17, abs=0.005)
    assert es.classification == "negligible"

    es = glass_delta(6.495, 5.547, 2.893)
    assert es.delta == pytest.approx(0.33, abs=0.005)
    assert es.classification == "small_to_medium"

    es = glass_delta(1.004, 0.526, 0.389)
    assert es.delta == pytest.approx(1.23, abs=0.005)
    assert es.classification == "large"


def test_glass_delta_zero_sd():
    with pytest.raises(ZeroBaselineSD):
        glass_delta(1.0, 1.0, 0.0)


def test_classification_thresholds():
    assert classify_effect(0.19999) == "negligible"
    assert classify_effect(0.2) == "small_to_medium"
    assert classify_effect(0.8) == "small_to_medium"
    assert classify_effect(0.80001) == "large"
    assert classify_effect(-0.5) == "small_to_medium"


@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_classification_is_a_partition(delta):
    matches = [
        abs(delta) < 0.2,
        0.2 <= abs(delta) <= 0.8,
        abs(delta) > 0.8,
    ]
    assert sum(matches) == 1
    assert classify_effect(delta) == ("negligible", "small_to_medium", "large")[matches.index(True)]


@given(
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=0.01, max_value=10),
    st.floats(min_value=0.01, max_value=50),
)
def test_glass_delta_scale_invariant(a, b, sd, c):
    es1 = glass_delta(a, b, sd)
    es2 = glass_delta(c * a, c * b, c * sd)
    assert es2.delta == pytest.approx(es1.delta, rel=1e-9, abs=1e-12)


def test_relative_e2e_reference_values():
    assert relative_e2e_overhead(20.26, 16.54) == pytest.approx(22.5, abs=0.1)
    assert relative_e2e_overhead(18.92, 16.54) == pytest.approx(14.4, abs=0.1)
    assert relative_e2e_overhead(7.5, 7.5) == 0.0
    with pytest.raises(ZeroBaseline):
        relative_e2e_overhead(1.0, 0.0)
