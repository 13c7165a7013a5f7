"""Normalized overhead metrics comparing a candidate run against a baseline.

Overhead Factor is the per-layer latency ratio candidate/baseline at a given
percentile.  The combined factor merges the two crypto-sensitive layers
(TCP-to-TLS delay and TLS handshake).  The Cryptographic Overhead Share
expresses their excess latency as a percentage of total connection time.
Glass's delta divides a latency difference by the baseline's standard
deviation and is classified by Cohen's conventional thresholds.
"""

from __future__ import annotations

from typing import NamedTuple

from tlslayers.errors import ZeroBaseline, ZeroBaselineSD, ZeroDenominator

# Cohen's thresholds on |delta|
NEGLIGIBLE_BELOW = 0.2
LARGE_ABOVE = 0.8

CLASS_NEGLIGIBLE = "negligible"
CLASS_SMALL_TO_MEDIUM = "small_to_medium"
CLASS_LARGE = "large"


class EffectSize(NamedTuple):
    delta: float
    classification: str


def classify_effect(delta: float) -> str:
    mag = abs(delta)
    if mag < NEGLIGIBLE_BELOW:
        return CLASS_NEGLIGIBLE
    if mag <= LARGE_ABOVE:
        return CLASS_SMALL_TO_MEDIUM
    return CLASS_LARGE


def overhead_factor(l_candidate: float, l_baseline: float) -> float:
    if l_baseline <= 0:
        raise ZeroBaseline(f"baseline layer latency must be positive, got {l_baseline}")
    return l_candidate / l_baseline


def combined_overhead_factor(
    tcp2tls_candidate: float,
    tls_candidate: float,
    tcp2tls_baseline: float,
    tls_baseline: float,
) -> float:
    denom = tcp2tls_baseline + tls_baseline
    if denom <= 0:
        raise ZeroBaseline(f"baseline layer sum must be positive, got {denom}")
    return (tcp2tls_candidate + tls_candidate) / denom


def cryptographic_overhead_share(
    tcp2tls_candidate: float,
    tls_candidate: float,
    tcp2tls_baseline: float,
    tls_baseline: float,
    e2e_denominator: float,
) -> float:
    """Excess latency of the two crypto-sensitive layers as % of total time.

    The denominator is the candidate run's end-to-end time; callers choose
    whether that is the sum of same-percentile layer values or the measured
    per-connection e2e percentile (see documents.COS_MODE_*).
    """
    if e2e_denominator <= 0:
        raise ZeroDenominator(f"e2e denominator must be positive, got {e2e_denominator}")
    excess = (tcp2tls_candidate - tcp2tls_baseline) + (tls_candidate - tls_baseline)
    return 100.0 * excess / e2e_denominator


def glass_delta(value_candidate: float, value_baseline: float, sd_baseline: float) -> EffectSize:
    if sd_baseline <= 0:
        raise ZeroBaselineSD(f"baseline SD must be positive, got {sd_baseline}")
    delta = (value_candidate - value_baseline) / sd_baseline
    return EffectSize(delta=delta, classification=classify_effect(delta))


def relative_e2e_overhead(e2e_candidate: float, e2e_baseline: float) -> float:
    if e2e_baseline <= 0:
        raise ZeroBaseline(f"baseline e2e must be positive, got {e2e_baseline}")
    return 100.0 * (e2e_candidate - e2e_baseline) / e2e_baseline
