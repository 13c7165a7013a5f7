"""Descriptive statistics over per-connection latency samples.

All statistics are computed from the full retained sample multiset after a
deterministic sort; there is no streaming sketch, so results are independent
of the order in which samples arrive.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from tlslayers.errors import EmptySamples

PERCENTILE_FIELDS = ("p50", "p90", "p95", "p99")


def percentile(samples: Sequence[float], p: float) -> float:
    """Percentile by linear interpolation between closest ranks.

    Position h = (n-1)*p on the sorted sample; the result interpolates
    between x[floor(h)] and x[floor(h)+1].
    """
    if not samples:
        raise EmptySamples("percentile of empty sample set")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"percentile fraction out of range: {p}")
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return float(xs[0])
    h = (n - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return float(xs[lo] + (h - lo) * (xs[hi] - xs[lo]))


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise EmptySamples("mean of empty sample set")
    return math.fsum(samples) / len(samples)


def sample_sd(samples: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0.0 for a singleton.

    Deviations are taken from the first sample, so that equal samples give
    exactly 0.0 (a mean of equal floats need not round back to them).
    """
    if not samples:
        raise EmptySamples("sd of empty sample set")
    n = len(samples)
    if n == 1:
        return 0.0
    shifted = [x - samples[0] for x in samples]
    m = math.fsum(shifted) / n
    return math.sqrt(math.fsum((d - m) ** 2 for d in shifted) / (n - 1))


class LayerStatistics(NamedTuple):
    count: int
    mean: float
    p50: float
    p90: float
    p95: float
    p99: float
    min: float
    max: float
    sd: float

    def as_dict(self) -> dict:
        return self._asdict()


STAT_FIELDS = LayerStatistics._fields


def summarize(samples: Iterable[float]) -> LayerStatistics:
    xs = sorted(samples)
    if not xs:
        raise EmptySamples("summarize of empty sample set")
    return LayerStatistics(
        count=len(xs),
        mean=mean(xs),
        p50=percentile(xs, 0.50),
        p90=percentile(xs, 0.90),
        p95=percentile(xs, 0.95),
        p99=percentile(xs, 0.99),
        min=float(xs[0]),
        max=float(xs[-1]),
        sd=sample_sd(xs),
    )
