"""Summary statistics with the benchmark's sample-size rule.

A tail percentile is reported only when at least :data:`MIN_TAIL`
samples lie beyond it, so ``p90`` needs 100 samples.  Fewer samples
raise :class:`TooFewSamples` instead of printing a number that one
outlier decides.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(q: int) -> int:
    """Smallest sample count for which the ``q``-th percentile has
    :data:`MIN_TAIL` samples beyond it."""
    if not 50 < q < 100:
        raise ValueError(f"tail percentile must lie in (50, 100), got {q}")
    return math.ceil(MIN_TAIL * 100 / (100 - q))


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile of ``values`` (``50 < q < 100``).

    Interpolates between closest ranks (``statistics.quantiles``,
    inclusive method).  Raises :class:`TooFewSamples` below
    :func:`min_samples`.
    """
    need = min_samples(q)
    if len(values) < need:
        raise TooFewSamples(
            f"p{q} needs at least {need} samples, got {len(values)}"
        )
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: Sequence[float]) -> float:
    """The median; raises :class:`TooFewSamples` on no samples."""
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The steadiness measure the benchmark is held to: quartiles from
    ``statistics.quantiles(values, n=4)`` (exclusive method).
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
