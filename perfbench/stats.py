"""Sample statistics and the answer checker shared by every stage."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.transfer import exact_total_guarantee

#: Transfer scale of the Cor. 5.3 envelope (``certify``'s default).
ENVELOPE_K = 4.0
#: Multiplicative allowance for q-compressed payloads (``certify``'s
#: default: sqrt of the largest q-compression base, 1.4).
COMPRESSION_SLACK = 1.4 ** 0.5
#: Samples a reported percentile leaves above it.
TAIL_SAMPLES = 10
#: Times each stage sets itself up; ``setup_s`` sums the medians.
SETUP_REPEATS = 3


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100), linear interpolation."""
    if len(samples) == 0:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), p))


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def sliced_percentile(slices: Sequence[Sequence[float]], p: float) -> float:
    """Median over the non-empty ``slices`` of each slice's ``p``-th
    percentile: a tail latency that one slow spell of the machine, landing
    on one slice, cannot set for the whole run."""
    return median([percentile(samples, p) for samples in slices if len(samples)])


def samples_needed(p: float) -> int:
    """Fewest samples that leave ``TAIL_SAMPLES`` above the ``p``-th
    percentile (e.g. 100 for p90, 1000 for p99)."""
    if not 0.0 < p < 100.0:
        raise ValueError("p must be in (0, 100)")
    return math.ceil(TAIL_SAMPLES * 100.0 / (100.0 - p) - 1e-9)


def envelope_violations(estimates: np.ndarray, truths: np.ndarray, theta: float, q: float) -> np.ndarray:
    """Mask of answers outside the Cor. 5.3 envelope of a (θ, q) histogram.

    A histogram whose buckets are θ,q-acceptable answers every range
    within ``q' = 2q/(k-2) + 1`` of the truth (``k = ENVELOPE_K``),
    unless both the truth and the estimate are at most ``θ' = kθ``;
    packed payloads add ``COMPRESSION_SLACK``.  This is the test
    ``repro.experiments.validate.certify`` applies per query, vectorized.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    theta_out, q_bound = exact_total_guarantee(theta, q, ENVELOPE_K)
    guarded = (truths > theta_out) | (estimates > theta_out)
    bad = ~np.isfinite(estimates) | (estimates < 0)
    lo = np.maximum(np.minimum(estimates, truths), 1e-300)
    hi = np.maximum(estimates, truths)
    bad |= guarded & (hi / lo > q_bound * COMPRESSION_SLACK * (1 + 1e-9))
    return bad


def exact_violations(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Mask of answers from exact-count statistics that are not exact."""
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    return ~(np.abs(estimates - truths) <= 1e-6 * np.maximum(truths, 1.0))


def true_counts(values: np.ndarray, cumulative: np.ndarray, lows, highs) -> np.ndarray:
    """Exact cardinalities of value ranges ``[low, high)`` from a
    column's sorted distinct values and exclusive prefix sums."""
    c1 = np.searchsorted(values, np.asarray(lows), side="left")
    c2 = np.maximum(np.searchsorted(values, np.asarray(highs), side="left"), c1)
    return (cumulative[c2] - cumulative[c1]).astype(np.float64)
