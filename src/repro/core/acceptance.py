"""θ,q-acceptability tests for candidate buckets (paper Sec. 4.1-4.4).

All tests operate on a *dense* index range ``[l, u)`` of an
:class:`~repro.core.density.AttributeDensity` with the ``f̂avg``
estimator of that range (or an explicit α).  The ladder of tests:

* :func:`quadratic_test` -- the Theorem 4.1 discretised test: check every
  index pair.  O(n^2); the correctness oracle for everything else.
* :func:`pretest_dense` -- Theorem 4.3's O(n) pretest for dense buckets.
* :func:`subquadratic_test` -- Sec. 4.2's early-exit test: per left
  endpoint, only the window between the θ-boundary and the kθ-boundary
  needs explicit checks; beyond it Theorem 4.2 guarantees
  θ,(q + 1/k)-acceptability.
* :func:`is_theta_q_acceptable` -- the Sec. 4.4 combined test
  (pretest, then MaxSize cut-off, then sub-quadratic), the decision the
  generate-and-test construction's acceptance oracle
  (:mod:`repro.core.search`) reproduces.

The combined test runs its sub-quadratic stage through the batch kernel
of :mod:`repro.core.kernels`; the per-endpoint loops below
(:func:`subquadratic_test` and the paper-literal
:func:`subquadratic_test_literal`) are the references the kernels are
tested against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.density import AttributeDensity
from repro.core.kernels import subquadratic_test_vectorized

__all__ = [
    "quadratic_test",
    "pretest_dense",
    "subquadratic_test",
    "subquadratic_test_literal",
    "subquadratic_test_vectorized",
    "is_theta_q_acceptable",
    "MAX_SUBQUADRATIC_SIZE",
]

# The paper's MaxSize: the combined test refuses to run the sub-quadratic
# test on buckets with more distinct values than this (Sec. 4.4).
MAX_SUBQUADRATIC_SIZE = 300


def _alpha_for(density: AttributeDensity, l: int, u: int) -> float:
    """The f̂avg slope on ``[l, u)``: average frequency of the range."""
    return density.f_plus(l, u) / (u - l)


def quadratic_test(
    density: AttributeDensity,
    l: int,
    u: int,
    theta: float,
    q: float,
    alpha: Optional[float] = None,
) -> bool:
    """Theorem 4.1 on a dense domain: check every index pair in ``[l, u]``.

    With integer query endpoints and a dense domain the continuous-domain
    discretisation collapses to checking all ``l <= i < j <= u``; the
    estimate for ``[i, j)`` is ``alpha * (j - i)``.
    """
    if not 0 <= l < u <= density.n_distinct:
        raise IndexError(f"bucket [{l}, {u}) out of range")
    if alpha is None:
        alpha = _alpha_for(density, l, u)
    cum = density.cumulative
    for i in range(l, u):
        widths = np.arange(1, u - i + 1, dtype=np.float64)
        truths = (cum[i + 1 : u + 1] - cum[i]).astype(np.float64)
        estimates = alpha * widths
        small = (truths <= theta) & (estimates <= theta)
        qacc = (truths <= q * estimates) & (estimates <= q * truths)
        if not np.all(small | qacc):
            return False
    return True


def pretest_dense(
    density: AttributeDensity,
    l: int,
    u: int,
    theta: float,
    q: float,
    flexible_alpha: bool = False,
    alpha: Optional[float] = None,
) -> bool:
    """Theorem 4.3: a cheap sufficient condition for dense buckets.

    Accepts when (1) the cumulated bucket frequency is at most θ, or (2)
    the frequencies are balanced enough:

    * with the flexibility of Eq. 1 (``flexible_alpha=True``):
      ``max_i f_i / min_i f_i <= q^2`` (guarantees an acceptable α
      *exists*, not that f̂avg in particular is acceptable);
    * for a fixed slope (``f̂avg`` by default, or an explicit ``alpha``):
      ``q alpha >= max_i f_i`` and ``alpha / q <= min_i f_i``.

    A *sufficient* test only: ``False`` means "run a real test", not
    "reject the bucket".
    """
    if not 0 <= l < u <= density.n_distinct:
        raise IndexError(f"bucket [{l}, {u}) out of range")
    total = density.f_plus(l, u)
    if total <= theta:
        return True
    fmax = density.max_frequency(l, u)
    fmin = density.min_frequency(l, u)
    if flexible_alpha:
        return fmax <= q * q * fmin
    if alpha is None:
        alpha = total / (u - l)
    return q * alpha >= fmax and alpha / q <= fmin


def subquadratic_test(
    density: AttributeDensity,
    l: int,
    u: int,
    theta: float,
    q: float,
    k: float = 8.0,
    alpha: Optional[float] = None,
) -> bool:
    """Sec. 4.2's early-exit acceptance test.

    For each left endpoint ``i``, ranges with both the truth and the
    estimate at most θ are acceptable by definition, and once both reach
    ``k * theta`` Theorem 4.2 guarantees the remaining ranges are
    θ,(q + 1/k)-acceptable.  Only the window in between needs explicit
    q-error checks.

    Passing this test therefore certifies θ,(q + 1/k)-acceptability; use
    a slightly reduced q (or a large ``k``) when an exact θ,q guarantee
    is required.
    """
    if not 0 <= l < u <= density.n_distinct:
        raise IndexError(f"bucket [{l}, {u}) out of range")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if alpha is None:
        alpha = _alpha_for(density, l, u)
    # One float64 view of the prefix sums and one width ramp serve every
    # left endpoint; the per-iteration slices below are views into them.
    cum = density.cumulative[l : u + 1].astype(np.float64)
    all_widths = np.arange(1, u - l + 1, dtype=np.float64)
    stop = k * theta
    for i in range(l, u):
        # Find the window of right endpoints where either side exceeds θ
        # but not both sides exceed kθ yet.
        truths = cum[i - l + 1 :] - cum[i - l]
        estimates = alpha * all_widths[: u - i]
        interesting = ~((truths <= theta) & (estimates <= theta))
        if not np.any(interesting):
            continue
        start = int(np.argmax(interesting))
        done = (truths >= stop) & (estimates >= stop)
        end = int(np.argmax(done)) + 1 if np.any(done) else truths.size
        window = slice(start, max(end, start))
        t = truths[window]
        e = estimates[window]
        small = (t <= theta) & (e <= theta)
        qacc = (t <= q * e) & (e <= q * t)
        if not np.all(small | qacc):
            return False
    return True


def is_theta_q_acceptable(
    density: AttributeDensity,
    l: int,
    u: int,
    theta: float,
    q: float,
    max_size: int = MAX_SUBQUADRATIC_SIZE,
    k: float = 8.0,
    flexible_alpha: bool = False,
    alpha: Optional[float] = None,
) -> bool:
    """The combined test of Sec. 4.4 (``isThetaQAcc``).

    1. Accept if the cheap dense pretest succeeds.
    2. Reject if the bucket holds more than ``max_size`` distinct values
       (the sub-quadratic test would be too expensive; the paper's
       MaxSize is 300).
    3. Otherwise decide by the sub-quadratic test.

    ``alpha`` overrides the f̂avg slope; the generate-and-test builder
    uses this for a domain-clamped trailing bucklet whose estimation
    slope is computed over the unclamped bucklet width.
    """
    if pretest_dense(density, l, u, theta, q, flexible_alpha=flexible_alpha, alpha=alpha):
        return True
    if (u - l) > max_size:
        return False
    return subquadratic_test_vectorized(density, l, u, theta, q, k=k, alpha=alpha)


def subquadratic_test_literal(
    density: AttributeDensity,
    l: int,
    u: int,
    theta: float,
    q: float,
    k: float = 8.0,
    alpha: Optional[float] = None,
) -> bool:
    """Sec. 4.2's test, implemented literally as the paper describes it.

    For each left endpoint ``i``: find ``i'`` -- the largest right
    endpoint whose truth *and* estimate stay at or below θ -- by binary
    search; then test successive extensions ``i' + 1, i' + 2, ...`` for
    q-acceptability, stopping once both the truth and the estimate reach
    ``k·θ`` (Theorem 4.2 then guarantees θ,(q + 1/k)-acceptability of
    everything further out).

    Semantically identical to :func:`subquadratic_test` (the
    numpy-windowed loop) and to
    :func:`~repro.core.kernels.subquadratic_test_vectorized` (the batch
    kernel used in production); kept as an executable rendering of the
    paper's prose and as the reference of the equivalence property
    tests.
    """
    if not 0 <= l < u <= density.n_distinct:
        raise IndexError(f"bucket [{l}, {u}) out of range")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if alpha is None:
        alpha = _alpha_for(density, l, u)
    cum = density.cumulative
    for i in range(l, u):
        # Binary search the largest j with f+(i, j) <= theta and
        # fhat(i, j) <= theta (conditions 1-3 of the i' definition).
        lo_j, hi_j = i, u  # invariant: condition holds at lo_j
        while hi_j - lo_j > 1:
            mid = (lo_j + hi_j) // 2
            truth = float(cum[mid] - cum[i])
            estimate = alpha * (mid - i)
            if truth <= theta and estimate <= theta:
                lo_j = mid
            else:
                hi_j = mid
        # Test extensions until both sides reach k*theta.
        j = lo_j + 1
        while j <= u:
            truth = float(cum[j] - cum[i])
            estimate = alpha * (j - i)
            if not (truth <= theta and estimate <= theta):
                if truth > q * estimate or estimate > q * truth:
                    return False
                if truth >= k * theta and estimate >= k * theta:
                    break
            j += 1
    return True
