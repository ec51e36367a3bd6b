"""Kernel ablation: vectorized vs scalar acceptance testing.

Times the Sec. 4.2 sub-quadratic acceptance test on one 50k-distinct
density -- the batch kernel of :mod:`repro.core.kernels` against the
per-left-endpoint scalar loop and the paper-literal rendering, both
kept as test references.

Expected shape: the vectorized kernel decides the same boolean at least
5x faster than the scalar loop (in practice orders of magnitude: one
``searchsorted`` pass replaces 50k Python iterations).  Construction
time end to end is pinned separately, in absolute milliseconds, by
``test_fig9_dict_construction.py::test_construction_time_floor``.
"""

import time

import numpy as np

from repro.core.acceptance import (
    subquadratic_test,
    subquadratic_test_literal,
    subquadratic_test_vectorized,
)
from repro.core.density import AttributeDensity
from repro.experiments.report import format_table

N_DISTINCT = 50_000


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_kernel_speedup(emit, benchmark):
    # A gently varying 50k-value density: the test must scan every left
    # endpoint (no early rejection), which is the scalar loops' worst
    # case and the representative cost inside FindLargest.
    rng = np.random.default_rng(7)
    freqs = rng.integers(80, 121, size=N_DISTINCT)
    density = AttributeDensity(freqs)
    theta, q = 32.0, 2.0

    t_vec, r_vec = _best_of(
        lambda: subquadratic_test_vectorized(density, 0, N_DISTINCT, theta, q),
        repeats=3,
    )
    t_scalar, r_scalar = _best_of(
        lambda: subquadratic_test(density, 0, N_DISTINCT, theta, q), repeats=1
    )
    t_literal, r_literal = _best_of(
        lambda: subquadratic_test_literal(density, 0, N_DISTINCT, theta, q), repeats=1
    )
    assert r_vec == r_scalar == r_literal  # decision equivalence on the way

    rows = [
        ["vectorized", f"{t_vec * 1e3:.2f}", "1.0"],
        ["literal (scalar loop)", f"{t_scalar * 1e3:.2f}", f"{t_scalar / t_vec:.1f}"],
        ["literal (paper prose)", f"{t_literal * 1e3:.2f}", f"{t_literal / t_vec:.1f}"],
    ]
    text = (
        f"sub-quadratic acceptance test, one {N_DISTINCT}-distinct-value "
        f"density (theta={theta:g}, q={q:g}, accepted={r_vec})\n"
        + format_table(["kernel", "ms", "x slower than vectorized"], rows)
    )

    emit("kernel_speedup", text)

    # The acceptance criterion: >= 5x on the 50k-value acceptance test.
    assert t_scalar / t_vec >= 5.0

    benchmark(lambda: subquadratic_test_vectorized(density, 0, N_DISTINCT, theta, q))
