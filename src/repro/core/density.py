"""Attribute densities: the input to histogram construction.

An attribute density is the sequence ``{(x_i, f_i)}`` of distinct values
and their frequencies (paper Sec. 2.2).  Two flavours matter:

* *dense* -- the values are the dictionary codes ``0 .. d-1`` themselves
  (every code occurs).  All dictionary-encoded histograms operate here.
* *non-dense* -- arbitrary strictly increasing numeric values with gaps,
  the domain of the value-based histograms (paper Sec. 8.3).

The class pre-computes an exclusive prefix-sum array so the cumulated
frequency ``f+(i, j)`` of any index range is O(1); every acceptance test
and construction algorithm leans on that.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["AttributeDensity", "DensityIndex"]


class DensityIndex:
    """Sparse range-max/min tables for O(1) acceptance oracles.

    Built once per :class:`AttributeDensity` (lazily, via
    :meth:`AttributeDensity.ensure_index`) and cached on the density.
    Its one reader is the generate-and-test search's acceptance oracle
    (:mod:`repro.core.search`), which needs range extrema; the
    incremental builders never build it.

    ``max_table`` / ``min_table`` hold one row per power-of-two window
    over the frequencies; the classic RMQ construction makes any range
    max/min two lookups.  Row ``k`` holds the extreme of windows
    ``[i, i + 2**k)``.  Row values are exact int64 extremes, so oracle
    decisions derived from them are bit-identical to slicing
    ``frequencies[i:j]``.
    """

    __slots__ = ("max_table", "min_table", "_max_lists", "_min_lists")

    #: Sparse-table rows at or below this window size also keep a plain
    #: Python list mirror for scalar-speed lookups; wider windows (rare:
    #: only the doubling ladder's large probes) read the numpy rows.
    SCALAR_LEVEL_WIDTH = 4096

    def __init__(self, frequencies: np.ndarray) -> None:
        n = int(frequencies.size)
        levels = max(n.bit_length() - 1, 0) + 1
        max_table = np.empty((levels, n), dtype=np.int64)
        min_table = np.empty((levels, n), dtype=np.int64)
        max_table[0] = frequencies
        min_table[0] = frequencies
        for k in range(1, levels):
            half = 1 << (k - 1)
            span = n - (1 << k) + 1
            np.maximum(
                max_table[k - 1, :span],
                max_table[k - 1, half : half + span],
                out=max_table[k, :span],
            )
            np.minimum(
                min_table[k - 1, :span],
                min_table[k - 1, half : half + span],
                out=min_table[k, :span],
            )
            # Pad the tail so no row holds uninitialised memory (padding
            # cells are never selected).
            max_table[k, span:] = max_table[k, span - 1] if span > 0 else 0
            min_table[k, span:] = min_table[k, span - 1] if span > 0 else 0
        max_table.setflags(write=False)
        min_table.setflags(write=False)
        self.max_table = max_table
        self.min_table = min_table
        scalar_levels = min(levels, self.SCALAR_LEVEL_WIDTH.bit_length())
        self._max_lists: List[List[int]] = [
            max_table[k].tolist() for k in range(scalar_levels)
        ]
        self._min_lists: List[List[int]] = [
            min_table[k].tolist() for k in range(scalar_levels)
        ]

    def range_max(self, i: int, j: int) -> int:
        """``max(frequencies[i:j])`` in O(1); ``j > i`` required."""
        k = int(j - i).bit_length() - 1
        left = j - (1 << k)
        if k < len(self._max_lists):
            row = self._max_lists[k]
            a, b = row[i], row[left]
        else:
            row = self.max_table[k]
            a, b = int(row[i]), int(row[left])
        return a if a >= b else b

    def range_min(self, i: int, j: int) -> int:
        """``min(frequencies[i:j])`` in O(1); ``j > i`` required."""
        k = int(j - i).bit_length() - 1
        left = j - (1 << k)
        if k < len(self._min_lists):
            row = self._min_lists[k]
            a, b = row[i], row[left]
        else:
            row = self.min_table[k]
            a, b = int(row[i]), int(row[left])
        return a if a <= b else b


class AttributeDensity:
    """Distinct values with frequencies, plus O(1) range sums.

    Index-space convention: all methods below address *indices into the
    distinct-value sequence*, not raw values.  ``f_plus(i, j)`` is the
    cumulated frequency of distinct values ``x_i .. x_{j-1}`` (half-open,
    like the paper's range queries).
    """

    def __init__(
        self, frequencies: Sequence[int], values: Optional[Sequence[float]] = None
    ) -> None:
        frequencies = np.asarray(frequencies, dtype=np.int64)
        if frequencies.ndim != 1 or frequencies.size == 0:
            raise ValueError("need a non-empty 1-d frequency array")
        if np.any(frequencies < 1):
            raise ValueError("every distinct value must occur at least once")
        if values is None:
            values = np.arange(frequencies.size, dtype=np.float64)
            dense = True
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != frequencies.shape:
                raise ValueError("values and frequencies must align")
            if values.size > 1 and np.any(np.diff(values) <= 0):
                raise ValueError("values must be strictly increasing")
            dense = bool(
                values.size == 0
                or (values[0] == 0 and np.all(np.diff(values) == 1))
            )
        self._freqs = frequencies
        self._values = values
        self._cum = np.concatenate(([0], np.cumsum(frequencies)))
        self._dense = dense
        self._index: Optional[DensityIndex] = None
        self._cum_list: Optional[List[int]] = None
        self._values_list: Optional[List[float]] = None

    @classmethod
    def from_column(cls, column) -> "AttributeDensity":
        """Density of a :class:`~repro.dictionary.column.DictionaryEncodedColumn`.

        Dictionary-encoded histograms see the dense code domain, so the
        values are the codes ``0 .. d-1``.
        """
        return cls(np.asarray(column.frequencies))

    @classmethod
    def from_value_column(cls, column) -> "AttributeDensity":
        """Density over the column's raw (possibly non-dense) values."""
        return cls(
            np.asarray(column.frequencies),
            np.asarray(column.dictionary.values, dtype=np.float64),
        )

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        return int(self._freqs.size)

    @property
    def n_distinct(self) -> int:
        return int(self._freqs.size)

    @property
    def total(self) -> int:
        """Total row count ``|R|``."""
        return int(self._cum[-1])

    @property
    def is_dense(self) -> bool:
        """True when the values are exactly ``0 .. d-1`` (dictionary codes)."""
        return self._dense

    @property
    def frequencies(self) -> np.ndarray:
        view = self._freqs.view()
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def cumulative(self) -> np.ndarray:
        """Exclusive prefix sums; ``cum[j] - cum[i]`` is ``f_plus(i, j)``."""
        view = self._cum.view()
        view.flags.writeable = False
        return view

    @property
    def cum_list(self) -> List[int]:
        """:attr:`cumulative` as a plain Python list (built on first use).

        The scalar search loops read range totals from it without paying
        numpy scalar boxing per lookup.
        """
        if self._cum_list is None:
            self._cum_list = self._cum.tolist()
        return self._cum_list

    @property
    def values_list(self) -> List[float]:
        """:attr:`values` as plain Python floats (built on first use)."""
        if self._values_list is None:
            self._values_list = self._values.tolist()
        return self._values_list

    # -- range-extrema index --------------------------------------------------

    @property
    def has_index(self) -> bool:
        """True once :meth:`ensure_index` has built the range-extrema tables."""
        return self._index is not None

    def ensure_index(self) -> DensityIndex:
        """Build (once) and return the per-column :class:`DensityIndex`.

        The index is cached on the density, so repeated searches over the
        same column amortize one construction pass.
        """
        if self._index is None:
            self._index = DensityIndex(self._freqs)
        return self._index

    def range_max(self, i: int, j: int) -> int:
        """``max_frequency`` via the sparse table when built, else a slice."""
        if self._index is not None:
            return self._index.range_max(i, j)
        return int(self._freqs[i:j].max())

    def range_min(self, i: int, j: int) -> int:
        """``min_frequency`` via the sparse table when built, else a slice."""
        if self._index is not None:
            return self._index.range_min(i, j)
        return int(self._freqs[i:j].min())

    # -- range sums ---------------------------------------------------------

    def f_plus(self, i: int, j: int) -> int:
        """Cumulated frequency of distinct values ``x_i .. x_{j-1}``."""
        if not 0 <= i <= j <= self.n_distinct:
            raise IndexError(f"range [{i}, {j}) out of [0, {self.n_distinct}]")
        return int(self._cum[j] - self._cum[i])

    def value_at(self, index: int) -> float:
        return float(self._values[index])

    def width(self, i: int, j: int) -> float:
        """Value-space width ``x_j - x_i`` (for ``j == n`` the open edge
        extends one unit past the last value, matching half-open ranges)."""
        upper = (
            float(self._values[-1]) + 1.0 if j >= self.n_distinct else float(self._values[j])
        )
        lower = float(self._values[i]) if i < self.n_distinct else upper
        return upper - lower

    def max_frequency(self, i: int, j: int) -> int:
        """Largest single-value frequency within index range ``[i, j)``."""
        if j <= i:
            raise ValueError("empty range")
        return self.range_max(i, j)

    def min_frequency(self, i: int, j: int) -> int:
        """Smallest single-value frequency within index range ``[i, j)``."""
        if j <= i:
            raise ValueError("empty range")
        return self.range_min(i, j)

    def slice(self, i: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """The (values, frequencies) pair of index range ``[i, j)``."""
        return self._values[i:j].copy(), self._freqs[i:j].copy()

    def index_of_value(self, value: float, side: str = "left") -> int:
        """Index of the first distinct value ``>= value`` (searchsorted)."""
        return int(np.searchsorted(self._values, value, side=side))

    def __repr__(self) -> str:
        kind = "dense" if self._dense else "non-dense"
        return f"AttributeDensity({kind}, d={self.n_distinct}, total={self.total})"
