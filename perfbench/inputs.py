"""Seeded inputs: the tables each stage serves and the traffic it sends.

The tables come from the repository's own generators and are fixed
(drawn from ``SHAPE_SEED``, like a benchmark dataset), so every seed
builds the same statistics.  The seed draws the predicates, the column
popularity draws and the churn plan: runs with different seeds do the
same amount of work and differ in what they ask of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.dictionary.column import DictionaryEncodedColumn
from repro.dictionary.table import Table
from repro.workloads.bw import make_bw_dataset
from repro.workloads.queries import sample_ranges

#: The BW column mix: ``make_bw_dataset`` with this many columns, the
#: largest scaled to ``MIX_MAX_DISTINCT``.
MIX_COLUMNS = 30
MIX_MAX_DISTINCT = 4_000
#: The ``build`` workload's table adds the generator's most challenging
#: column at this size (``make_bw_dataset`` forces its last column to
#: ``max_distinct``).
BIG_DISTINCT = 200_000
#: The one mid-sized skewed column the ``churn`` stage writes to.
CHURN_DISTINCT = 6_000
#: Zipf exponent of column popularity in ``serve`` traffic.
POPULARITY_SKEW = 1.1

#: Seed of the fixed tables (``make_bw_dataset``'s default).
SHAPE_SEED = 20140627

TABLE = "bw"
CHURN_TABLE = "orders"
CHURN_COLUMN = "amount"


def make_table(big: bool = False) -> Table:
    """The BW-like table, plus the 200k-distinct column (``big``)."""
    columns = make_bw_dataset(n_columns=MIX_COLUMNS, max_distinct=MIX_MAX_DISTINCT, seed=SHAPE_SEED)
    if big:
        columns += make_bw_dataset(n_columns=1, max_distinct=BIG_DISTINCT, seed=SHAPE_SEED)
    table = Table(TABLE)
    for index, column in enumerate(columns):
        table.add_column(
            DictionaryEncodedColumn.from_frequencies(
                column.dense.frequencies, values=column.value_density.values, name=f"bw_{index:04d}"
            )
        )
    return table


def make_churn_table() -> Table:
    """One skewed multi-bucket column: a near-uniform column compresses
    to one bucket, which any churn escalates to a rebuild."""
    shape = np.random.default_rng([SHAPE_SEED, 2])
    table = Table(CHURN_TABLE)
    table.add_column(
        DictionaryEncodedColumn.from_frequencies(shape.integers(1, 200, size=CHURN_DISTINCT), name=CHURN_COLUMN)
    )
    return table


# -- serve traffic --------------------------------------------------------

@dataclass(frozen=True)
class Batch:
    """One request: value ranges ``[lows, highs)`` on one column."""

    column: str
    lows: np.ndarray
    highs: np.ndarray


def _ranges(rng: np.random.Generator, column: DictionaryEncodedColumn, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` value ranges on ``column`` from ``sample_ranges``: the first
    half uniform over all ranges, the second half short."""
    values = np.asarray(column.dictionary.values, dtype=np.float64)
    codes = sample_ranges(values.size, n, rng)
    # A value one past the last code's value closes the domain.
    edges = np.append(values, values[-1] + 1.0)
    return edges[codes[:, 0]], edges[codes[:, 1]]


def popularity(n_columns: int) -> np.ndarray:
    """Zipf-like column popularity over every column (rank order)."""
    weights = 1.0 / np.arange(1, n_columns + 1) ** POPULARITY_SKEW
    return weights / weights.sum()


def make_traffic(
    table: Table, seed: int, n_batches: int, batch_size: int, n_singles: int
) -> Tuple[List[Batch], List[Batch]]:
    """Binary batch templates and JSON single templates for ``serve``.

    Columns are drawn with skewed popularity over a fixed ranking of
    every column (so every seed puts the same columns on top).  Singles
    alternate between a uniform and a short range.
    """
    rng = np.random.default_rng([seed, 3])
    columns = table.columns()
    ranking = np.random.default_rng([SHAPE_SEED, 3]).permutation(len(columns))
    picks = rng.choice(len(columns), size=n_batches + n_singles, p=popularity(len(columns)))
    batches, singles = [], []
    for index, pick in enumerate(picks):
        column = columns[ranking[pick]]
        if index < n_batches:
            batches.append(Batch(column.name, *_ranges(rng, column, batch_size)))
        else:
            lows, highs = _ranges(rng, column, 2)
            half = slice(index % 2, index % 2 + 1)
            singles.append(Batch(column.name, lows[half], highs[half]))
    return batches, singles


def make_read_batches(column: DictionaryEncodedColumn, seed: int, n: int, size: int) -> List[Batch]:
    """The fixed read batches each ``churn`` round issues."""
    rng = np.random.default_rng([seed, 4])
    return [Batch(column.name, *_ranges(rng, column, size)) for _ in range(n)]
