"""Equality-product solver built from one stacked boolean-product instance.

For each matrix column the t most frequent values are split off into t
boolean slice matrices: slice l marks the positions holding the column's
l-th most frequent value.  A query coordinate matching a frequent value is
caught by the corresponding boolean slice product; every other value that
appears in a column is "rare" (at most ceil(n/t) occurrences).  The rare
entries are kept in a padded [W, n] table, column k's rare values down
column k with NaN (which equals nothing) after the last, W the largest
number of rare entries in any column; a query compares the whole table
with the query vector once, n * W cells, and sets the rows of the matches.
The output is exact: a 1 is emitted iff some coordinate of the query equals
the matrix entry above it.

The build works on one contiguous copy of the transposed matrix, row k
holding column k.  One sort of its rows ranks every column's values by
frequency (see _top_values), and the s <= t slices that are not entirely
zero (slice l is empty iff no column has an l-th value, and ``top_values``
keeps a row for the s others only) come from one comparison of the same
copy, laid out [s, n, n] by (slice, column, row).  The inner boolean
instance gets that stack as its [slice, row, column] view: the leaf packs
each matrix column into words, so its transposed read is the build's own
contiguous array and costs no copy.
A query asks that instance once, with the [s, n] block of slice queries,
and the OR of the s slice products comes back.  The ledger still books the
t inner queries of the reduction's cost accounting per query (the product
of an all-zero slice is all zeros, so the t - s empty slices are never
built).  The ledger's scan_length_total grows by the number of rare
entries that match, at most n * ceil(n/t) per query.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import Matrix, OnlineSolver, ReductionConfig, SolverFactory, as_array
from .oracle import naive_factory


def _top_values(columns: np.ndarray, t: int) -> np.ndarray:
    """[s, n] table of each column's s most frequent values.

    ``columns`` is the matrix transposed, row k holding column k.  s =
    min(t, largest number of distinct values in a column), so every row of
    the table has a value in some column: the t - s slices past it would be
    all zero and get no row.  Column k of the table lists column k's values
    most frequent first, frequency ties broken by smaller value; a column
    with fewer than s distinct values is padded with NaN, which equals
    nothing (absent slots yield all-zero slice columns rather than invented
    filler values).

    One sort of each column yields its runs of equal values in (column,
    value) order.  A stable argsort of the integer key column * n +
    (n - count) then orders each column's runs by falling count and keeps
    equal counts in value order; the key fits in 16 bits up to n = 256,
    where numpy's stable sort is a radix sort.  A run's rank within its
    column is its position less the column's offset, taken from the
    per-column run counts.
    """
    n = columns.shape[0]
    flat = np.sort(columns, axis=1).ravel()
    starts = np.ones(n * n, dtype=bool)
    starts[1:] = flat[1:] != flat[:-1]
    starts[::n] = True  # every column opens a run of its own
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=n * n)
    col = first // n
    key = (col * n + (n - counts)).astype(np.min_scalar_type(n * n - 1))
    order = np.argsort(key, kind="stable")
    runs = np.bincount(col, minlength=n)
    rank = np.arange(len(col)) - (runs.cumsum() - runs)[col]
    keep = rank < t
    table = np.full((min(t, int(runs.max())), n), np.nan)
    table[rank[keep], col[keep]] = flat[first[order[keep]]]
    return table


class EqFromBoolSolver(OnlineSolver):
    """Online equality-product solver over one stacked boolean inner instance."""

    problem = "eq"
    inner_problem = "bool"

    def __init__(
        self,
        matrix: Matrix | np.ndarray,
        config: Optional[ReductionConfig] = None,
        make_inner: SolverFactory = naive_factory,
    ):
        super().__init__(matrix, config)
        columns = np.ascontiguousarray(as_array(matrix).T)  # columns[k, i] = M[i, k]
        self.t = self.config.resolve_t(self.n)
        self.top_values = _top_values(columns, self.t)
        # stack[l, k, i]: M[i, k] is column k's l-th value; handed down as
        # the [l, i, k] view
        stack = columns == self.top_values[:, :, None]
        self._inner = make_inner("bool", np.swapaxes(stack, 1, 2), self.config)
        rare = ~stack.any(axis=0)  # rare[k, i]: M[i, k] is no frequent value of column k

        # _rare_values[w, k]: the w-th rare entry of column k, top to bottom
        # (NaN past the column's last one); _rare_rows[w, k]: its row.  Built
        # from the nonzeros of the column-major rare mask, so that no n x n
        # index array (an argsort, say) outlives the build.
        rare_cols, rare_rows = np.nonzero(rare)
        counts = np.bincount(rare_cols, minlength=self.n)
        # slot: each rare entry's position among its column's rare entries
        slot = np.arange(len(rare_cols)) - (counts.cumsum() - counts)[rare_cols]
        width = int(counts.max(initial=0))
        self._rare_values = np.full((width, self.n), np.nan)
        self._rare_values[slot, rare_cols] = columns[rare]
        self._rare_rows = np.zeros((width, self.n), dtype=np.int32)
        self._rare_rows[slot, rare_cols] = rare_rows

    def _answer(self, v: np.ndarray) -> np.ndarray:
        masks = self.top_values == v  # masks[l, k]: v[k] is column k's l-th value
        out = self._inner.query(masks)
        # All t slices count as asked; one call answers the s stacked ones.
        self.counters.inner_queries += self.t

        # An empty [0, n] table would yield no rows too, but skipping it
        # saves about 2 us a call: on the minmax-deep workload most of the
        # 164 calls per query find no rare entries.
        if len(self._rare_values):
            # the rows of the rare entries equal to their query coordinate
            rows = self._rare_rows[self._rare_values == v]
            out[rows] = True
            self.counters.scan_length_total += len(rows)
        return out
