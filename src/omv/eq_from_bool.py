"""Equality-product solver built from one stacked boolean-product instance.

For each matrix column the t most frequent values are split off into t
boolean slice matrices: slice l marks the positions holding the column's
l-th most frequent value.  A query coordinate matching a frequent value is
caught by the corresponding boolean slice product; every other value that
appears in a column is "rare" (at most ceil(n/t) occurrences) and is kept
in a sorted index of rare entries, which the query phase scans directly.
The output is exact: a 1 is emitted iff some coordinate of the query equals
the matrix entry above it.

The s <= t slices that are not entirely zero are built in one comparison
as one [s, n, n] bool stack and handed to a single inner boolean instance.
A query asks that instance once, with the [s, n] block of slice queries,
and the OR of the s slice products comes back.  The ledger still books the
t inner queries of the reduction's cost accounting per query, one under
each label bool[0..t-1] (the product of an all-zero slice is all zeros, so
the t - s empty slices are never built).  Each query also scans at most
n * ceil(n/t) rare entries.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import Matrix, OnlineSolver, ReductionConfig, SolverFactory, as_array
from .oracle import naive_factory


def _top_values(matrix: np.ndarray, t: int) -> np.ndarray:
    """[t, n] table of each column's t most frequent values.

    Column k of the table lists column k's values most frequent first,
    frequency ties broken by smaller value; a column with fewer than t
    distinct values is padded with NaN, which equals nothing (absent slots
    yield all-zero slice columns rather than invented filler values).
    """
    n = matrix.shape[0]
    columns = np.sort(matrix.T, axis=1).ravel()
    starts = np.ones(n * n, dtype=bool)
    starts[1:] = columns[1:] != columns[:-1]
    starts[::n] = True  # every column opens a run of its own
    first = np.flatnonzero(starts)
    counts = np.diff(np.append(first, n * n))
    values = columns[first]
    col = first // n
    order = np.lexsort((values, -counts, col))
    col = col[order]
    rank = np.arange(len(col)) - np.searchsorted(col, col)
    keep = rank < t
    table = np.full((t, n), np.nan)
    table[rank[keep], col[keep]] = values[order][keep]
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
        m = as_array(matrix)
        self.t = self.config.resolve_t(self.n)
        self.top_values = _top_values(m, self.t)

        # Slice l is empty iff no column has an l-th value; the rest are stacked.
        self._slice_values = self.top_values[~np.isnan(self.top_values).all(axis=1)]
        stack = m == self._slice_values[:, None, :]  # stack[l, i, k]: M[i, k] is column k's l-th value
        self._inner = make_inner("bool", stack, self.config)
        self._labels = [f"bool[{level}]" for level in range(self.t)]
        frequent = stack.any(axis=0)

        # The rare entries, sorted by the key col * len(rare_values) + the
        # rank of the value among rare_values (the distinct rare values):
        # a query looks up its n (column, value) keys with two binary
        # searches instead of comparing against the whole matrix.
        rare_rows, rare_cols = np.nonzero(~frequent)
        values = m[rare_rows, rare_cols]
        self.rare_values = np.unique(values)
        keys = rare_cols * len(self.rare_values) + np.searchsorted(self.rare_values, values)
        order = np.argsort(keys, kind="stable")
        self.rare_keys = keys[order]
        self.rare_rows = rare_rows[order].astype(np.int32)
        self._column_keys = np.arange(self.n) * len(self.rare_values)
        # rare_values with a NaN after the end, so that the position where a
        # query value would be inserted can always be read (and never equals it)
        self._rare_lookup = np.append(self.rare_values, np.nan)

    def _answer(self, v: np.ndarray) -> np.ndarray:
        masks = self._slice_values == v  # masks[l, k]: v[k] is column k's l-th value
        out = self._inner.query(masks)
        # All t slices count as asked; one call answers the s stacked ones.
        self.counters.count_each(self._labels)

        hits = self._rare_hits(v)
        if len(hits):
            self.counters.scan_length_total += len(hits)
            out[self.rare_rows[hits]] = True
        return out

    def _rare_hits(self, v: np.ndarray) -> np.ndarray:
        """Positions in rare_keys of the rare entries equal to their query coordinate."""
        if len(self.rare_keys) == 0:
            return self.rare_keys
        # ndarray methods rather than the np.* wrappers: this runs once per
        # equality query, where the wrappers' dispatch cost is measurable.
        rank = self.rare_values.searchsorted(v)
        keys = np.where(self._rare_lookup[rank] == v, self._column_keys + rank, -1)
        lo = self.rare_keys.searchsorted(keys)
        counts = self.rare_keys.searchsorted(keys, side="right") - lo
        total = int(counts.sum())
        if total == 0:
            return self.rare_keys[:0]
        # the concatenated ranges [lo[k], lo[k] + counts[k])
        ends = counts.cumsum()
        return np.arange(total) + (lo - (ends - counts)).repeat(counts)
