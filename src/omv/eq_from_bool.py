"""Equality-product solver built from one boolean-product instance.

The matrix is n x m: m = n for an outer instance, while dom<-eq asks one
n x (levels * n) instance (see omv.folklore), and t is resolved from the
row count n.  For each matrix column the t most frequent values are split
off: the pair (column k, value x) marks the rows where column k holds x,
and a query coordinate matching a frequent value is caught by the boolean
product over the pair columns.  Every other value that appears in a column
is "rare" (at most ceil(n/t) occurrences).  The rare entries are kept in a
padded [W, C] table, column c's rare values down column c with NaN (which
equals nothing) after the last, W the largest number of rare entries in
any column; a query compares the whole table with the query coordinates of
its C columns once, W * C cells, and sets the rows of the matches.  NaN
entries, which dom<-eq uses for the cells that can never hit, are neither
frequent nor rare.  The output is exact: a 1 is emitted iff some
coordinate of the query equals the matrix entry above it.

The build works on one contiguous copy of the transposed matrix, row k
holding column k (no copy when the matrix handed in is a transposed view
of such an array, as dom<-eq's is), one block of n columns at a time, so
that no transient outgrows an n x n block: one sort of a block's rows
ranks every column's values by frequency (see _top_values), and one
comparison of the block with that [s, b] table, laid out [slice, column,
row], yields the pair columns and the rare entries.  The inner boolean
instance is the n x P matrix of the pairs' rows, handed down as the
transposed view of the build's [P, n] array: the leaf packs each matrix
column into words, so its transposed read costs no copy.

* One block (m <= n, so every outer instance) keeps its table whole: P =
  s * m, the cells of columns with fewer than s values included (their
  leaf columns are all zero), the rare table keeps all m columns, and a
  query compares both tables with v by broadcast, as a square table needs
  no gather.  This layout also takes a stack of b instances (see
  OnlineSolver; a plain matrix is a stack of one): each instance is
  built in turn into the preallocated [b, s, m] table, s the largest
  slice count, and the boolean instance is the stack of the b pair
  matrices.  The rare table is [b, W, m], and a rare entry holds its row
  of the flat [b, n] answer, so the hits of all instances scatter at once.
* Several blocks would pad each other to the largest slice count, so
  ``top_values`` keeps only the P pairs that hold a value, ``_top_at``
  their columns, and the rare table only the columns with a rare entry;
  a query gathers the query coordinates of those columns.  The upper
  levels of dom<-eq, with few distinct values, take little room this way.

Both tables hold the instance's values in its own dtype, as as_array
hands it over (see omv.core): float32 for bmmp<-eq's hitting stack and
dom<-eq's slices, float64 otherwise.  Both producers send their queries
in the same dtype; a query of another dtype is still compared exactly,
numpy promoting the two arrays to the wider one.

A query asks the inner instance once, with the P vector of pair matches
(a [b, P] block for a stack, an instance not asked getting a NaN row,
which matches no pair and no rare entry).  The ledger books the t inner
queries of the reduction's cost accounting per call it answers, however
many instances the call asks (the product of an all-zero slice is all
zeros, so empty slices are never built).  The ledger's scan_length_total
grows by the number of rare entries that match, at most m * ceil(n/t) per
instance query.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import Matrix, OnlineSolver, ReductionConfig, SolverFactory, as_array
from .oracle import naive_factory


def _top_values(columns: np.ndarray, t: int) -> np.ndarray:
    """[s, b] table of each column's s most frequent values.

    ``columns`` is a floating [b, n] array, row k holding matrix column k,
    and the table has its dtype.  s = min(t,
    largest number of distinct values in a column), so every row of the
    table has a value in some column.  Column k of the table lists column
    k's values most frequent first, frequency ties broken by smaller value;
    a column with fewer than s distinct values is padded with NaN, which
    equals nothing.

    One sort of each column yields its runs of equal values in (column,
    value) order.  A stable argsort of the integer key column * n +
    (n - count) then orders each column's runs by falling count and keeps
    equal counts in value order; with b <= n the key fits in 16 bits up to
    n = 256, where numpy's stable sort is a radix sort.  A run's rank
    within its column is its position less the column's offset, taken from
    the per-column run counts.
    """
    b, n = columns.shape
    flat = np.sort(columns, axis=1).ravel()
    starts = np.ones(b * n, dtype=bool)
    starts[1:] = flat[1:] != flat[:-1]
    # NaN sorts last (a column holds one iff its last entry is one) and
    # equals nothing: a column's NaNs make one run, dropped below
    nan = np.isnan(flat) if np.isnan(flat[n - 1 :: n]).any() else None
    if nan is not None:
        starts[1:] &= ~nan[:-1]
    starts[::n] = True  # every column opens a run of its own
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=b * n)
    if nan is not None:
        real = ~nan[first]
        first, counts = first[real], counts[real]
    col = first // n
    key = (col * n + (n - counts)).astype(np.min_scalar_type(b * n - 1))
    order = np.argsort(key, kind="stable")
    runs = np.bincount(col, minlength=b)
    rank = np.arange(len(col)) - (runs.cumsum() - runs)[col]
    keep = rank < t
    table = np.full((min(t, int(runs.max())), b), np.nan, dtype=columns.dtype)
    table[rank[keep], col[keep]] = flat[first[order[keep]]]
    return table


class EqFromBoolSolver(OnlineSolver):
    """Online equality-product solver over one boolean inner instance."""

    problem = "eq"
    inner_problem = "bool"

    def __init__(
        self,
        matrix: Matrix | np.ndarray,
        config: Optional[ReductionConfig] = None,
        make_inner: SolverFactory = naive_factory,
    ):
        super().__init__(matrix, config)
        n, m = self.n, self.m
        values = as_array(matrix)
        lead = values.shape[:-2]  # (b,) for a stack of b instances, () for one
        stack = values.reshape(math.prod(lead), n, m)
        dtype = values.dtype  # the tables' dtype: see the module docstring

        def columns(j: int) -> np.ndarray:
            """columns(j)[k, i] = M_j[i, k]: one contiguous copy of instance j
            transposed (none when the instance is a transposed view of such
            an array)."""
            return np.ascontiguousarray(stack[j].T)

        self.t = self.config.resolve_t(n)
        starts = range(0, m, n)
        # rare[j, k, i]: M_j[i, k] is a value, and no frequent value of its column k
        rare = np.zeros((len(stack), m, n), dtype=bool)
        whole = m <= n
        if whole:
            # one block per instance, kept whole and read by broadcast: v[:] is
            # v, and a stack's block v[:, None, :] sets each query against its
            # own instance's tables; every table is padded with NaN to the
            # largest slice count
            tables = [_top_values(columns(j), self.t) for j in range(len(stack))]
            self.top_values = np.full((*lead, max(map(len, tables)), m), np.nan, dtype)
            tops = self.top_values.reshape(len(stack), *self.top_values.shape[-2:])
            for top, table in zip(tops, tables):
                top[: len(table)] = table
            del tables
            self._top_at = np.s_[:, None, :] if lead else slice(None)
            # pairs[j, p, i]: row i of instance j holds its pair p, slice by slice;
            # pairs[j] as [s, m, n] holds at [l, k, i] whether M_j[i, k] is column k's l-th value
            pairs = np.empty((len(stack), tops[0].size, n), dtype=bool)
            for j, top in enumerate(tops):
                cols = columns(j)
                slices = pairs[j].reshape(*top.shape, n)
                np.equal(cols, top[:, :, None], out=slices)
                if len(top) == self.t:  # only a column with more than t values has rare ones
                    rare[j] = ~(slices.any(axis=0) | np.isnan(cols))
            del slices  # a view of pairs
        else:
            # one instance whose blocks would pad each other to the largest
            # slice count: only the P cells that hold a value make pairs
            cols = columns(0)
            tables = [_top_values(cols[start : start + n], self.t) for start in starts]
            held = [~np.isnan(table) for table in tables]
            self.top_values = np.concatenate([table[h] for table, h in zip(tables, held)])
            self._top_at = np.concatenate([start + np.nonzero(h)[1] for start, h in zip(starts, held)])
            pairs = np.empty((1, len(self.top_values), n), dtype=bool)  # block by block
            at = 0
            for start, table, h in zip(starts, tables, held):
                block = cols[start : start + n]
                slices = block == table[:, :, None]
                count = int(h.sum())
                np.compress(h.ravel(), slices.reshape(-1, n), axis=0, out=pairs[0, at : at + count])
                at += count
                if len(table) == self.t:
                    rare[0, start : start + n] = ~(slices.any(axis=0) | np.isnan(block))
        self._inner = make_inner("bool", pairs.reshape(*lead, -1, n).swapaxes(-1, -2), self.config)
        del pairs  # the leaf packs its own copy; release it before the rare table is built

        # _rare_values[j, w, c]: the w-th rare entry of instance j's c-th kept
        # column, top to bottom (NaN past the column's last one);
        # _rare_rows[j, w, c]: its row of the flat [b, n] answer, j * n + i.
        # Filled instance by instance from the nonzeros of the column-major
        # rare mask, so that no index array of the whole stack (an argsort,
        # say) outlives one instance.
        counts = np.count_nonzero(rare, axis=-1)
        kept = (counts > 0) | whole
        self._rare_at = self._top_at if whole else np.flatnonzero(kept[0])
        width = int(counts.max(initial=0))
        self._rare_values = np.full((*lead, width, m if whole else len(self._rare_at)), np.nan, dtype)
        self._rare_rows = np.zeros(self._rare_values.shape, dtype=np.int32)
        rare_values = self._rare_values.reshape(len(stack), *self._rare_values.shape[-2:])
        rare_rows = self._rare_rows.reshape(rare_values.shape)
        for j in np.flatnonzero(counts.any(axis=-1)).tolist():
            at = np.flatnonzero(rare[j])
            cols, rows = np.divmod(at, n)
            # slot: each rare entry's position among its column's rare entries,
            # place: its column's among the kept ones
            slot = np.arange(len(at)) - (counts[j].cumsum() - counts[j])[cols]
            place = (kept[j].cumsum() - 1)[cols]
            rare_values[j, slot, place] = columns(j).take(at)
            rare_rows[j, slot, place] = j * n + rows

    def _answer(self, v: np.ndarray) -> np.ndarray:
        cells = self.top_values == v[self._top_at]
        out = self._inner.query(cells.reshape(v.shape[:-1] + (self._inner.m,)))
        # All t slices count as asked; one call answers the pairs of all of them.
        self.counters.inner_queries += self.t

        # An empty table would yield no rows too, but skipping it saves
        # about 2 us a call: on the minmax-deep workload only the lowest
        # levels of dom<-eq's matrix instance hold rare entries.
        if self._rare_values.shape[-2]:
            # the answer rows of the rare entries equal to their query coordinate
            rows = self._rare_rows[self._rare_values == v[self._rare_at]]
            out.put(rows, True)
            self.counters.scan_length_total += len(rows)
        return out
