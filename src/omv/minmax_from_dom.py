"""Min-max product solver built from dominance-product inner solvers.

Each output entry min_k max(M[i,k], v[k]) is split into two one-sided
minima and the final answer is their minimum:

    u[i] = min{ M[i,k] : M[i,k] >= v[k] }   (the matrix side wins the max)
    w[i] = min{ v[k]   : v[k] >= M[i,k] }   (the query side wins the max)

For u, every matrix row is sorted and chopped into t buckets of at most
ceil(n/t) consecutive elements.  Bucket l of all rows forms a slice matrix
holding the negated member values and NaN elsewhere; a dominance query
against the negated query vector then tells, per row, whether bucket l
contains an element >= the query coordinate above it.  The first hitting
bucket is scanned directly for the smallest qualifying element (only that
bucket: the first hitting buckets of all rows are gathered into one
[n, ceil(n/t)] block).  For w the
roles flip: the query vector is sorted and bucketed, each bucket becomes a
masked query (NaN outside the bucket) against a single dominance solver on
the matrix itself, and the first hitting bucket is scanned.  Per query this
issues exactly 2t inner dominance queries and scans at most
2 * n * ceil(n/t) bucket elements.

NaN is the one absent value of the dominance instances built here: a NaN
entry is never dominated and a NaN query coordinate dominates nothing, so
the padding never hits and every +/-inf entry, -inf included, goes through
the buckets like any other value.  The query side's instance holds NaN in
place of +inf: a +inf pair only contributes +inf, the default answer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    INF,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    SolverFactory,
    as_array,
    ceil_div,
)
from .oracle import naive_factory


class MinMaxFromDomSolver(OnlineSolver):
    """Online min-max solver over 2t dominance inner queries per query."""

    problem = "minmax"
    inner_problem = "dom"

    def __init__(
        self,
        matrix: Matrix | np.ndarray,
        config: Optional[ReductionConfig] = None,
        make_inner: SolverFactory = naive_factory,
    ):
        super().__init__(matrix, config)
        n = self.n
        self._m = m = as_array(matrix)
        self.t = self.config.resolve_t(n)
        self.bucket_size = ceil_div(n, self.t)

        # _order[i]: the columns of row i by (value, column); bucket l of
        # row i is _order[i, l*bucket_size : (l+1)*bucket_size].  Equal
        # values may end up in different buckets, which the scan tolerates.
        self._order = np.argsort(m, axis=1, kind="stable")
        bucket_of = np.empty((n, n), dtype=np.int64)
        np.put_along_axis(bucket_of, self._order, np.arange(n) // self.bucket_size, axis=1)

        self._slice_solvers: list[OnlineSolver] = [
            make_inner("dom", np.where(bucket_of == l, -m, np.nan), self.config)
            for l in range(self.t)
        ]
        # The query-side phase asks dominance queries against the matrix itself.
        self._matrix_solver = make_inner("dom", np.where(m == INF, np.nan, m), self.config)

    def _first_qualifying(
        self, hits: np.ndarray, order: np.ndarray, qualifies
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scan each row's first hitting bucket for its first qualifying element.

        ``hits`` is [t, n]: hits[l, i] when bucket l of row i holds a
        qualifying element.  ``order`` is [n, n], one bucketed order per
        row, or [n] when all rows share one; ``qualifies(rows, cols)`` tests
        elements.  Returns the rows with a hit and, per such row, the
        qualifying column.
        """
        rows = np.flatnonzero(hits.any(axis=0))
        size = self.bucket_size
        positions = hits[:, rows].argmax(axis=0)[:, None] * size + np.arange(size)
        inside = positions < self.n  # the last buckets may be short or empty
        positions = np.minimum(positions, self.n - 1)
        block = order[rows[:, None], positions] if order.ndim == 2 else order[positions]
        ok = inside & qualifies(rows[:, None], block)
        found = ok.any(axis=1)
        if not found.all():
            raise AssertionError("hitting bucket contained no qualifying element")
        first = ok.argmax(axis=1)
        self.counters.scan_length_total += int(first.sum()) + len(rows)
        return rows, block[np.arange(len(rows)), first]

    def _matrix_side(self, v: np.ndarray) -> np.ndarray:
        """u[i] = min matrix entry in row i that is >= its query coordinate."""
        m = self._m
        neg_query = -v
        hits = np.empty((self.t, self.n), dtype=bool)
        for l, solver in enumerate(self._slice_solvers):
            hits[l] = solver.query(neg_query)
        self.counters.inner_queries += self.t
        rows, cols = self._first_qualifying(
            hits, self._order, lambda i, k: m[i, k] >= v[k]
        )
        out = np.full(self.n, INF)
        out[rows] = m[rows, cols]
        return out

    def _query_side(self, v: np.ndarray) -> np.ndarray:
        """w[i] = min query coordinate that is >= its matrix entry in row i."""
        m = self._m
        order = np.argsort(v, kind="stable")
        bucket_of = np.empty(self.n, dtype=np.int64)
        bucket_of[order] = np.arange(self.n) // self.bucket_size
        masked = np.where(bucket_of == np.arange(self.t)[:, None], v, np.nan)
        hits = np.empty((self.t, self.n), dtype=bool)
        for l in range(self.t):
            hits[l] = self._matrix_solver.query(masked[l])
        self.counters.inner_queries += self.t
        rows, cols = self._first_qualifying(
            hits, order, lambda i, k: v[k] >= m[i, k]
        )
        out = np.full(self.n, INF)
        out[rows] = v[cols]
        return out

    def _answer(self, v: np.ndarray) -> np.ndarray:
        return np.minimum(self._matrix_side(v), self._query_side(v))
