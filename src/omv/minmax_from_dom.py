"""Min-max product solver built from dominance-product inner solvers.

Each output entry min_k max(M[i,k], v[k]) is split into two one-sided
minima and the final answer is their minimum:

    u[i] = min{ M[i,k] : M[i,k] >= v[k] }   (the matrix side wins the max)
    w[i] = min{ v[k]   : v[k] >= M[i,k] }   (the query side wins the max)

For u, every matrix row is sorted and chopped into t buckets of at most
ceil(n/t) consecutive elements.  Bucket l of all rows forms a slice matrix
holding the negated member values and +inf elsewhere; a dominance query
against the negated query vector then tells, per row, whether bucket l
contains an element >= the query coordinate above it.  The first hitting
bucket is scanned directly for the smallest qualifying element (only that
bucket: the first hitting buckets of all rows are gathered into one
[n, ceil(n/t)] block).  For w the
roles flip: the query vector is sorted and bucketed, each bucket becomes a
masked query against a single dominance solver on the matrix itself, and
the first hitting bucket is scanned.  Per query this issues exactly 2t
inner dominance queries and scans at most 2 * n * ceil(n/t) bucket
elements.

Inner dominance solvers only see finite values: finitize() replaces the
infinities by extreme finite stand-ins (matrix side wider than query side)
chosen so that no legal comparison changes and the +inf padding can never
produce a hit.  Genuine -inf matrix entries cannot survive that mapping --
negation folds them onto the padding value -- so both phases skip them.
Since max(-inf, v[k]) = v[k], the query side recovers their contributions
by a direct per-row scan over the precomputed positions holding them;
matrices without -inf entries take the bucketed path exclusively.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    INF,
    NEG_INF,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    SolverFactory,
    as_array,
    ceil_div,
)
from .oracle import naive_factory


def finitize(values: np.ndarray, w_bound: int, role: str) -> np.ndarray:
    """Map infinities and out-of-range entries to extreme finite values.

    ``w_bound`` is the largest absolute finite value of the matrix the
    dominance instance was built from.  Matrix-side infinities become
    +/-(3W+2); query-side entries beyond +/-W (including infinities)
    become +/-(2W+1).  Every dominance comparison between a legal matrix
    value and a legal query value is unchanged by the mapping, and the
    matrix-side +inf can never be dominated by any mapped query entry.
    """
    if role == "matrix":
        big = 3 * w_bound + 2
        return np.where(values == INF, big, np.where(values == NEG_INF, -big, values))
    if role == "query":
        cap = 2 * w_bound + 1
        return np.where(values > w_bound, cap, np.where(values < -w_bound, -cap, values))
    raise ValueError(f"unknown finitize role {role!r}")


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

        finite = np.isfinite(m)
        self.w_bound = int(np.abs(m[finite]).max()) if finite.any() else 0

        # _order[i]: the columns of row i by (value, column); bucket l of
        # row i is _order[i, l*bucket_size : (l+1)*bucket_size].  Equal
        # values may end up in different buckets, which the scan tolerates.
        self._order = np.argsort(m, axis=1, kind="stable")
        bucket_of = np.empty((n, n), dtype=np.int64)
        np.put_along_axis(bucket_of, self._order, np.arange(n) // self.bucket_size, axis=1)
        # -inf entries are recovered by the query side's direct scan (None:
        # there are none).
        neg = m == NEG_INF
        self._neginf = neg if neg.any() else None

        self._slice_solvers: list[OnlineSolver] = [
            make_inner(
                "dom",
                finitize(np.where(bucket_of == l, -m, INF), self.w_bound, "matrix"),
                self.config,
            )
            for l in range(self.t)
        ]
        # The query-side phase asks dominance queries against the matrix
        # itself.  -inf entries are folded onto the never-hit padding value
        # (their contributions come from the direct scan), +inf entries take
        # the standard mapping.
        self._matrix_solver = make_inner(
            "dom", finitize(np.where(neg, INF, m), self.w_bound, "matrix"), self.config
        )

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
        """u[i] = min matrix entry in row i that is >= its query coordinate.

        The slices never hit a -inf entry, so their contributions may be
        missing here; _query_side's direct scan supplies them."""
        m = self._m
        neg_query = finitize(-v, self.w_bound, "query")
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
        masked = finitize(
            np.where(bucket_of == np.arange(self.t)[:, None], v, NEG_INF), self.w_bound, "query"
        )
        hits = np.empty((self.t, self.n), dtype=bool)
        for l in range(self.t):
            hits[l] = self._matrix_solver.query(masked[l])
        self.counters.inner_queries += self.t
        rows, cols = self._first_qualifying(
            hits, order, lambda i, k: v[k] >= m[i, k]
        )
        out = np.full(self.n, INF)
        out[rows] = v[cols]
        if self._neginf is not None:
            self.counters.scan_length_total += int(np.count_nonzero(self._neginf))
            out = np.minimum(out, np.where(self._neginf, v, INF).min(axis=1))
        return out

    def _answer(self, v: np.ndarray) -> np.ndarray:
        return np.minimum(self._matrix_side(v), self._query_side(v))
