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
bucket: the column indices of all rows' first hitting buckets form one
[n, ceil(n/t)] block, at which M and the query are read).  For w the
roles flip: the query vector is sorted and bucketed into one [t, n] probe
table per query, row l holding v on bucket l and NaN elsewhere, whose rows
are asked of a single dominance solver on the matrix itself; the first
hitting bucket is scanned the same way, its columns taken from the one
sorted order of the query.  Either side hands the scan its buckets as
(solver, probe) pairs: t slice solvers with the one probe -v, or the one
matrix solver with the t rows of the probe table.  Per query the ledger
books 2t inner dominance queries, t per side, and the scans read at most
2 * n * ceil(n/t) bucket elements.  Since only each row's first hitting
bucket is scanned, each side asks a prefix of its buckets: in bucket
order, until every row has hit (all t when some row has no hit).

NaN is the one absent value of the dominance instances built here: a NaN
entry is never dominated and a NaN query coordinate dominates nothing, so
the padding never hits and every +/-inf entry, -inf included, goes through
the buckets like any other value.  The query side's instance holds NaN in
place of +inf: a +inf pair only contributes +inf, the default answer.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

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


class MinMaxFromDomSolver(OnlineSolver):
    """Online min-max solver booking 2t dominance inner queries per query,
    asking a prefix of the t buckets on each side."""

    problem = "minmax"
    inner_problem = "dom"

    def __init__(
        self,
        matrix: Matrix | np.ndarray,
        config: ReductionConfig,
        make_inner: SolverFactory,
    ):
        super().__init__(matrix, config)
        n = self.n
        self._m = m = as_array(matrix)
        self.t = self.config.resolve_t(n)
        self.bucket_size = ceil_div(n, self.t)

        # _order[i]: the columns of row i by (value, column); bucket l of
        # row i is _order[i, l*bucket_size : (l+1)*bucket_size].  Equal
        # values may end up in different buckets, which the scan tolerates.
        # The query-side phase asks dominance queries against the matrix
        # itself.  Its instance has the most distinct values, so its build
        # has the largest transient; built first, it peaks before any bucket
        # solver is held.
        self._matrix_solver = make_inner("dom", np.where(m == INF, np.nan, m), self.config)

        self._order = np.argsort(m, axis=1, kind="stable")
        self._sorted = np.take_along_axis(m, self._order, axis=1)  # each row in _order order
        self._bucket = np.arange(n) // self.bucket_size  # the bucket of each sorted position
        bucket_of = np.empty((n, n), dtype=np.int64)
        np.put_along_axis(bucket_of, self._order, self._bucket, axis=1)

        self._slice_solvers: list[OnlineSolver] = [
            make_inner("dom", np.where(bucket_of == l, -m, np.nan), self.config)
            for l in range(self.t)
        ]

    def _scan(
        self,
        asks: Iterator[tuple[OnlineSolver, np.ndarray]],
        order: np.ndarray,
        v: np.ndarray,
        matrix_wins: bool,
    ) -> np.ndarray:
        """One side of the answer from its buckets' dominance answers.

        ``asks`` yields, in bucket order, bucket l's (solver, probe) pair;
        the scan makes that inner call, whose [n] answer says which rows hit:
        row i hits when bucket l of row i holds a qualifying column k, one
        where M[i, k] >= v[k] when ``matrix_wins`` and v[k] >= M[i, k]
        otherwise.  Only a row's first hitting bucket is scanned, so the
        buckets are asked until every row has hit (all t when some row never
        does); the ledger books t either way.  ``order`` is the bucketed
        column order: [n, n], row i's own, on the matrix side and the [n]
        argsort of v, shared by every row, on the query side.  The scan reads
        M and v at the columns of each hitting row's first bucket and finds
        the first qualifying column, whose winning value is that row's
        answer; rows with no hit get inf.
        """
        self.counters.inner_queries += self.t
        asked = []
        hit = np.zeros(self.n, dtype=bool)
        for solver, probe in asks:
            answer = solver.query(probe)
            asked.append(answer)
            hit |= answer
            if hit.all():
                break
        rows = np.flatnonzero(hit)
        size = self.bucket_size
        positions = np.array(asked)[:, rows].argmax(axis=0)[:, None] * size + np.arange(size)
        inside = positions < self.n  # the last buckets may be short or empty
        # A hitting bucket holds an element, so it starts below n: a clamped
        # position past its end rereads a column of the same row that
        # ``inside`` already masks out, and cannot change the answer.
        positions = np.minimum(positions, self.n - 1)
        if order.ndim == 2:  # row i's bucket positions, in row i's order and in _sorted
            at = rows[:, None] * self.n + positions
            columns, entries = order.take(at), self._sorted.take(at)
        else:
            columns = order[positions]
            entries = self._m.take(rows[:, None] * self.n + columns)
        coordinates = v[columns]
        block, floor = (entries, coordinates) if matrix_wins else (coordinates, entries)
        ok = inside & (block >= floor)
        if not ok.any(axis=1).all():
            raise AssertionError("hitting bucket contained no qualifying element")
        first = ok.argmax(axis=1)
        self.counters.scan_length_total += int(first.sum()) + len(rows)
        out = np.full(self.n, INF)
        out[rows] = block[np.arange(len(rows)), first]
        return out

    def _matrix_side(self, v: np.ndarray) -> np.ndarray:
        """u[i] = min matrix entry in row i that is >= its query coordinate."""
        return self._scan(zip(self._slice_solvers, repeat(-v)), self._order, v, matrix_wins=True)

    def _query_side(self, v: np.ndarray) -> np.ndarray:
        """w[i] = min query coordinate that is >= its matrix entry in row i."""
        order = np.argsort(v, kind="stable")
        # probes[l]: v on bucket l of the sorted query, NaN (dominates nothing) elsewhere
        probes = np.full((self.t, self.n), np.nan)
        probes[self._bucket, order] = v[order]
        return self._scan(zip(repeat(self._matrix_solver), probes), order, v, matrix_wins=False)

    def _answer(self, v: np.ndarray) -> np.ndarray:
        return np.minimum(self._matrix_side(v), self._query_side(v))

