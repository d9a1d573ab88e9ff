"""Bounded monotone min-plus solver built from equality inner solvers.

The answer u[i] = min_k (M[i,k] + v[k]) is attacked at two scales.  Round
everything down by a parameter delta: with MH = floor(M/delta) and
vh = floor(v/delta), any true minimizer k has MH[i,k] + vh[k] within one of
the rounded minimum, so the candidate set

    C_i = { k : MH[i,k] + vh[k] in {rounded_min_i, rounded_min_i + 1} }

always contains every minimizer.  Step one lists C_i exactly for every i
whose candidate set is small (at most cap = floor(c*n/delta) elements,
with c the value-bound constant) and takes the true minimum over the
listed columns.  Step two covers the large candidate sets by randomness:
R is a sample of |R| <= n distinct columns, each r in R carries an
equality instance on the shifted matrix M[i,k] - M[i,r], and for an offset
d in {0, ..., 3*delta - 2} the query  v[r] - v[k] - d  asks whether some k
has M[i,k] + v[k] = M[i,r] + v[r] - d.  The |R| instances form one
stacked equality instance (see OnlineSolver), built with one inner factory
call.  Every equality hit is a genuine sum, so the minimum over both steps
never undershoots; it can only overshoot when some large C_i escapes R
entirely, which with the auto |R| of ReductionConfig.resolve_hitting
happens for any fixed query with probability at most 1/n^2 over all rows
combined, and never at |R| = n.

The ledger books all |R| * (3*delta - 1) of those queries, but step two
asks only the ones whose answer can lower an oversize row: offset 0 always
hits at k = r, so the sums M[i,r] + v[r] bound each row without a query,
and a probe whose sum lies below delta times a row's rounded minimum, or
at or above the row's bound so far, cannot change that row.  The answers
are those of asking every offset.  Step two asks the stack in rounds:
each instance's wanted offsets among d = 1, ..., 3*delta - 2 are taken in
increasing order, and call j carries the probe  v[r] - v - d  of its j-th
one for every instance that wants more than j, and NaN for the others.
So each instance still receives its probes one at a time, in increasing
offset, and a query makes as many calls as the most probes any one
instance wants: at most 3*delta - 2.  At cap >= n no row is oversize and,
as at |R| = 0, no stack is built (the ledger books the same count).

Step one is the solver's own list_candidates, the same code in every
monotonicity direction: one [n, n] key table MH + vh, its row minima, and
the columns within one of them, kept for the rows with at most cap of
them.  That is O(n^2) array work per query.  The paper lists the same sets
with ordered multisets and range-minimum indexes that exploit the declared
direction, and the ledger books the operations those structures would
perform:

    cols    multiset_updates += the entries of MH that grow from one row to
            the next (one multiset swept down the rows);
    stream  multiset_updates += n per coordinate of vh that grew since the
            last query (one persistent multiset per output row);
    rows    rmq_queries += the maximal constant blocks of the MH rows (one
            range minimum over vh per block);
    query   rmq_queries += n per maximal constant block of vh.

candidates_enumerated counts the listed columns in every direction.  Per-row
count tables would still pay n for each listed row, so their worst case is
O(n^2) as well; the dense pass keeps one code path instead of four.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    INF,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    SolverFactory,
    as_array,
    validate,
    validate_query,
)


@dataclass(frozen=True)
class CandidateReport:
    """Listing outcome for one output row: the sorted 0-based candidate
    columns when the set is small, or None when it exceeds the cap."""

    candidates: Optional[list[int]]


def _runs(values: np.ndarray) -> int:
    """Number of maximal constant runs along the last axis, summed over rows."""
    return values[..., :1].size + int(np.count_nonzero(np.diff(values)))


class BmmpFromEqSolver(OnlineSolver):
    """Online bounded monotone min-plus solver over equality inner solvers.

    Step one is the solver's own listing: it rounds the matrix by delta
    once, MH = floor(M/delta), and each query lists the columns within one
    of each row's rounded minimum for every row that has at most
    ``row_cap`` = floor(c*n/delta) of them.  The case picks which of the
    paper's structural counts the ledger books.  A query is checked by
    validate_query, handed the last accepted query, so a stream-case query
    whose coordinate falls below it is rejected before any state moves.

    Step two books |R| * (3*delta - 1) inner queries per query and asks
    only the (column, offset) probes that can lower an oversize row, in
    rounds: stacked call j carries each column's j-th wanted offset.

    Exact whenever every candidate set is small or hit by R, a sample of
    |R| = config.resolve_hitting(n, delta, row_cap) distinct columns drawn
    without replacement from ``config.seed``.  Such a sample misses a fixed
    set no more often than one drawn with replacement, so with the auto |R|
    a whole n-query stream is answered without any error with probability
    at least 1 - 1/n.  |R| = n (hitting_set_size="full") takes every column
    and never misses.  The matrix must be a Matrix: it carries the declared
    monotonicity case.
    """

    problem = "bmmp"
    inner_problem = "eq"

    def __init__(
        self,
        matrix: Matrix,
        config: ReductionConfig,
        make_inner: SolverFactory,
    ):
        super().__init__(matrix, config)
        self.case = getattr(matrix, "monotone", None)
        self._m = m = as_array(matrix)
        violation = validate(m, "bmmp", monotone=self.case, bound_constant=self.config.bound_constant)
        if violation is not None:
            raise ValueError(f"invalid bmmp instance: {violation}")
        n = self.n
        self.delta = self.config.resolve_delta(n)
        self.m_hat = (m // self.delta).astype(np.int64)
        self.row_cap = (self.config.bound_constant * n) // self.delta
        # the stream starts from an implicit all-zero query (entries are >= 0);
        # validate_query's order check reads the raw coordinates, the ledger their rounding
        self._previous = np.zeros(n)
        size = self.config.resolve_hitting(n, self.delta, self.row_cap)
        self.hitting_columns = sorted(random.Random(self.config.seed).sample(range(n), size))
        self._columns = np.array(self.hitting_columns, dtype=np.int64)
        # one stacked equality instance: instance p is the shifted matrix
        # M[i,k] - M[i,r] of the p-th hitting column r.  Its entries lie in
        # [-c*n, c*n] and its probes v[r] - v[k] - d in [-c*n - 3*delta, c*n]:
        # float32 while all are integers within +-2^24, exact there, float64 otherwise
        self._dtype = np.float32 if self.config.bound_constant * n + 3 * self.delta <= 2**24 else np.float64
        self._hitting = None
        if self.row_cap < n and size:
            shifted = np.subtract(m, m[:, self._columns].T[:, :, None], dtype=self._dtype)
            self._hitting = make_inner("eq", shifted, self.config)
        self._offsets = np.arange(1, 3 * self.delta - 1, dtype=np.int32)  # offset 0 needs no query

    def _book(self, values: np.ndarray, v_hat: np.ndarray) -> None:
        n = len(v_hat)
        if self.case == "stream":
            grew = np.count_nonzero(v_hat > self._previous // self.delta)
            self.counters.multiset_updates += n * int(grew)
            self._previous = values
        elif self.case == "cols":
            self.counters.multiset_updates += int(np.count_nonzero(np.diff(self.m_hat, axis=0) > 0))
        elif self.case == "rows":
            self.counters.rmq_queries += _runs(self.m_hat)
        else:
            self.counters.rmq_queries += n * _runs(v_hat)

    def list_candidates(self, vector) -> list[CandidateReport]:
        """Step-one listing for one unchecked query (advances state in the stream case)."""
        values = np.array(vector, dtype=np.float64)  # a copy: the stream case keeps it
        v_hat = (values // self.delta).astype(np.int64)
        self._book(values, v_hat)
        keys = self.m_hat + v_hat
        near = keys <= keys.min(axis=1, keepdims=True) + 1
        sizes = near.sum(axis=1)
        small = sizes <= self.row_cap
        columns = np.nonzero(near & small[:, None])[1]
        self.counters.candidates_enumerated += len(columns)
        ends = np.cumsum(np.where(small, sizes, 0)).tolist()
        columns = columns.tolist()
        return [
            CandidateReport(columns[start:end] if listed else None)
            for listed, start, end in zip(small.tolist(), [0, *ends], ends)
        ]

    def _step1(self, v: np.ndarray) -> np.ndarray:
        """True minimum over each small candidate set; inf for oversize rows."""
        listed = [report.candidates or () for report in self.list_candidates(v)]
        sizes = [len(candidates) for candidates in listed]
        cols = np.fromiter(itertools.chain.from_iterable(listed), dtype=np.int64, count=sum(sizes))
        owner = np.repeat(np.arange(self.n), sizes)
        best = np.full(self.n, INF)
        np.minimum.at(best, owner, self._m[owner, cols] + v[cols])
        return best

    def _step2(self, v: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Lower step one's answer ``best`` on its oversize rows (the rows it
        leaves at inf) by the equality hits that can.

        upper_i = min(best_i, min over r of M[i,r] + v[r]) stands for offset
        0, and a probe is asked only if its sum lies in [delta * lo_i,
        upper_i) for some oversize row i, lo_i its rounded minimum.
        """
        columns, offsets = self._columns, self._offsets
        self.counters.inner_queries += len(columns) * (3 * self.delta - 1)
        sums = self._m[:, columns].T + v[columns][:, None]  # sums[p, i] = M[i,r] + v[r]
        upper = np.minimum(best, sums.min(axis=0, initial=INF))
        oversize = np.flatnonzero(best == INF)
        floor = self.delta * (self.m_hat[oversize] + v // self.delta).min(axis=1)
        # offset d of column p proves sums[p, i] - d on row i: wanted when that
        # lies in [floor, upper) for some oversize row
        above = (sums[:, oversize] - floor)[:, :, None]
        over = (sums[:, oversize] - upper[oversize])[:, :, None]
        wanted = ((over < offsets) & (offsets <= above)).any(axis=1)
        # rounds[j, p]: instance p's j-th wanted offset, in increasing order,
        # NaN past its last; call j asks every instance its j-th probe (a NaN
        # offset makes a NaN row, an instance not asked), so each sees its
        # probes one at a time, in as many calls as the most any one wants
        instance, slot = np.nonzero(wanted)
        rank = wanted.cumsum(axis=1)[instance, slot] - 1
        rounds = np.full((rank.max(initial=-1) + 1, len(columns)), np.nan, self._dtype)
        rounds[rank, instance] = offsets[slot]
        exact = v.astype(self._dtype)  # the stack's dtype holds every probe exactly
        shifted = exact[columns][:, None] - exact[None, :]  # shifted[p] = v[r] - v
        deepest = np.zeros((len(columns), self.n))  # the deepest offset that hit, 0 where none did
        for depth in rounds[:, :, None]:
            np.copyto(deepest, depth, where=self._hitting.query(shifted - depth))
        return np.minimum(best, (sums - deepest).min(axis=0, initial=INF))

    def _answer(self, v: np.ndarray) -> np.ndarray:
        violation = validate_query(
            v, "bmmp", self.n, self.case, self.config.bound_constant, previous=self._previous
        )
        if violation is not None:
            raise ValueError(f"invalid bmmp query: {violation}")
        return self._step2(v, self._step1(v))
