"""Bounded monotone min-plus solver built from equality inner solvers.

The answer u[i] = min_k (M[i,k] + v[k]) is attacked at two scales.  Round
everything down by a parameter delta: with MH = floor(M/delta) and
vh = floor(v/delta), any true minimizer k has MH[i,k] + vh[k] within one of
the rounded minimum, so the candidate set

    C_i = { k : MH[i,k] + vh[k] in {rounded_min_i, rounded_min_i + 1} }

always contains every minimizer.  Step one lists C_i exactly for every i
whose candidate set is small (at most cap = floor(c*n/delta) elements,
with c the value-bound constant) by exploiting the declared monotonicity
direction, and takes the true minimum over the listed columns.  Step two
covers the large candidate sets by randomness: a hitting set R of columns
is sampled with replacement, each r in R carries an equality solver on the
column-shifted matrix M[i,k] - M[i,r], and for every offset d in
{0, ..., 3*delta - 2} the query  v[r] - v[k] - d  asks whether some k has
M[i,k] + v[k] = M[i,r] + v[r] - d.  Every equality hit contributes a
genuine sum, so taking the minimum over both steps never undershoots; it
can only overshoot when some large C_i escapes R entirely, which with
|R| = ceil(3 * delta * ln n) happens for any fixed query with probability
at most 1/n^2 over all rows combined.

Candidate listing per monotonicity direction:

    cols    one ordered multiset of (MH[i,k] + vh[k], k) swept down the
            rows, repositioning keys only where a column of MH increases;
    stream  one persistent multiset per output row, repositioned when a
            coordinate of vh grows from one query to the next;
    rows    each MH row splits into maximal constant blocks; a range-min
            index over vh plus per-value position lists of vh (both built
            per query) yield the block minima and the candidate positions;
    query   mirror of rows: vh splits into blocks, range-min indexes and
            position lists over the MH rows are built once at preprocess.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    INF,
    CounterLedger,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    SolverFactory,
    StreamOrderError,
    as_array,
    validate,
    validate_query,
)
from .oracle import naive_factory
from .structures import IndexedMultiset, RangeMinIndex


def round_down(values, delta: int) -> list[int]:
    return [v // delta for v in values]


@dataclass(frozen=True)
class CandidateReport:
    """Listing outcome for one output row.

    ``candidates`` holds the sorted 0-based candidate columns when the set
    is small, or None when it exceeds the cap.  ``rounded_min`` is the
    minimum of MH[i,k] + vh[k] over k.
    """

    rounded_min: int
    candidates: Optional[list[int]]


class _MultisetLister:
    """Shared report logic for the two multiset-driven cases."""

    def __init__(self, cap: int, ledger: CounterLedger):
        self.cap = cap
        self.ledger = ledger

    def _report(self, multiset: IndexedMultiset) -> CandidateReport:
        lo = multiset.min()
        if multiset.count_le(lo + 1) > self.cap:
            return CandidateReport(lo, None)
        found = multiset.enumerate_le(lo + 1, self.cap)
        self.ledger.candidates_enumerated += len(found)
        return CandidateReport(lo, sorted(found))


class ColumnsLister(_MultisetLister):
    """Candidate listing when matrix columns are nondecreasing."""

    def __init__(self, m_hat: list[list[int]], max_key: int, cap: int, ledger: CounterLedger):
        super().__init__(cap, ledger)
        self.m_hat = m_hat
        self.max_key = max_key
        n = len(m_hat)
        # increases[i] = rounded entries that grow when stepping to row i
        self.increases: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for k in range(n):
            for i in range(1, n):
                if m_hat[i][k] > m_hat[i - 1][k]:
                    self.increases[i].append((k, m_hat[i][k]))

    def reports(self, vector, delta: int) -> list[CandidateReport]:
        v_hat = round_down(vector, delta)
        n = len(self.m_hat)
        multiset = IndexedMultiset(self.max_key)
        key = [self.m_hat[0][k] + v_hat[k] for k in range(n)]
        for k in range(n):
            multiset.insert(key[k], k)
        out = []
        for i in range(n):
            if i:
                for k, grown in self.increases[i]:
                    multiset.remove(key[k], k)
                    key[k] = grown + v_hat[k]
                    multiset.insert(key[k], k)
                    self.ledger.multiset_updates += 1
            out.append(self._report(multiset))
        return out


class StreamLister(_MultisetLister):
    """Candidate listing when every coordinate grows along the query stream.

    Holds one multiset per output row across the whole stream, seeded with
    an implicit all-zero previous query (entries are nonnegative).
    """

    def __init__(self, m_hat: list[list[int]], max_key: int, cap: int, ledger: CounterLedger):
        super().__init__(cap, ledger)
        self.m_hat = m_hat
        n = len(m_hat)
        self.prev_v_hat = [0] * n
        self.multisets = [IndexedMultiset(max_key) for _ in range(n)]
        for i in range(n):
            for k in range(n):
                self.multisets[i].insert(m_hat[i][k], k)

    def reports(self, vector, delta: int) -> list[CandidateReport]:
        v_hat = round_down(vector, delta)
        n = len(self.m_hat)
        for k in range(n):
            if v_hat[k] < self.prev_v_hat[k]:
                raise StreamOrderError(
                    f"rounded coordinate {k + 1} fell from "
                    f"{self.prev_v_hat[k]} to {v_hat[k]}"
                )
            if v_hat[k] > self.prev_v_hat[k]:
                for i in range(n):
                    multiset = self.multisets[i]
                    multiset.remove(self.m_hat[i][k] + self.prev_v_hat[k], k)
                    multiset.insert(self.m_hat[i][k] + v_hat[k], k)
                    self.ledger.multiset_updates += 1
                self.prev_v_hat[k] = v_hat[k]
        return [self._report(self.multisets[i]) for i in range(len(self.m_hat))]


def _constant_runs(values: list[int]) -> list[tuple[int, int, int]]:
    """Maximal runs of equal values as (value, lo, hi) with hi inclusive."""
    runs = []
    lo = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] != values[lo]:
            runs.append((values[lo], lo, k - 1))
            lo = k
    return runs


def _positions_by_value(values: list[int]) -> dict[int, list[int]]:
    positions: dict[int, list[int]] = {}
    for k, v in enumerate(values):
        positions.setdefault(v, []).append(k)
    return positions


class _BlockLister:
    """Shared block-and-range-min logic for the rows and query cases.

    One side of the rounded sum is cut into maximal constant blocks, the
    other side answers range minima and positional value lookups inside
    each block.  A block whose (block value + range minimum) achieves the
    rounded minimum contributes the positions of the minimum and minimum+1
    inside it; a block achieving rounded minimum + 1 contributes the
    positions of its minimum only.
    """

    def __init__(self, cap: int, ledger: CounterLedger):
        self.cap = cap
        self.ledger = ledger

    def _count_in(self, positions: dict[int, list[int]], value: int, lo: int, hi: int) -> int:
        bucket = positions.get(value)
        if not bucket:
            return 0
        return bisect_right(bucket, hi) - bisect_left(bucket, lo)

    def _collect_in(self, positions: dict[int, list[int]], value: int, lo: int, hi: int) -> list[int]:
        bucket = positions.get(value)
        if not bucket:
            return []
        return bucket[bisect_left(bucket, lo) : bisect_right(bucket, hi)]

    def _report_from_blocks(
        self,
        blocks: list[tuple[int, int, int]],
        rmq: RangeMinIndex,
        positions: dict[int, list[int]],
    ) -> CandidateReport:
        minima = []
        best = None
        for value, lo, hi in blocks:
            inner_min, _ = rmq.range_min(lo, hi + 1)
            self.ledger.rmq_queries += 1
            minima.append(inner_min)
            total = value + inner_min
            if best is None or total < best:
                best = total

        wanted: list[tuple[int, int, int]] = []  # (target value, lo, hi)
        count = 0
        for (value, lo, hi), inner_min in zip(blocks, minima):
            total = value + inner_min
            if total == best:
                targets = (inner_min, inner_min + 1)
            elif total == best + 1:
                targets = (inner_min,)
            else:
                continue
            for target in targets:
                c = self._count_in(positions, target, lo, hi)
                if c:
                    count += c
                    wanted.append((target, lo, hi))
            if count > self.cap:
                return CandidateReport(best, None)

        candidates: list[int] = []
        for target, lo, hi in wanted:
            candidates.extend(self._collect_in(positions, target, lo, hi))
        candidates.sort()
        self.ledger.candidates_enumerated += len(candidates)
        return CandidateReport(best, candidates)


class RowsLister(_BlockLister):
    """Candidate listing when matrix rows are nondecreasing."""

    def __init__(self, m_hat: list[list[int]], cap: int, ledger: CounterLedger):
        super().__init__(cap, ledger)
        self.row_blocks = [_constant_runs(row) for row in m_hat]

    def reports(self, vector, delta: int) -> list[CandidateReport]:
        v_hat = round_down(vector, delta)
        rmq = RangeMinIndex(v_hat)
        positions = _positions_by_value(v_hat)
        return [
            self._report_from_blocks(blocks, rmq, positions)
            for blocks in self.row_blocks
        ]


class QueryLister(_BlockLister):
    """Candidate listing when every query vector is nondecreasing."""

    def __init__(self, m_hat: list[list[int]], cap: int, ledger: CounterLedger):
        super().__init__(cap, ledger)
        self.row_rmq = [RangeMinIndex(row) for row in m_hat]
        self.row_positions = [_positions_by_value(row) for row in m_hat]

    def reports(self, vector, delta: int) -> list[CandidateReport]:
        v_hat = round_down(vector, delta)
        blocks = _constant_runs(v_hat)
        return [
            self._report_from_blocks(blocks, rmq, positions)
            for rmq, positions in zip(self.row_rmq, self.row_positions)
        ]


_LISTERS = {
    "cols": ColumnsLister,
    "stream": StreamLister,
    "rows": RowsLister,
    "query": QueryLister,
}


def make_lister(
    matrix: Matrix | np.ndarray,
    delta: int,
    case: str,
    bound_constant: int = 4,
    ledger: Optional[CounterLedger] = None,
):
    """Build the candidate-listing engine for a monotonicity direction.

    The engine's reports(vector, delta) lists, per output row, the exact
    candidate set when it has at most floor(c*n/delta) elements and flags
    it as oversize otherwise.  The stream engine keeps state across calls
    and must see the queries in stream order.
    """
    if case not in _LISTERS:
        raise ValueError(f"unknown monotonicity case {case!r}")
    m_hat = (as_array(matrix) // delta).astype(np.int64).tolist()
    n = len(m_hat)
    ledger = ledger if ledger is not None else CounterLedger()
    cap = (bound_constant * n) // delta
    if case in ("cols", "stream"):
        max_key = 2 * ((bound_constant * n) // delta)
        return _LISTERS[case](m_hat, max_key, cap, ledger)
    return _LISTERS[case](m_hat, cap, ledger)


class BmmpFromEqSolver(OnlineSolver):
    """Online bounded monotone min-plus solver over equality inner solvers.

    Exact whenever every candidate set is small or hit by R; with the
    default |R| = ceil(3 * delta * ln n) a whole n-query stream is answered
    without any error with probability at least 1 - 1/n.  Forced-hit mode
    (hitting_set_size="full") uses every column and is deterministic and
    always exact.  Otherwise R is one sample of hitting_set_size columns,
    drawn with replacement from ``config.seed``.  A lower error rate costs
    a larger R: r*|R| columns are distributed like r independent samples
    of |R| pooled, so they miss a row only when all r samples would.  The
    matrix must be a Matrix: it carries the declared monotonicity case.
    """

    problem = "bmmp"
    inner_problem = "eq"

    def __init__(
        self,
        matrix: Matrix,
        config: Optional[ReductionConfig] = None,
        make_inner: SolverFactory = naive_factory,
    ):
        super().__init__(matrix, config)
        self.case = getattr(matrix, "monotone", None)
        if self.case is None:
            raise ValueError("bmmp matrix must declare a monotonicity case")
        self._m = m = as_array(matrix)
        violation = validate(m, "bmmp", monotone=self.case, bound_constant=self.config.bound_constant)
        if violation is not None:
            raise ValueError(f"invalid bmmp instance: {violation}")
        n = self.n
        self.delta = self.config.resolve_delta(n)
        self.cap = (self.config.bound_constant * n) // self.delta
        self.lister = make_lister(
            m,
            self.delta,
            self.case,
            bound_constant=self.config.bound_constant,
            ledger=self.counters,
        )
        self.hitting_size = self.config.resolve_hitting(n, self.delta)
        if self.hitting_size == "full":
            self.hitting_columns = list(range(n))
        else:
            rng = random.Random(self.config.seed)
            self.hitting_columns = [rng.randrange(n) for _ in range(self.hitting_size)]
        self._columns = np.array(self.hitting_columns, dtype=np.int64)
        # one equality solver per hitting column r, on the shifted M[i,k] - M[i,r]
        self._hitting_solvers = [
            make_inner("eq", m - m[:, r : r + 1], self.config) for r in self.hitting_columns
        ]
        self._hitting_labels = [f"eq[r{position}]" for position in range(len(self.hitting_columns))]
        self._offsets = np.arange(3 * self.delta - 1)

    def list_candidates(self, vector) -> list[CandidateReport]:
        """Step-one listing for one query (advances state in the stream case)."""
        return self.lister.reports(vector, self.delta)

    def _step1(self, v: np.ndarray) -> np.ndarray:
        """True minimum over each small candidate set; inf for oversize rows."""
        reports = self.list_candidates(v.astype(np.int64).tolist())
        rows = [i for i, report in enumerate(reports) if report.candidates]
        best = np.full(self.n, INF)
        if rows:
            cols = np.concatenate([reports[i].candidates for i in rows])
            owner = np.repeat(rows, [len(reports[i].candidates) for i in rows])
            np.minimum.at(best, owner, self._m[owner, cols] + v[cols])
        return best

    def _step2(self, v: np.ndarray) -> np.ndarray:
        """Minimum over the equality hits of every hitting column and offset."""
        columns = self._columns
        # probes[p, d] asks whether some k has M[i,k] + v[k] = M[i,r] + v[r] - d
        # for the p-th hitting column r and offset d.
        shifted = v[columns][:, None] - v[None, :]
        probes = shifted[:, None, :] - self._offsets[None, :, None]
        # deepest[p, i]: the largest offset that hit row i through column p
        deepest = np.full((len(columns), self.n), -1.0)
        for position, solver in enumerate(self._hitting_solvers):
            row = deepest[position]
            for offset, probe in enumerate(probes[position]):
                row[solver.query(probe)] = offset
            self.counters.count_inner(self._hitting_labels[position], len(self._offsets))
        sums = self._m[:, columns].T + v[columns][:, None]  # sums[p, i] = M[i,r] + v[r]
        return np.where(deepest >= 0, sums - deepest, INF).min(axis=0, initial=INF)

    def _answer(self, v: np.ndarray) -> np.ndarray:
        violation = validate_query(
            v,
            "bmmp",
            self.n,
            monotone=self.case,
            bound_constant=self.config.bound_constant,
        )
        if violation is not None:
            raise ValueError(f"invalid bmmp query: {violation}")
        return np.minimum(self._step1(v), self._step2(v))
