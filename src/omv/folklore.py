"""The three light reductions: dom from eq, minwit from minmax, bool from bmmp.

Dominance from equality first replaces values by ranks.  Matrix entries map
to 1 + (number of distinct matrix values strictly below), query entries to
the number of distinct matrix values less-or-equal; the mapping is an order
embedding, so M[i,k] <= v[k] iff rank(M[i,k]) <= query_rank(v[k]), with
everything now in [0, n^2].  A strict comparison a < b over nonnegative
integers holds iff at some bit position a has 0, b has 1, and the higher
bits agree, so testing rank <= query_rank (that is, rank < query_rank + 1)
becomes one equality product per bit position: slice l stores the high
bits of the rank where bit l is 0 (a sentinel otherwise), the query stores
the high bits of query_rank + 1 where bit l is 1, and a slice equality hit
at any level means dominance.  The ledger books rank_bit_count(n) levels,
enough for n^2 distinct values, but a matrix with D distinct values has
query_rank + 1 <= D + 1, so every probe at a level l >= (D + 1).bit_length()
is all sentinel and can never hit: only the levels below it are built and
asked.

Min-witness from min-max encodes positions as values: mapping 1-entries to
their own 1-based column index and 0-entries to +inf makes the min-max of
the encoded pair equal the smallest common 1-position.

Boolean from bounded monotone min-plus tilts the values by their position:
with rows/columns/queries numbered from 1, matrix entries become
2*(i+k) - M[i,k] and the j-th query becomes 2*(j-k) - v[k] + 2n (the +2n
keeps entries nonnegative and shifts the decision target by the same
constant).  The min-plus sum at (i,k) is then 2*(i+j) + 2n minus
(M[i,k] + v[k]), so the minimum hits 2*(i+j) - 2 + 2n exactly when some k
has both entries equal to 1.  The tilt makes the encoded matrix
nondecreasing along rows and columns and the encoded queries nondecreasing
across the stream, which is the monotonicity promise the inner solver gets.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .core import (
    INF,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    SolverFactory,
    as_array,
)
from .oracle import naive_factory


class RankMap:
    """Order embedding of matrix values (and arbitrary query values) into ints.

    rank() is defined on values that appear in the matrix and starts at 1;
    query_rank() is defined on any value and counts the distinct matrix
    values less-or-equal, starting at 0.  For a matrix value a and any b,
    a <= b iff rank(a) <= query_rank(b).  Both accept a single value or an
    array of values.

    NaN marks an absent value and compares true with nothing: np.unique
    sorts a NaN matrix entry last, so it takes the top rank, which no
    query rank reaches, and a NaN query takes query rank 0, below every
    rank.
    """

    def __init__(self, matrix: Matrix | np.ndarray):
        #: The distinct matrix values, ascending.
        self.values: np.ndarray = np.unique(as_array(matrix))

    def rank(self, value):
        return np.searchsorted(self.values, value, side="left") + 1

    def query_rank(self, value):
        return np.where(np.isnan(value), 0, np.searchsorted(self.values, value, side="right"))


def rank_bit_count(n: int) -> int:
    """Number of bit slices needed for ranks of an n x n matrix.

    Ranks reach n^2 and the strictness shift adds one, so one bit beyond
    ceil(log2(n^2)) always suffices; the degenerate n = 1 still needs two
    bits to see the shift.
    """
    return max((n * n - 1).bit_length() + 1, 2)


class DomFromEqSolver(OnlineSolver):
    """Online dominance solver asking one equality query per bit slice.

    ``bit_count`` = rank_bit_count(n) is the number of inner queries the
    ledger books per query.  Only the ``levels`` = (D + 1).bit_length()
    lowest slices are built and asked, D >= 1 being the number of distinct
    matrix values (so at least two levels): above them bit l of every
    query_rank + 1 <= D + 1 is 0, so the probe is all sentinel and the slice
    equality never hits.  The slices are built one level at a time, so no
    [levels, n, n] array exists at any point; a query computes all its
    probes at once against the [levels, 1] column of level shifts.
    """

    problem = "dom"
    inner_problem = "eq"

    def __init__(
        self,
        matrix: Matrix | np.ndarray,
        config: Optional[ReductionConfig] = None,
        make_inner: SolverFactory = naive_factory,
    ):
        super().__init__(matrix, config)
        m = as_array(matrix)
        self.rank_map = RankMap(m)
        self.bit_count = rank_bit_count(self.n)
        self.levels = (len(self.rank_map.values) + 1).bit_length()
        ranks = self.rank_map.rank(m)
        self._slices: list[OnlineSolver] = []
        for level in range(self.levels):
            # slice l: the rank's bits above l where bit l is 0, sentinel -1 elsewhere
            shifted = ranks >> level
            high = (shifted >> 1).astype(np.float64)
            high[shifted & 1 == 1] = -1
            self._slices.append(make_inner("eq", high, self.config))
        self._shifts = np.arange(self.levels)[:, None]

    def _answer(self, v: np.ndarray) -> np.ndarray:
        # probe l: the bits above l of query_rank + 1 where bit l is 1, sentinel -2 elsewhere
        shifted = (self.rank_map.query_rank(v) + 1) >> self._shifts
        probes = np.where(shifted & 1 == 1, shifted >> 1, -2).astype(np.float64)
        out = np.zeros(self.n, dtype=bool)
        for inner, probe in zip(self._slices, probes):
            out |= inner.query(probe)
        self.counters.inner_queries += self.bit_count
        return out


class MinWitnessFromMinMaxSolver(OnlineSolver):
    """Online min-witness solver asking one min-max query per query."""

    problem = "minwit"
    inner_problem = "minmax"

    def __init__(
        self,
        matrix: Matrix | np.ndarray,
        config: Optional[ReductionConfig] = None,
        make_inner: SolverFactory = naive_factory,
    ):
        super().__init__(matrix, config)
        self._positions = np.arange(1.0, self.n + 1)
        self._inner = make_inner("minmax", self._encode(as_array(matrix)), self.config)

    def _encode(self, values: np.ndarray) -> np.ndarray:
        return np.where(values == 1, self._positions, INF)

    def _answer(self, v: np.ndarray) -> np.ndarray:
        answer = self._inner.query(self._encode(v))
        self.counters.inner_queries += 1
        return np.where(answer <= self.n, answer, INF)


def tilt_matrix(matrix: Matrix | np.ndarray) -> Matrix:
    """Position-tilted boolean matrix for the min-plus route (1-based i, k)."""
    m = as_array(matrix)
    positions = np.arange(1, len(m) + 1)
    tilted = 2 * (positions[:, None] + positions[None, :]) - m
    return Matrix(tilted.astype(np.int64).tolist(), tag="bounded", monotone="stream")


def tilt_query(v: np.ndarray, j: int, n: int) -> np.ndarray:
    """Position-tilted j-th boolean query, shifted by 2n to stay nonnegative."""
    return 2.0 * (j - np.arange(1, n + 1)) - v + 2 * n


class BoolFromBmmpSolver(OnlineSolver):
    """Online boolean solver asking one bounded monotone min-plus query each.

    Encoded entries lie in [1, 4n] for the first n queries of a stream (the
    defining stream shape), so the inner solver always gets the bound
    constant 4, whatever the outer one.  Longer streams run in epochs of n
    queries: each epoch builds a fresh inner solver (with its own seed) and
    numbers its queries from 1 again, which keeps the encoded stream inside
    the bound and nondecreasing.  Preprocessing is thereby amortized over
    the n queries of an epoch.
    """

    problem = "bool"
    inner_problem = "bmmp"

    def __init__(
        self,
        matrix: Matrix | np.ndarray,
        config: Optional[ReductionConfig] = None,
        make_inner: SolverFactory = naive_factory,
    ):
        super().__init__(matrix, config)
        self._make_inner = make_inner
        self._tilted = tilt_matrix(matrix)
        self._targets = 2.0 * np.arange(1, self.n + 1) - 2 + 2 * self.n
        self._inner = self._build_inner(epoch=0)

    def _build_inner(self, epoch: int) -> OnlineSolver:
        config = replace(self.config, bound_constant=4, seed=self.config.seed + epoch)
        return self._make_inner("bmmp", self._tilted, config)

    def _answer(self, v: np.ndarray) -> np.ndarray:
        epoch, offset = divmod(self.query_index - 1, self.n)
        if offset == 0 and epoch > 0:
            self._inner = None  # release the finished epoch before building the next
            self._inner = self._build_inner(epoch)
        j = offset + 1
        answer = self._inner.query(tilt_query(v, j, self.n))
        self.counters.inner_queries += 1
        return answer == self._targets + 2 * j
