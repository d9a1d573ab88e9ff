"""The three light reductions: dom from eq, minwit from minmax, bool from bmmp.

Dominance from equality first replaces values by ranks.  Matrix entries map
to 1 + (number of distinct matrix values strictly below), query entries to
the number of distinct matrix values less-or-equal; the mapping is an order
embedding, so M[i,k] <= v[k] iff rank(M[i,k]) <= query_rank(v[k]), with
everything now in [0, n^2].  A strict comparison a < b over nonnegative
integers holds iff at some bit position a has 0, b has 1, and the higher
bits agree, so testing rank <= query_rank (that is, rank < query_rank + 1)
becomes one equality product per bit position: slice l stores the high
bits of the rank where bit l is 0 (NaN, which equals nothing, otherwise),
the query stores the high bits of query_rank + 1 where bit l is 1 (NaN
otherwise), and a slice equality hit at any level means dominance.  The
ledger books rank_bit_count(n) levels, enough for n^2 distinct values, but
over a matrix with D distinct values a non-NaN coordinate has
query_rank + 1 <= D + 1, so every probe at a level l >= (D + 1).bit_length() is all NaN and
can never hit: only the levels below it are built and asked.  A NaN
coordinate, which dominates nothing, takes query rank D + 1, whose probe
is NaN at every level.  An OR of equality products over the same rows is
itself one equality product, of the slices side by side against the
probes side by side, so the levels are asked as one n x (levels * n)
instance, once per query: the rectangular variant of OMv
(Henzinger, Krinninger, Nanongkai and Saranurak, STOC 2015).

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


def rank_bit_count(n: int) -> int:
    """Number of bit slices needed for ranks of an n x n matrix.

    Ranks reach n^2 and the strictness shift adds one, so one bit beyond
    ceil(log2(n^2)) always suffices; the degenerate n = 1 still needs two
    bits to see the shift.
    """
    return max((n * n - 1).bit_length() + 1, 2)


class DomFromEqSolver(OnlineSolver):
    """Online dominance solver asking one equality query per query.

    ``bit_count`` = rank_bit_count(n) is the number of inner queries the
    ledger books per query.  Only the ``levels`` = (D + 1).bit_length()
    lowest slices are built and asked, D being the number of distinct
    values of the matrix's non-NaN entries: above them bit l of every
    query_rank + 1 <= D + 1 is 0, so the probe is all NaN and the slice
    equality never hits.  The slices stand side by side in one n x
    (levels * n) equality instance, [S_0 | ... | S_{levels-1}], asked once
    per query with the probes [p_0 | ... | p_{levels-1}].  Slice and probe
    values come from two small tables indexed by rank, a row per level.  The
    instance is built column-major by one lookup into a [levels, n, n]
    array, float32 (exact for these integers, at half the memory), and
    handed down as its transposed view, which eq<-bool reads column by
    column without a copy.  A NaN entry and every cell whose rank has bit l
    set are NaN, so eq<-bool spends no frequent value or rare entry on
    them.
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
        columns = as_array(matrix).T  # columns[k, i] = M[i, k]
        # ranks[k, i] = 1 + the number of distinct values below M[i, k] for
        # the present entries, from one sort of them: the NaN-heavy
        # instances minmax<-dom builds sort only their few values
        present = ~np.isnan(columns)
        values, inverse = np.unique(columns[present], return_inverse=True)
        ranks = np.zeros(columns.shape, dtype=np.intp)  # 0 marks a NaN entry
        ranks[present] = inverse + 1
        #: The distinct values of the non-NaN entries, ascending, then one NaN.
        self.values: np.ndarray = np.append(values, np.nan)
        self.bit_count = rank_bit_count(self.n)
        self.levels = (len(values) + 1).bit_length()
        # Both tables from one [levels, D + 2] grid over the ranks r = 0 .. D + 1:
        # bits[l, r] is bit l of r and above[l, r] the bits above it
        shifted = np.arange(len(values) + 2) >> np.arange(self.levels)[:, None]
        bits, above = shifted & 1, shifted >> 1
        # slices[l, r]: level l's slice value of an entry of rank r (0 for a
        # NaN entry), its bits above l where bit l is 0
        slices = np.where(bits == 0, above, np.nan)
        slices[:, 0] = np.nan
        # high[l, k, i] = slices[l, ranks[k, i]]: level l's slice at (i, k),
        # float32 while that holds every rank exactly (below 2^24)
        dtype = np.float32 if len(values) < 2**24 else np.float64
        high = np.empty((self.levels, self.n, self.n), dtype)
        np.take(slices.astype(dtype), ranks, axis=1, out=high)
        del present, inverse, ranks  # release them before the inner build
        self._inner = make_inner("eq", high.reshape(-1, self.n).T, self.config)
        # _probes[l, q]: level l's probe for query rank q, the bits above l of
        # q + 1 where bit l is 1; the last column, rank D + 1 of a NaN
        # coordinate, is the grid's column r = 0, whose bits are all 0: NaN.
        # Held in the slices' dtype, so eq<-bool compares them without a cast
        self._probes = np.roll(np.where(bits == 1, above, np.nan).astype(dtype), -1, axis=1)

    def query_rank(self, v: np.ndarray) -> np.ndarray:
        """Each coordinate's query rank: the number of distinct non-NaN
        matrix values at most it, and D + 1 for NaN (the NaN that ends
        ``values`` sorts last), whose probe column is all NaN."""
        return np.searchsorted(self.values, v, side="right")

    def _answer(self, v: np.ndarray) -> np.ndarray:
        probes = self._probes.take(self.query_rank(v), axis=1)
        self.counters.inner_queries += self.bit_count
        return self._inner.query(probes.ravel())


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
        self.counters.inner_queries += 1
        return self._inner.query(self._encode(v))


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
