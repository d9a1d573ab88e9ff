"""Naive reference solvers for all six products, plus brute-force helpers.

Two layers live here on purpose.  The module-level functions (bool_mv,
eq_exists_mv, ...) are definitional enumerations written in plain Python;
they are the ground truth that every test compares against and they stay
deliberately dumb.  NaiveSolver wraps the same O(n^2)-per-query semantics
in numpy so that reduction chains, which issue very many inner queries,
run at a usable speed; it is the leaf of every chain.  The two layers are
cross-checked against each other in the test suite.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    INF,
    DimensionMismatch,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    Value,
    Vector,
    as_array,
)


def _check_dims(matrix: Matrix, vector: Vector) -> int:
    if len(vector) != matrix.n:
        raise DimensionMismatch(
            f"vector length {len(vector)} against {matrix.n}x{matrix.n} matrix"
        )
    return matrix.n


def bool_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Boolean product: out[i] = 1 iff some k has M[i,k] = 1 and v[k] = 1."""
    n = _check_dims(matrix, vector)
    out = [
        1 if any(matrix.rows[i][k] == 1 and vector[k] == 1 for k in range(n)) else 0
        for i in range(n)
    ]
    return Vector(out)


def eq_exists_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Equality product: out[i] = 1 iff some k has M[i,k] = v[k]."""
    n = _check_dims(matrix, vector)
    out = [
        1 if any(matrix.rows[i][k] == vector[k] for k in range(n)) else 0
        for i in range(n)
    ]
    return Vector(out)


def dom_exists_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Dominance product: out[i] = 1 iff some k has M[i,k] <= v[k]."""
    n = _check_dims(matrix, vector)
    out = [
        1 if any(matrix.rows[i][k] <= vector[k] for k in range(n)) else 0
        for i in range(n)
    ]
    return Vector(out)


def minwitness_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Min-witness product: smallest 1-based k with M[i,k] = v[k] = 1, else inf."""
    n = _check_dims(matrix, vector)
    out: list[Value] = []
    for i in range(n):
        witness: Value = INF
        for k in range(n):
            if matrix.rows[i][k] == 1 and vector[k] == 1:
                witness = k + 1
                break
        out.append(witness)
    return Vector(out)


def minmax_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Min-max product: out[i] = min over k of max(M[i,k], v[k])."""
    n = _check_dims(matrix, vector)
    out = [
        min(max(matrix.rows[i][k], vector[k]) for k in range(n)) for i in range(n)
    ]
    return Vector(out)


def _extended_sum(a: Value, b: Value) -> Value:
    # +inf absorbs; the -inf + +inf combination never occurs because min-plus
    # inputs are validated finite or +inf only.
    if a == INF or b == INF:
        return INF
    return a + b


def minplus_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Min-plus product: out[i] = min over k of M[i,k] + v[k].

    The public bmmp problem is finite-valued; +inf entries are tolerated
    here for internal helpers and absorb any sum they appear in.
    """
    n = _check_dims(matrix, vector)
    out = [
        min(_extended_sum(matrix.rows[i][k], vector[k]) for k in range(n))
        for i in range(n)
    ]
    return Vector(out)


def candidate_set_bruteforce(
    matrix: Matrix, vector: Vector, delta: int, i: int
) -> set[int]:
    """Candidate columns for output i of min-plus, by full enumeration.

    Rounds M and v down by delta, finds the rounded row minimum, and
    returns every 0-based k whose rounded sum is the minimum or one above
    it.  This is the reference that list_candidates() must reproduce; it
    always contains every true minimizer of M[i,k] + v[k].
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    n = _check_dims(matrix, vector)
    sums = [matrix.rows[i][k] // delta + vector[k] // delta for k in range(n)]
    lo = min(sums)
    return {k for k in range(n) if sums[k] in (lo, lo + 1)}


def bit_trick_predicate(a: int, b: int, bits: int) -> bool:
    """Strict-less-than test via a per-bit decomposition.

    True iff some bit position l < bits has bit l of a clear, bit l of b
    set, and a and b identical above bit l.  For 0 <= a, b < 2**bits this
    is equivalent to a < b; the equality-product route to dominance rests
    on exactly this decomposition.
    """
    if a < 0 or b < 0 or a >= 1 << bits or b >= 1 << bits:
        raise ValueError("operands must lie in [0, 2**bits)")
    for level in range(bits):
        if (a >> level) & 1 == 0 and (b >> level) & 1 == 1:
            if a >> (level + 1) == b >> (level + 1):
                return True
    return False


class NaiveSolver(OnlineSolver):
    """O(n^2)-per-query solver for any of the six products.

    Preprocessing keeps one array.  For the boolean and min-witness
    products it is the 0/1 matrix transposed and bit-packed: row k of
    ``_words`` holds column k of the matrix as ceil(n/64) uint64 words, row
    i of the matrix at bit i % 64 of word i // 64 (little bit order, the
    padding bits past n zero), so that a query ORs together the words of
    the columns its 1-coordinates select and unpacks the result once.  For
    the others it is the float64 matrix (floats represent the bounded ints
    and the infinity sentinels exactly).  Each query is one vectorized
    pass.

    The boolean product also accepts a stack of s matrices, an [s, n, n]
    array: it is packed as one [s*n, ceil(n/64)] word array, a query is an
    [s, n] block whose row l goes with matrix l, and the answer is the OR
    of the s products.  A plain matrix is the case s = 1.  Through
    naive_factory it is the inner solver of every link built on its own.
    """

    def __init__(
        self,
        matrix: Matrix | np.ndarray,
        config: Optional[ReductionConfig] = None,
        problem: str = "bool",
    ):
        super().__init__(matrix, config)
        self.problem = problem
        try:
            self._impl = getattr(self, f"_{problem}_answer")
        except AttributeError:
            raise ValueError(f"unknown problem {problem!r}") from None
        if problem in ("bool", "minwit"):
            rows = np.asarray(matrix.rows if isinstance(matrix, Matrix) else matrix)
            ones = rows if rows.dtype == np.bool_ else rows == 1
            # row (l, k) of _words: the rows i with matrix l's (i, k) entry 1;
            # packbits runs about 5x faster on a contiguous transpose
            columns = np.ascontiguousarray(np.swapaxes(ones, -1, -2)).reshape(-1, self.n)
            bits = np.packbits(columns, axis=-1, bitorder="little")
            packed = np.zeros((len(bits), -(-self.n // 64) * 8), dtype=np.uint8)
            packed[:, : bits.shape[1]] = bits
            self._words = packed.view(np.uint64)
        else:
            self._m = as_array(matrix)

    def _answer(self, v: np.ndarray) -> np.ndarray:
        return self._impl(v)

    def _unpack(self, words: np.ndarray) -> np.ndarray:
        """Bool [..., n] of packed [..., ceil(n/64)] words."""
        bits = np.unpackbits(words.view(np.uint8), axis=-1, count=self.n, bitorder="little")
        return bits.view(np.bool_)

    def _bool_answer(self, v: np.ndarray) -> np.ndarray:
        ones = (v if v.dtype == np.bool_ else v == 1).ravel().nonzero()[0]
        return self._unpack(np.bitwise_or.reduce(self._words.take(ones, axis=0), axis=0))

    def _eq_answer(self, v: np.ndarray) -> np.ndarray:
        return (self._m == v).any(axis=1)

    def _dom_answer(self, v: np.ndarray) -> np.ndarray:
        return (self._m <= v).any(axis=1)

    def _minwit_answer(self, v: np.ndarray) -> np.ndarray:
        ones = np.flatnonzero(v == 1)
        if len(ones) == 0:
            return np.full(self.n, INF)
        hits = self._unpack(self._words.take(ones, axis=0))
        return np.where(hits.any(axis=0), ones[hits.argmax(axis=0)] + 1.0, INF)

    def _minmax_answer(self, v: np.ndarray) -> np.ndarray:
        return np.maximum(self._m, v).min(axis=1)

    def _bmmp_answer(self, v: np.ndarray) -> np.ndarray:
        return (self._m + v).min(axis=1)


def naive_factory(
    problem: str, matrix: Matrix | np.ndarray, config: ReductionConfig
) -> NaiveSolver:
    """SolverFactory building a NaiveSolver; the terminal link of every chain."""
    return NaiveSolver(matrix, config, problem=problem)
