"""The naive solver: the leaf of every reduction chain.

NaiveSolver answers any of the six products with the O(n^2)-per-query
semantics, vectorized in numpy so that reduction chains, which issue very
many inner queries, run at a usable speed; the equality and boolean
products also answer a stack of instances in one call.  The pure-Python
definitions it is checked against live with the tests, in
``tests/referees.py``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import INF, Matrix, OnlineSolver, ReductionConfig, as_array, ceil_div


class NaiveSolver(OnlineSolver):
    """O(n*m)-per-query solver for any of the six products.

    Preprocessing keeps one array.  For the boolean and min-witness
    products it is the 0/1 matrix transposed and bit-packed: row k of
    ``_words`` holds column k of the matrix as ceil(n/64) uint64 words, row
    i of the matrix at bit i % 64 of word i // 64 (little bit order, the
    padding bits past n zero), so that a query ORs together the words of
    the columns its 1-coordinates select and unpacks the result once.  For
    the others it is the float64 matrix (floats represent the bounded ints
    and the infinity sentinels exactly).  Each query is one vectorized
    pass.

    The matrix may be n x m (see OnlineSolver): eq<-bool hands it an n x P
    boolean instance whose transpose is the build's own contiguous array,
    so the packing reads it without a copy.  The equality and boolean
    products also take a stack of b instances (see OnlineSolver).  The
    packed words keep each instance's columns behind one zero word row, and
    a stack's query block selects every instance's zero row besides its
    1-coordinates: the selected words, in instance order, fall into b
    nonempty runs, which one ``bitwise_or.reduceat`` ORs and one unpack
    turns into the [b, n] answer.  A plain matrix ORs its selected words
    with one ``reduce``: building and locating the runs costs about 2 us a
    call, which the many single-instance calls of the minmax chain would
    pay for nothing.
    """

    def __init__(
        self,
        matrix: Matrix | np.ndarray,
        config: Optional[ReductionConfig] = None,
        *,
        problem: str,
    ):
        super().__init__(matrix, config)
        self.problem = problem
        try:
            self._impl = getattr(self, f"_{problem}_answer")
        except AttributeError:
            raise ValueError(f"unknown problem {problem!r}") from None
        if problem in ("bool", "minwit"):
            rows = np.asarray(matrix.rows if isinstance(matrix, Matrix) else matrix)
            stack = (math.prod(rows.shape[:-2]), self.n, self.m)
            ones = (rows if rows.dtype == np.bool_ else rows == 1).reshape(stack)
            b, width = len(ones), ceil_div(self.n, 64)
            # _padded[j * (m + 1)] is instance j's zero row, its column k the next m rows
            self._padded = np.zeros((b * (self.m + 1), width), dtype=np.uint64)
            stacked = self._padded.view(np.uint8).reshape(b, self.m + 1, 8 * width)
            for instance, words in zip(ones, stacked):
                # row k: the rows i with entry (i, k) 1; packbits runs about
                # 5x faster on a contiguous transpose
                bits = np.packbits(np.ascontiguousarray(instance.T), axis=-1, bitorder="little")
                words[1:, : bits.shape[-1]] = bits
            columns = self._padded.reshape(b, self.m + 1, width)[:, 1:]
            self._words = columns.reshape(*rows.shape[:-2], self.m, width)  # without the zero rows
            if rows.ndim > 2 and problem == "bool":
                self._impl = self._bool_stack_answer
        else:
            self._m = as_array(matrix)

    def _answer(self, v: np.ndarray) -> np.ndarray:
        return self._impl(v)

    def _unpack(self, words: np.ndarray) -> np.ndarray:
        """Bool [..., n] of packed [..., ceil(n/64)] words."""
        bits = np.unpackbits(words.view(np.uint8), axis=-1, count=self.n, bitorder="little")
        return bits.view(np.bool_)

    def _bool_answer(self, v: np.ndarray) -> np.ndarray:
        ones = (v if v.dtype == np.bool_ else v == 1).nonzero()[0]
        return self._unpack(np.bitwise_or.reduce(self._words.take(ones, axis=0), axis=0))

    def _bool_stack_answer(self, v: np.ndarray) -> np.ndarray:
        """The [b, n] answer of a stack to a [b, m] query block."""
        # each instance's zero row, then the columns its query selects: b runs
        block = v.reshape(len(self._padded) // (self.m + 1), self.m)  # one row per instance
        zero_rows = np.ones((len(block), 1), dtype=bool)
        picked = np.concatenate((zero_rows, block if v.dtype == np.bool_ else block == 1), axis=1)
        at = picked.ravel().nonzero()[0]
        runs = at.searchsorted(np.arange(0, picked.size, picked.shape[1]))  # where each zero row lies
        return self._unpack(np.bitwise_or.reduceat(self._padded.take(at, axis=0), runs, axis=0))

    def _eq_answer(self, v: np.ndarray) -> np.ndarray:
        return (self._m == v[..., None, :]).any(axis=-1)

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
