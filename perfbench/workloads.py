"""Seeded inputs and numpy references for the benchmark workloads.

The generators here belong to the benchmark, not to ``omv.harness``, so a
change to the package's own instance generator cannot move the benchmark's
inputs.  Every input is a function of (workload, seed, stream index) only.

Two workloads, the deepest deterministic chain and the randomized link:

minmax-deep   FULL_CYCLE["minmax"] (minmax<-dom, dom<-eq, eq<-bool, naive)
              at n = 128 on uniform ints in [0, n].  The deepest
              deterministic chain and the heaviest on set-up and memory
              (hundreds of leaf solvers, each holding a dense n x n matrix).
bmmp-ties     FULL_CYCLE["bmmp"] (bmmp<-eq, eq<-bool, naive) at n = 64 in the
              stream case, c = 1, auto |R| < n.  Half the rows are
              narrow-band (all entries in one delta-bucket, so every column
              is a candidate and the row is oversize); the query
              coordinates share one delta-level that rises K times over a
              stream of 30 queries, repositioning every multiset key each
              time.  Step 2 is needed here and the listing writes to
              multiset state on every level change.

c = 1 because at c = 4 and n <= 64 the cap floor(c*n/delta) equals n, so
no row could ever be oversize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from omv import Matrix, Vector, validate, validate_query
from omv.chains import FULL_CYCLE
from omv.core import ceil_sqrt
from omv.folklore import rank_bit_count

#: Bucket width the bmmp generators use; equals the solver's auto
#: delta = ceil(64^(1/3)) at n = 64.
DELTA = 4
#: Queries per stream on bmmp-ties, and how many of them raise the level.
TIES_STREAM = 30
TIES_LEVEL_STEPS = 11


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an outer problem, its chain and its inputs.

    ``stateful`` workloads carry state across a stream (the bmmp stream
    case), so each stream gets a freshly built solver; the others answer
    every stream on one solver.  ``head_inner`` is the exact number of
    inner queries the head link must ask per outer query, and
    ``expected_counts`` are per-layer counts the traced run must reproduce
    exactly (the advertised cost of each link).
    """

    name: str
    problem: str
    chain: tuple[str, ...]
    n: int
    bound_constant: int
    monotone: str | None
    stateful: bool
    head_inner: int
    expected_counts: dict[str, float]
    matrix_rows: Callable[[int, int], np.ndarray]
    stream_rows: Callable[[int, int, int], np.ndarray]

    def matrix(self, seed: int) -> tuple[Matrix, np.ndarray]:
        """The validated instance matrix for ``seed`` and its int64 array."""
        arr = self.matrix_rows(self.n, seed)
        tag = "bounded" if self.problem == "bmmp" else "integer"
        matrix = Matrix(arr.tolist(), tag=tag, monotone=self.monotone)
        violation = validate(
            matrix, self.problem, monotone=self.monotone, bound_constant=self.bound_constant
        )
        if violation is not None:
            raise ValueError(f"{self.name}: generated matrix is invalid: {violation}")
        return matrix, arr

    def stream(self, seed: int, index: int) -> tuple[list[Vector], np.ndarray]:
        """The validated ``index``-th query stream for ``seed``."""
        arr = self.stream_rows(self.n, seed, index)
        if self.monotone == "stream" and np.any(np.diff(arr, axis=0) < 0):
            raise ValueError(f"{self.name}: generated stream is not nondecreasing")
        vectors = [Vector(row) for row in arr.tolist()]
        for j, vector in enumerate(vectors):
            violation = validate_query(
                vector,
                self.problem,
                self.n,
                monotone=self.monotone,
                bound_constant=self.bound_constant,
            )
            if violation is not None:
                raise ValueError(f"{self.name}: generated query {j + 1} is invalid: {violation}")
        return vectors, arr

    def answer_ok(self, matrix: np.ndarray, query: np.ndarray, answer: Vector) -> bool:
        """True when a solver's answer equals the reference entry for entry."""
        expected = reference(self.problem, matrix, query)
        try:
            got = np.asarray(answer.entries, dtype=np.float64)
        except (AttributeError, TypeError, ValueError):
            return False
        return got.shape == expected.shape and bool(np.array_equal(got, expected))


def reference(problem: str, matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The outer answer computed directly from its definition."""
    if problem == "minmax":
        return np.min(np.maximum(matrix, query[None, :]), axis=1)
    if problem == "bmmp":
        return np.min(matrix + query[None, :], axis=1)
    raise ValueError(f"no reference for problem {problem!r}")


def _uniform_matrix(n: int, seed: int) -> np.ndarray:
    return _rng(seed, 0).integers(0, n + 1, size=(n, n))


def _uniform_stream(n: int, seed: int, index: int) -> np.ndarray:
    return _rng(seed, 1, index).integers(0, n + 1, size=(16, n))


def _ties_matrix(n: int, seed: int) -> np.ndarray:
    rng = _rng(seed, 0)
    out = rng.integers(0, n + 1, size=(n, n))
    narrow = rng.permutation(n)[: n // 2]
    buckets = rng.integers(0, n // DELTA, size=narrow.size)
    out[narrow] = buckets[:, None] * DELTA + rng.integers(0, DELTA, size=(narrow.size, n))
    return out


def _ties_stream(n: int, seed: int, index: int) -> np.ndarray:
    """A stream whose coordinates all sit on one nondecreasing delta-level.

    The level starts at 0 and rises by one on exactly TIES_LEVEL_STEPS of
    the queries after the first; within a level every coordinate only
    grows inside its bucket, so the stream is coordinate-wise nondecreasing.
    """
    rng = _rng(seed, 1, index)
    rises = np.zeros(TIES_STREAM, dtype=np.int64)
    rises[1 + rng.choice(TIES_STREAM - 1, TIES_LEVEL_STEPS, replace=False)] = 1
    levels = np.cumsum(rises)
    out = np.empty((TIES_STREAM, n), dtype=np.int64)
    offset = rng.integers(0, DELTA, size=n)
    for j in range(TIES_STREAM):
        if j and levels[j] == levels[j - 1]:
            offset = rng.integers(offset, DELTA)
        elif j:
            offset = rng.integers(0, DELTA, size=n)
        out[j] = levels[j] * DELTA + offset
    return out


def _minmax_deep() -> Workload:
    n = 128
    t = ceil_sqrt(n)
    return Workload(
        name="minmax-deep",
        problem="minmax",
        chain=tuple(FULL_CYCLE["minmax"]),
        n=n,
        bound_constant=4,
        monotone=None,
        stateful=False,
        head_inner=2 * t,
        expected_counts={
            "minmax_from_dom.inner_per_query": 2 * t,
            "folklore.inner_per_query": rank_bit_count(n),
            "eq_from_bool.inner_per_query": t,
        },
        matrix_rows=_uniform_matrix,
        stream_rows=_uniform_stream,
    )


def _bmmp_ties() -> Workload:
    n = 64
    # |R| * (3*delta - 1) = 50 * 11 = 550 equality probes per query.
    probes = math.ceil(3 * DELTA * math.log(n)) * (3 * DELTA - 1)
    return Workload(
        name="bmmp-ties",
        problem="bmmp",
        chain=tuple(FULL_CYCLE["bmmp"]),
        n=n,
        bound_constant=1,
        monotone="stream",
        stateful=True,
        head_inner=probes,
        expected_counts={
            "bmmp_from_eq.inner_per_query": probes,
            "eq_from_bool.inner_per_query": ceil_sqrt(n),
        },
        matrix_rows=_ties_matrix,
        stream_rows=_ties_stream,
    )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (_minmax_deep(), _bmmp_ties())}
