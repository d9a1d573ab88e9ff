import random

import numpy as np

from omv.core import INF, NEG_INF, Matrix, ReductionConfig, Vector, ceil_div
from omv.minmax_from_dom import MinMaxFromDomSolver
from omv.oracle import NaiveSolver


def _buckets(solver, matrix, i):
    """Row i's buckets as (value, column) lists, read off the solver's order."""
    pairs = [(matrix.rows[i][k], k) for k in solver._order[i].tolist()]
    size = solver.bucket_size
    return [pairs[l * size : (l + 1) * size] for l in range(solver.t)]


def test_row_bucketing_frozen_example():
    matrix = Matrix([[7, 2, 9, 4], [1, 1, 1, 1], [5, 5, 3, 3], [0, 1, 2, 3]])
    solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=2))
    assert sum(_buckets(solver, matrix, 0), []) == [(2, 1), (4, 3), (7, 0), (9, 2)]
    assert _buckets(solver, matrix, 0)[0] == [(2, 1), (4, 3)]
    assert _buckets(solver, matrix, 0)[1] == [(7, 0), (9, 2)]
    # equal values are ordered by column and may straddle the boundary
    assert _buckets(solver, matrix, 2)[0] == [(3, 2), (3, 3)]
    assert _buckets(solver, matrix, 2)[1] == [(5, 0), (5, 1)]


def test_single_bucket_when_t_is_one():
    matrix = Matrix([[3, 1], [2, 2]])
    solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=1))
    assert _buckets(solver, matrix, 0) == [[(1, 1), (3, 0)]]


def test_matrix_side_matches_direct_enumeration():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 10)
        rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        matrix = Matrix(rows)
        solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=rng.choice([1, 2, 3])))
        v = Vector([rng.randint(-8, 8) for _ in range(n)])
        got = solver._matrix_side(np.array(v.entries, dtype=np.float64))
        for i in range(n):
            want = min(
                (rows[i][k] for k in range(n) if rows[i][k] >= v[k]), default=INF
            )
            assert got[i] == want


def test_frozen_examples():
    solver = MinMaxFromDomSolver(Matrix([[1, 5], [7, 2]]), ReductionConfig(t=2))
    assert solver.query(Vector([3, 4])).entries == [3, 4]
    # query below everything in a row: answer is the row minimum
    solver = MinMaxFromDomSolver(Matrix([[4, 9], [2, 2]]), ReductionConfig(t=1))
    assert solver.query(Vector([0, 0])).entries == [4, 2]


def _extended_value(rng):
    r = rng.random()
    if r < 0.08:
        return INF
    if r < 0.16:
        return NEG_INF
    return rng.randint(-9, 9)


def test_differential_including_infinities():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(2, 16)
        rows = [[_extended_value(rng) for _ in range(n)] for _ in range(n)]
        matrix = Matrix(rows)
        t = rng.choice([1, 2, None, n])
        solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=t))
        reference = NaiveSolver(matrix, problem="minmax")
        for _ in range(n):
            v = Vector([_extended_value(rng) for _ in range(n)])
            assert solver.query(v).entries == reference.query(v).entries, (
                rows,
                v.entries,
            )


def test_all_infinite_matrix_answers_inf():
    matrix = Matrix([[INF, INF], [INF, INF]])
    solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=2))
    assert solver.query(Vector([5, -5])).entries == [INF, INF]


def test_counters_exact_inner_queries_and_scan_cap():
    rng = random.Random(23)
    for n, t in ((8, 2), (16, 4), (10, 3)):
        matrix = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=t))
        for _ in range(4):
            snap = solver.counters.snapshot()
            solver.query(Vector([rng.randint(-5, 5) for _ in range(n)]))
            delta = solver.counters.since(snap)
            assert delta["inner_queries"] == 2 * t
            assert delta["scan_length_total"] <= 2 * n * ceil_div(n, t)
