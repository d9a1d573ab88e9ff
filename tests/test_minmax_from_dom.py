import random

import numpy as np
import pytest

from omv.core import INF, NEG_INF, Matrix, ReductionConfig, Vector, ceil_div
from omv.minmax_from_dom import MinMaxFromDomSolver
from omv.oracle import NaiveSolver

from referees import DEFINITIONS, naive_factory


def _buckets(solver, matrix, i):
    """Row i's buckets as (value, column) lists, read off the solver's order."""
    pairs = [(matrix.rows[i][k], k) for k in solver._order[i].tolist()]
    size = solver.bucket_size
    return [pairs[l * size : (l + 1) * size] for l in range(solver.t)]


def test_row_bucketing_frozen_example():
    matrix = Matrix([[7, 2, 9, 4], [1, 1, 1, 1], [5, 5, 3, 3], [0, 1, 2, 3]])
    solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=2), make_inner=naive_factory)
    assert sum(_buckets(solver, matrix, 0), []) == [(2, 1), (4, 3), (7, 0), (9, 2)]
    assert _buckets(solver, matrix, 0)[0] == [(2, 1), (4, 3)]
    assert _buckets(solver, matrix, 0)[1] == [(7, 0), (9, 2)]
    # equal values are ordered by column and may straddle the boundary
    assert _buckets(solver, matrix, 2)[0] == [(3, 2), (3, 3)]
    assert _buckets(solver, matrix, 2)[1] == [(5, 0), (5, 1)]


def test_single_bucket_when_t_is_one():
    matrix = Matrix([[3, 1], [2, 2]])
    solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=1), make_inner=naive_factory)
    assert _buckets(solver, matrix, 0) == [[(1, 1), (3, 0)]]


def test_matrix_side_matches_direct_enumeration():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 10)
        rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        matrix = Matrix(rows)
        config = ReductionConfig(t=rng.choice([1, 2, 3]))
        solver = MinMaxFromDomSolver(matrix, config, make_inner=naive_factory)
        v = Vector([rng.randint(-8, 8) for _ in range(n)])
        got = solver._matrix_side(np.array(v.entries, dtype=np.float64))
        for i in range(n):
            want = min(
                (rows[i][k] for k in range(n) if rows[i][k] >= v[k]), default=INF
            )
            assert got[i] == want


def test_frozen_examples():
    solver = MinMaxFromDomSolver(Matrix([[1, 5], [7, 2]]), ReductionConfig(t=2), make_inner=naive_factory)
    assert solver.query(Vector([3, 4])).entries == [3, 4]
    # query below everything in a row: answer is the row minimum
    solver = MinMaxFromDomSolver(Matrix([[4, 9], [2, 2]]), ReductionConfig(t=1), make_inner=naive_factory)
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
        # t = n + 3 leaves the last three buckets empty
        t = rng.choice([1, 2, None, n, n + 3])
        solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=t), make_inner=naive_factory)
        reference = NaiveSolver(matrix, problem="minmax")
        for _ in range(n):
            v = Vector([_extended_value(rng) for _ in range(n)])
            assert solver.query(v).entries == reference.query(v).entries, (
                rows,
                v.entries,
            )
        # an ndarray query that is a strided view of a larger buffer
        big = np.array([_extended_value(rng) for _ in range(2 * n)])
        strided = big[::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(solver.query(strided), reference.query(strided)), (rows, big)


def test_all_infinite_matrix_answers_inf():
    matrix = Matrix([[INF, INF], [INF, INF]])
    solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=2), make_inner=naive_factory)
    assert solver.query(Vector([5, -5])).entries == [INF, INF]


def test_counters_exact_inner_queries_and_scan_cap():
    rng = random.Random(23)
    for n, t in ((8, 2), (16, 4), (10, 3)):
        matrix = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        solver = MinMaxFromDomSolver(matrix, ReductionConfig(t=t), make_inner=naive_factory)
        for _ in range(4):
            snap = solver.counters.snapshot()
            solver.query(Vector([rng.randint(-5, 5) for _ in range(n)]))
            delta = solver.counters.since(snap)
            assert delta["inner_queries"] == 2 * t
            assert delta["scan_length_total"] <= 2 * n * ceil_div(n, t)


def _recording_factory(calls):
    """Naive inner solvers that log each query as (build position, query,
    answer); minmax<-dom builds its query-side solver first (position 0),
    then bucket l's solver at position l + 1."""
    built = []

    def factory(problem, matrix, config):
        position = len(built)
        solver = NaiveSolver(matrix, config, problem=problem)
        built.append(solver)
        answer = solver.query

        def query(v):
            hits = answer(v)
            calls.append((position, np.array(v), hits))
            return hits

        solver.query = query
        return solver

    return factory


def _asked_prefix(answers, t, n):
    """Check that a side asking len(answers) of its t buckets stopped at the
    first bucket after which every row had hit, or asked all t; return
    whether every row hit."""
    hit = np.zeros(n, dtype=bool)
    for answer in answers[:-1]:
        hit |= answer
    assert not hit.all(), "a bucket was asked after every row had hit"
    if answers:
        hit |= answers[-1]
    assert len(answers) == t or hit.all()
    return bool(hit.all())


def test_each_side_asks_its_buckets_until_every_row_has_hit():
    # the ledger books t per side whatever is asked; each side asks its
    # buckets in order and stops once every row has hit, so a row no bucket
    # serves forces all t: a -inf row on the matrix side and a +inf row on
    # the query side, against a finite query
    rng = random.Random(61)
    seen = {"early": 0, "matrix forced": 0, "query forced": 0}
    for trial in range(120):
        n = rng.randint(1, 12)
        rows = [[_extended_value(rng) for _ in range(n)] for _ in range(n)]
        unserved = (None, NEG_INF, INF)[trial % 3]
        if unserved is not None:
            rows[rng.randrange(n)] = [unserved] * n
        matrix = Matrix(rows)
        config = ReductionConfig(t=rng.choice([1, 2, 3, None, n]))
        calls = []
        solver = MinMaxFromDomSolver(matrix, config, make_inner=_recording_factory(calls))
        t, size = solver.t, solver.bucket_size
        for _ in range(4):
            finite = rng.random() < 0.5
            draw = (lambda: rng.randint(-9, 9)) if finite else (lambda: _extended_value(rng))
            vector = Vector([draw() for _ in range(n)])
            v = np.array(vector.entries, dtype=float)
            calls.clear()
            snap = solver.counters.snapshot()
            assert solver.query(vector).entries == DEFINITIONS["minmax"](matrix, vector).entries
            assert solver.counters.since(snap)["inner_queries"] == 2 * t
            # the matrix side asks bucket l's solver with -v, in bucket order
            matrix_side = [call for call in calls if call[0] > 0]
            assert [call[0] for call in matrix_side] == list(range(1, len(matrix_side) + 1))
            assert all(np.array_equal(query, -v) for _, query, _ in matrix_side)
            # the query side asks bucket l as v on the sorted positions
            # l*size .. (l+1)*size - 1 and NaN elsewhere, in bucket order
            order = np.argsort(v, kind="stable")
            query_side = [(query, hits) for position, query, hits in calls if position == 0]
            for bucket, (query, _) in enumerate(query_side):
                want = np.full(n, np.nan)
                columns = order[bucket * size : (bucket + 1) * size]
                want[columns] = v[columns]
                assert np.array_equal(query, want, equal_nan=True), (bucket, query, want)
            sides = {
                NEG_INF: _asked_prefix([hits for _, _, hits in matrix_side], t, n),
                INF: _asked_prefix([hits for _, hits in query_side], t, n),
            }
            seen["early"] += (len(matrix_side) < t) + (len(query_side) < t)
            if finite and unserved is not None:
                assert not sides[unserved]
                seen["matrix forced" if unserved == NEG_INF else "query forced"] += 1
    assert min(seen.values()) >= 20, seen


def _lying_factory(side, bucket):
    """Inner solvers that report every row hitting bucket ``bucket`` of
    ``side`` ("matrix" or "query") and no row hitting its other buckets;
    the other side's answers are true.  minmax<-dom builds its query-side
    solver first (position 0) and asks it bucket by bucket, so within one
    outer query its k-th call is bucket k; bucket l's solver is position
    l + 1."""
    built = []
    query_calls = []

    def factory(problem, matrix, config):
        position = len(built)
        solver = NaiveSolver(matrix, config, problem=problem)
        built.append(solver)
        if side == "matrix" and position > 0:
            solver.query = lambda v: np.full(len(v), position - 1 == bucket)
        elif side == "query" and position == 0:

            def query(v):
                query_calls.append(v)
                return np.full(len(v), len(query_calls) - 1 == bucket)

            solver.query = query
        return solver

    return factory


def test_scan_rejects_a_hit_on_a_bucket_without_a_qualifying_element():
    # the scan checks that each hitting row's first hitting bucket holds a
    # qualifying element; the inner solvers here lie about one bucket, and
    # each solver answers one outer query
    cases = [
        # bucket 0 of every row holds no qualifying element: no M[i, k] >= 1
        ("matrix", 0, [[0] * 4] * 4, [1] * 4, 2),
        # nor any v[k] >= 1
        ("query", 0, [[1] * 4] * 4, [0] * 4, 2),
        # n = 5, t = 4: buckets of 2, 2, 1 and 0 elements.  Bucket 3 is
        # empty; its clamped positions reread sorted position 4, a column
        # that qualifies, and only the ``inside`` mask keeps it out.
        ("matrix", 3, [[0, 1, 2, 3, 4]] * 5, [-9] * 5, 4),
        ("query", 3, [[0] * 5] * 5, [1, 2, 3, 4, 5], 4),
    ]
    for side, bucket, rows, v, t in cases:
        solver = MinMaxFromDomSolver(
            Matrix(rows), ReductionConfig(t=t), make_inner=_lying_factory(side, bucket)
        )
        if t == 4:  # bucket 3 starts at position 6, past n = 5
            assert solver.bucket_size == 2
        with pytest.raises(AssertionError, match="no qualifying element"):
            solver.query(Vector(v))
