import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omv.core import INF, NEG_INF, DimensionMismatch, Matrix, ReductionConfig, Vector, ceil_div
from omv.eq_from_bool import EqFromBoolSolver, _top_values
from omv.folklore import DomFromEqSolver
from omv.oracle import NaiveSolver

from referees import bool_mv, eq_exists_mv


def _column_tables(solver, k):
    """Column k's frequent values (most frequent first) and its rare
    values mapped to the rows holding them, read off the solver's tables."""
    top_columns, top_values = _pairs(solver)
    top = [value for value in top_values[top_columns == k].tolist() if not np.isnan(value)]
    rare = {}
    place = np.arange(solver.m)[solver._rare_at] == k
    values, rows = solver._rare_values[:, place].ravel(), solver._rare_rows[:, place].ravel()
    for value, i in zip(values.tolist(), rows.tolist()):
        if not np.isnan(value):
            rare.setdefault(value, []).append(i)
    if solver.m > solver.n:
        # the table keeps a column only when it holds a rare entry
        assert place.any() == bool(rare)
    return top, rare


def _pairs(solver):
    """The (column, value) of every column the inner boolean instance gets,
    in its order: the whole [s, n] table of a square matrix, NaN cells
    included, or the pairs of a wider one."""
    columns = np.arange(solver.m)[solver._top_at]
    return np.broadcast_to(columns, solver.top_values.shape).ravel(), solver.top_values.ravel()


def test_frequency_table_frozen_example():
    # column (5, 5, 7, 9) with two frequent slots: 5 twice, then the 7/9
    # frequency tie broken by smaller value; 9 stays rare at row 4.
    column = [5, 5, 7, 9]
    matrix = Matrix([[c, 0, 0, 0] for c in column])
    solver = EqFromBoolSolver(matrix, ReductionConfig(t=2))
    assert _column_tables(solver, 0) == ([5, 7], {9: [3]})


def test_all_distinct_column_with_large_t():
    matrix = Matrix([[1, 0], [2, 0]])
    solver = EqFromBoolSolver(matrix, ReductionConfig(t=2))
    assert _column_tables(solver, 0) == ([1, 2], {})


def test_constant_column_single_slot():
    matrix = Matrix([[4, 4], [4, 4]])
    solver = EqFromBoolSolver(matrix, ReductionConfig(t=1))
    assert [_column_tables(solver, k) for k in range(2)] == [([4], {}), ([4], {})]


def _top_values_by_definition(rows, t):
    """Each column's values by falling count, ties by smaller value, the
    first t kept; s = min(t, most distinct values in a column) rows, short
    columns padded with NaN."""
    n = len(rows)
    ranked = []
    for k in range(n):
        counts = Counter(rows[i][k] for i in range(n))
        ranked.append(sorted(counts, key=lambda value: (-counts[value], value))[:t])
    s = min(t, max(len(values) for values in ranked))
    return [[ranked[k][l] if l < len(ranked[k]) else float("nan") for k in range(n)] for l in range(s)]


_VALUE_POOL = [0, 1, 2, 3, -1, 2**40, -(2**40), float("inf"), float("-inf")]


@st.composite
def _top_value_cases(draw):
    """A matrix over a few pool values (more than t distinct per column at
    times) and a t that may exceed n."""
    n = draw(st.integers(1, 10))
    pool = draw(st.lists(st.sampled_from(_VALUE_POOL), min_size=1, max_size=len(_VALUE_POOL), unique=True))
    row = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return rows, draw(st.integers(1, n + 3))


@settings(max_examples=200, deadline=None)
@given(_top_value_cases())
@example(([[7]], 4))
@example(([[3, 2**40, 0], [1, -(2**40), 0], [3, float("inf"), 1]], 2))
def test_top_values_match_their_definition(case):
    rows, t = case
    columns = np.ascontiguousarray(np.array(rows, dtype=np.float64).T)
    table = _top_values(columns, t)
    want = np.array(_top_values_by_definition(rows, t), dtype=np.float64)
    assert table.shape == want.shape
    assert np.array_equal(table, want, equal_nan=True)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_slice_stack_is_handed_down_column_major(n):
    # the boolean instance is n x (s * n), one column per cell of the
    # [s, n] table
    rng = np.random.default_rng(n)
    m = rng.integers(0, 6, size=(n, n)).astype(np.float64)
    handed = []

    def factory(problem, pairs, config):
        handed.append(pairs)
        return NaiveSolver(pairs, config, problem=problem)

    solver = EqFromBoolSolver(m, ReductionConfig(t=3), make_inner=factory)
    (pairs,) = handed
    # the leaf's packing transpose is the build's own array, not a copy
    assert pairs.T.flags.c_contiguous
    columns, values = _pairs(solver)
    assert np.array_equal(pairs, m[:, columns] == values)
    from_view = NaiveSolver(pairs, problem="bool")
    from_copy = NaiveSolver(np.ascontiguousarray(pairs), problem="bool")
    assert np.array_equal(from_view._words, from_copy._words)


@pytest.mark.parametrize("n,m", [(1, 3), (3, 7), (5, 5), (6, 2), (8, 24), (9, 40)])
def test_rectangular_instance_matches_its_definition(n, m):
    # dom<-eq asks one n x (levels * n) instance.  Each column keeps its t
    # most frequent values and lists the others as rare; NaN, which equals
    # nothing, is neither, and with several blocks no NaN cell reaches the
    # leaf
    rng = np.random.default_rng(10 * n + m)
    matrix = rng.integers(0, 4, size=(n, m)).astype(np.float64)
    matrix[rng.random((n, m)) < 0.3] = np.nan
    t = 2
    solver = EqFromBoolSolver(matrix, ReductionConfig(t=t))
    assert solver.t == t and solver.m == m
    for k in range(m):
        column = matrix[:, k].tolist()
        values = [x for x in column if not np.isnan(x)]
        ranked = sorted(set(values), key=lambda value: (-values.count(value), value))
        rows = {value: [i for i in range(n) if column[i] == value] for value in ranked[t:]}
        assert _column_tables(solver, k) == (ranked[:t], rows)
    if m > n:
        assert not np.isnan(solver.top_values).any()
    for _ in range(6):
        v = rng.integers(0, 5, size=m).astype(np.float64)
        v[rng.random(m) < 0.2] = np.nan
        assert np.array_equal(solver.query(v), (matrix == v).any(axis=1))


def test_rare_values_respect_frequency_cap():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 16)
        t = rng.choice([1, 2, ceil_div(n, 2)])
        matrix = Matrix([[rng.randint(0, 4) for _ in range(n)] for _ in range(n)])
        solver = EqFromBoolSolver(matrix, ReductionConfig(t=t))
        cap = ceil_div(n, t)
        for k in range(n):
            column = [row[k] for row in matrix.rows]
            top, rare = _column_tables(solver, k)
            for value, rows in rare.items():
                assert rows == sorted(rows)
                assert column.count(value) == len(rows) <= cap
            assert len(set(top)) == len(top)


def test_rare_table_owns_its_memory():
    # all-distinct columns at t = 1: every column has n - 1 rare entries
    n = 40
    matrix = np.arange(n * n, dtype=np.float64).reshape(n, n)
    solver = EqFromBoolSolver(matrix, ReductionConfig(t=1))
    width = len(solver._rare_values)
    assert width == n - 1
    tables = (solver._rare_values, solver._rare_rows)
    # no table is a view that keeps a larger build-time array alive
    assert all(table.base is None for table in tables)
    assert sum(table.nbytes for table in tables) <= (8 + 4) * n * width


def test_absent_query_value_contributes_nothing():
    matrix = Matrix([[1, 1], [2, 2]])
    solver = EqFromBoolSolver(matrix, ReductionConfig(t=1))
    assert solver.query(Vector([99, 98])).entries == [0, 0]


def test_differential_against_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 16)
        wide = rng.random() < 0.5
        span = (0, 3) if not wide else (-50, 50)
        t = rng.choice([1, 2, None, n])
        matrix = Matrix([[rng.randint(*span) for _ in range(n)] for _ in range(n)])
        solver = EqFromBoolSolver(matrix, ReductionConfig(t=t))
        reference = NaiveSolver(matrix, problem="eq")
        for _ in range(n):
            v = Vector([rng.randint(*span) for _ in range(n)])
            assert solver.query(v).entries == reference.query(v).entries


def test_counters_exact_inner_queries_and_scan_cap():
    rng = random.Random(4)
    for n, t in ((8, 2), (16, 4), (12, 5)):
        matrix = Matrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        solver = EqFromBoolSolver(matrix, ReductionConfig(t=t))
        for _ in range(5):
            snap = solver.counters.snapshot()
            solver.query(Vector([rng.randint(0, 3) for _ in range(n)]))
            delta = solver.counters.since(snap)
            assert delta["inner_queries"] == t
            assert delta["scan_length_total"] <= n * ceil_div(n, t)


def test_all_zero_slices_counted_as_shortcut():
    # one distinct value per column but three slots: two slices are empty,
    # left out of the boolean instance (one column per cell of the [1, 2]
    # table), and still booked as asked
    matrix = Matrix([[4, 4], [4, 4]])
    shapes = []

    def factory(problem, pairs, config):
        shapes.append(pairs.shape)
        return NaiveSolver(pairs, config, problem=problem)

    solver = EqFromBoolSolver(matrix, ReductionConfig(t=3), make_inner=factory)
    solver.query(Vector([4, 0]))
    assert solver.counters.inner_queries == 3
    assert shapes == [(2, 2)]


def test_t2_matches_equality_definition():
    # every output entry is 1 exactly when some column k holds an equal
    # (M[i,k], v[k]) pair
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(2, 10)
        matrix = Matrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        solver = EqFromBoolSolver(matrix, ReductionConfig(t=2))
        v = Vector([rng.randint(0, 3) for _ in range(n)])
        out = solver.query(v)
        for i in range(n):
            assert out[i] == any(matrix.rows[i][k] == v[k] for k in range(n))


def test_composes_with_real_boolean_inner_chain():
    rng = random.Random(14)
    matrix = Matrix([[rng.randint(0, 2) for _ in range(6)] for _ in range(6)])
    calls = []

    def factory(problem, inner_matrix, config):
        assert problem == "bool"
        calls.append(len(inner_matrix))
        return NaiveSolver(inner_matrix, config, problem="bool")

    solver = EqFromBoolSolver(matrix, ReductionConfig(t=2), make_inner=factory)
    v = Vector([rng.randint(0, 2) for _ in range(6)])
    assert solver.query(v).entries == eq_exists_mv(matrix, v).entries
    assert calls  # inner instances were actually created through the factory


@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
def test_stacked_leaf_is_the_or_of_its_slices(s, n):
    # the leaf over the n x (s * n) matrix [S_0 | ... | S_{s-1}] answers the
    # query [q_0 | ... | q_{s-1}] with the OR of the s slice products
    rng = random.Random(100 * s + n)
    slices = [[[rng.randint(0, 1) for _ in range(n)] for _ in range(n)] for _ in range(s)]
    leaf = NaiveSolver(np.concatenate(np.array(slices, dtype=bool), axis=1), problem="bool")
    blocks = [np.zeros((s, n), dtype=bool)]
    blocks += [np.array([[rng.random() < 0.4 for _ in range(n)] for _ in range(s)]) for _ in range(6)]
    for block in blocks:
        want = [0] * n
        for rows, row in zip(slices, block):
            product = bool_mv(Matrix(rows, tag="boolean"), Vector(row.astype(int).tolist()))
            want = [a | b for a, b in zip(want, product.entries)]
        assert leaf.query(block.ravel()).astype(int).tolist() == want


def test_stacked_leaf_rejects_a_block_of_the_wrong_width():
    leaf = NaiveSolver(np.ones((4, 12), dtype=bool), problem="bool")
    for width in (4, 15):
        with pytest.raises(DimensionMismatch):
            leaf.query(np.ones(width, dtype=bool))


_POOL = [0, 1, 2, 3, 2**40, -(2**40)]


@st.composite
def _eq_streams(draw):
    """A duplicate-heavy matrix, a t in [1, n] and queries partly drawn from
    the matrix's own entries, so that rare values get hit."""
    n = draw(st.integers(1, 12))
    t = draw(st.integers(1, n))
    row = st.lists(st.sampled_from(_POOL), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    # a coordinate is either some row's entry in its column or a pool value
    coordinate = st.one_of(
        st.integers(0, n - 1).map(lambda i: ("row", i)),
        st.sampled_from(_POOL + [7]).map(lambda x: ("value", x)),
    )
    picks = draw(st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=1, max_size=4))
    queries = [[rows[x][k] if kind == "row" else x for k, (kind, x) in enumerate(p)] for p in picks]
    return rows, t, queries


def _rare_entries(rows, t):
    """(i, k) of every entry outside its column's t most frequent values,
    frequency ties broken by smaller value."""
    n = len(rows)
    rare = set()
    for k in range(n):
        column = [rows[i][k] for i in range(n)]
        ranked = sorted(set(column), key=lambda value: (-column.count(value), value))
        frequent = set(ranked[:t])
        rare.update((i, k) for i in range(n) if column[i] not in frequent)
    return rare


@settings(max_examples=150, deadline=None)
@given(_eq_streams())
def test_hypothesis_differential_and_scan_count(stream):
    rows, t, queries = stream
    matrix = Matrix(rows)
    solver = EqFromBoolSolver(matrix, ReductionConfig(t=t))
    rare = _rare_entries(rows, t)
    for q in queries:
        v = Vector(q)
        before = solver.counters.scan_length_total
        assert solver.query(v).entries == eq_exists_mv(matrix, v).entries
        hits = sum(1 for i, k in rare if rows[i][k] == q[k])
        assert solver.counters.scan_length_total - before == hits


@pytest.mark.parametrize("n", [1, 9, 64, 65])
def test_stacked_instances_answer_each_instance_alone(n):
    # eq<-bool on a [b, n, n] stack: each answer row is that instance's own
    # answer (an eq<-bool solver built on it alone and asked only its rows),
    # a NaN row (an instance not asked) answers all False, and a stack of
    # one answers as the plain matrix does.  Columns mix frequent values
    # with rare ones and +/-2^40; queries hit both.
    rng = np.random.default_rng(n)
    b, big = 5, 2**40
    stack = rng.integers(-n, n + 1, size=(b, n, n)).astype(np.float64)
    stack[rng.random((b, n, n)) < 0.4] = 0
    stack[rng.random((b, n, n)) < 0.1] = big
    stack[rng.random((b, n, n)) < 0.1] = -big
    config = ReductionConfig()
    stacked = EqFromBoolSolver(stack, config)
    alone = [EqFromBoolSolver(instance, config) for instance in stack]
    one, plain = EqFromBoolSolver(stack[:1], config), EqFromBoolSolver(stack[0], config)
    assert stacked.top_values.shape[0] == b and stacked._rare_values.shape[0] == b
    for _ in range(6):
        # a coordinate is some row's entry in its column, 7 (rare or absent) or -2^40
        rows = rng.integers(0, n, size=(b, n))
        block = np.take_along_axis(stack, rows[:, None, :], axis=1)[:, 0]
        block[rng.random((b, n)) < 0.2] = 7
        block[rng.random((b, n)) < 0.1] = -big
        skipped = rng.random(b) < 0.3
        block[skipped] = np.nan
        snap = stacked.counters.snapshot()
        got = stacked.query(block)
        assert got.shape == (b, n)
        assert stacked.counters.since(snap)["inner_queries"] == stacked.t  # t per call
        for j in range(b):
            assert np.array_equal(got[j], (stack[j] == block[j]).any(axis=1))
            if skipped[j]:
                assert not got[j].any()
            else:
                assert np.array_equal(got[j], alone[j].query(block[j]))
        assert np.array_equal(one.query(block[:1]), plain.query(block[0])[None])


@pytest.mark.parametrize("column", [[2**24] * 4, [0, 0, 0, 2**24]], ids=["frequent", "rare"])
def test_float32_instance_compares_a_float64_query_exactly(column):
    # 2^24 + 1 is no float32 number: cast, it would read 2^24.  The table
    # holds 2^24 as a frequent value of column 0 (t = 1) or as a rare one
    # (column 0 has two values, 0 the frequent one)
    matrix = np.zeros((4, 4), dtype=np.float32)
    matrix[:, 0] = column
    solver = EqFromBoolSolver(matrix, ReductionConfig(t=1))
    assert solver.top_values.dtype == np.float32
    assert solver._rare_values.shape[-2] == (column[0] == 0)
    v = np.full(4, -1.0)  # a float64 query, -1 in no column
    v[0] = 2**24 + 1
    assert not solver.query(v).any()
    v[0] = 2**24
    assert np.array_equal(solver.query(v), np.array(column) == 2**24)


def test_float32_stack_answers_like_its_float64_copy():
    # bmmp<-eq hands down a float32 stack; its tables are float32, and a
    # float64 query block is compared with them exactly.  Queries mix
    # entries, values between or beyond them (1 + 2^-30 reads 1 as a
    # float32), +/-2^40, +/-inf and rows not asked
    rng = np.random.default_rng(8)
    b, n = 6, 16
    stack = rng.integers(-n, n + 1, size=(b, n, n)).astype(np.float32)
    stack[rng.random((b, n, n)) < 0.4] = 0
    config = ReductionConfig(t=2)  # a small t leaves rare entries in every column
    narrow, wide = EqFromBoolSolver(stack, config), EqFromBoolSolver(stack.astype(np.float64), config)
    assert narrow.top_values.dtype == narrow._rare_values.dtype == np.float32
    assert wide.top_values.dtype == np.float64
    extremes = [2.0**40, -(2.0**40), INF, NEG_INF, 2.0**24 + 1, 0.5, 1 + 2.0**-30]
    for _ in range(8):
        rows = rng.integers(0, n, size=(b, n))
        block = np.take_along_axis(stack, rows[:, None, :], axis=1)[:, 0].astype(np.float64)
        odd = rng.random((b, n)) < 0.3
        block[odd] = rng.choice(extremes, size=int(odd.sum()))
        block[rng.random(b) < 0.3] = np.nan
        got = narrow.query(block)
        assert np.array_equal(got, wide.query(block))
        assert np.array_equal(got, (stack == block[:, None, :]).any(axis=2))


def test_tables_are_held_at_the_precision_of_their_instance():
    # float32 for dom<-eq's slices (and its probes, so no query is cast),
    # float64 for a Matrix, whose entries may reach +/-2^40
    handed = []

    def factory(problem, matrix, config):
        handed.append(EqFromBoolSolver(matrix, config))
        return handed[-1]

    rng = np.random.default_rng(3)
    dom = DomFromEqSolver(rng.integers(0, 9, size=(12, 12)).astype(np.float64), make_inner=factory)
    (inner,) = handed
    assert inner.top_values.dtype == inner._rare_values.dtype == dom._probes.dtype == np.float32
    big = 2**40
    matrix = Matrix([[big, -big, 1], [big - 1, 0, 2], [3, -big + 1, big]])
    solver = EqFromBoolSolver(matrix, ReductionConfig(t=1))
    assert solver.top_values.dtype == solver._rare_values.dtype == np.float64
    assert solver.query(Vector([big - 1, -big + 1, big])).entries == [0, 1, 1]


def test_float32_stack_compares_without_warning_at_the_value_limits():
    big = 2.0**40
    stack = np.array([[[1, -2], [3, 4]], [[0, 0], [5, -6]]], dtype=np.float32)
    solver = EqFromBoolSolver(stack)
    block = np.array([[big, -big], [INF, NEG_INF]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not solver.query(block).any()
        assert not solver.query(block[::-1].copy()).any()
