import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from omv.core import INF, NEG_INF, DimensionMismatch, Matrix, Vector
from omv.oracle import NaiveSolver

from referees import (
    DEFINITIONS,
    bit_trick_predicate,
    bool_mv,
    candidate_set_bruteforce,
    dom_exists_mv,
    eq_exists_mv,
    minmax_mv,
    minplus_mv,
    minwitness_mv,
)


def test_bool_mv():
    assert bool_mv(Matrix([[1, 0], [0, 1]]), Vector([0, 1])).entries == [0, 1]
    assert bool_mv(Matrix([[0, 0], [0, 0]]), Vector([1, 1])).entries == [0, 0]
    assert bool_mv(Matrix([[1, 0], [1, 1]]), Vector([0, 1])).entries == [0, 1]


def test_eq_exists_mv():
    m = Matrix([[1, 2], [3, 4]])
    assert eq_exists_mv(m, Vector([1, 4])).entries == [1, 1]
    assert eq_exists_mv(m, Vector([2, 3])).entries == [0, 0]
    assert eq_exists_mv(m, Vector([1, 2])).entries == [1, 0]  # row equal to query


def test_dom_exists_mv():
    assert dom_exists_mv(Matrix([[5, 9], [9, 9]]), Vector([5, 0])).entries == [1, 0]
    m = Matrix([[3, 7], [-2, 0]])
    assert dom_exists_mv(m, Vector([INF, INF])).entries == [1, 1]
    assert dom_exists_mv(m, Vector([NEG_INF, NEG_INF])).entries == [0, 0]


def test_minwitness_mv():
    assert minwitness_mv(Matrix([[0, 1], [1, 1]]), Vector([1, 0])).entries == [INF, 1]
    assert minwitness_mv(Matrix([[1, 1], [1, 1]]), Vector([1, 1])).entries == [1, 1]
    assert minwitness_mv(Matrix([[1, 1], [1, 1]]), Vector([0, 0])).entries == [INF, INF]


def test_minmax_mv():
    assert minmax_mv(Matrix([[1, 5], [7, 2]]), Vector([3, 4])).entries == [3, 4]
    # query equal to a row: that row's answer is its minimum
    m = Matrix([[4, 9], [6, 1]])
    assert minmax_mv(m, Vector([4, 9])).entries[0] == 4
    assert minmax_mv(Matrix([[INF, INF]] * 2), Vector([3, 5])).entries == [INF, INF]


def test_minplus_mv():
    assert minplus_mv(Matrix([[1, 2], [2, 1]]), Vector([1, 1])).entries == [2, 2]
    m = Matrix([[3, 8], [5, 1]])
    assert minplus_mv(m, Vector([0, 0])).entries == [3, 1]  # row minima
    assert minplus_mv(Matrix([[3]]), Vector([4])).entries == [7]
    assert minplus_mv(Matrix([[INF, 4], [0, INF]]), Vector([1, 1])).entries == [5, 1]


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bool_mv(Matrix([[1, 0], [0, 1]]), Vector([1]))


def test_row_permutation_metamorphic():
    # Answers for row i depend only on row i and the query.
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 8)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        v = Vector([rng.randint(-3, 3) for _ in range(n)])
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = Matrix([rows[p] for p in perm])
        for fn in (eq_exists_mv, dom_exists_mv, minmax_mv, minplus_mv):
            base = fn(Matrix(rows), v).entries
            assert fn(permuted, v).entries == [base[p] for p in perm]


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_minmax_upper_bounded_by_every_column(n, seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    v = [rng.randint(-9, 9) for _ in range(n)]
    out = minmax_mv(Matrix(rows), Vector(v)).entries
    for i in range(n):
        for k in range(n):
            assert out[i] <= max(rows[i][k], v[k])


def test_candidate_set_bruteforce_frozen():
    m = Matrix([[4, 5, 9]] * 3)
    v = Vector([4, 1, 0])
    # rounded row (2, 2, 4), rounded query (2, 0, 0): sums (4, 2, 4), min 2
    assert candidate_set_bruteforce(m, v, 2, 0) == {1}
    # delta of 1 keeps the argmin set plus the min+1 layer
    m = Matrix([[3, 1, 2]] * 3)
    assert candidate_set_bruteforce(m, Vector([0, 0, 0]), 1, 0) == {1, 2}
    # delta beyond all sums rounds everything to zero
    assert candidate_set_bruteforce(m, Vector([0, 0, 0]), 100, 0) == {0, 1, 2}


def test_candidate_set_contains_every_argmin():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(1, 10)
        delta = rng.choice([1, 2, 3, 5])
        rows = [[rng.randint(0, 2 * n) for _ in range(n)] for _ in range(n)]
        v = Vector([rng.randint(0, 2 * n) for _ in range(n)])
        i = rng.randrange(n)
        sums = [rows[i][k] + v[k] for k in range(n)]
        best = min(sums)
        argmins = {k for k in range(n) if sums[k] == best}
        assert argmins <= candidate_set_bruteforce(Matrix(rows), v, delta, i)


def test_bit_trick_frozen_examples():
    assert bit_trick_predicate(5, 6, 3) is True
    for a in (0, 1, 7, 255):
        assert bit_trick_predicate(a, a, 8) is False


def test_bit_trick_is_strict_less_than_exhaustive_small():
    for a, b in itertools.product(range(64), repeat=2):
        assert bit_trick_predicate(a, b, 6) == (a < b)


def test_bit_trick_rejects_out_of_range():
    with pytest.raises(ValueError):
        bit_trick_predicate(8, 0, 3)


def test_naive_solver_matches_pure_functions():
    rng = random.Random(21)
    for problem, fn in DEFINITIONS.items():
        for _ in range(30):
            n = rng.randint(1, 9)
            if problem in ("bool", "minwit"):
                draw = lambda: rng.randint(0, 1)
            elif problem == "bmmp":
                draw = lambda: rng.randint(0, 2 * n)
            else:
                def draw():
                    r = rng.random()
                    if problem in ("dom", "minmax") and r < 0.1:
                        return INF if rng.random() < 0.5 else NEG_INF
                    return rng.randint(-6, 6)
            matrix = Matrix([[draw() for _ in range(n)] for _ in range(n)])
            solver = NaiveSolver(matrix, problem=problem)
            for _ in range(3):
                v = Vector([draw() for _ in range(n)])
                assert solver.query(v).entries == fn(matrix, v).entries, (
                    problem,
                    matrix.rows,
                    v.entries,
                )


def test_naive_solver_rejects_an_unknown_problem():
    with pytest.raises(ValueError, match="^unknown problem 'nope'$"):
        NaiveSolver(Matrix([[1]]), problem="nope")


def test_naive_solver_query_index_advances():
    solver = NaiveSolver(Matrix([[1, 0], [0, 1]]), problem="bool")
    assert solver.query_index == 1
    solver.query(Vector([1, 1]))
    solver.query(Vector([0, 0]))
    assert solver.query_index == 3


@pytest.mark.parametrize("n", [63, 64, 65])
def test_packed_minwit_leaf_across_word_boundaries(n):
    rng = random.Random(300 + n)
    matrix = Matrix([[int(rng.random() < 0.05) for _ in range(n)] for _ in range(n)])
    solver = NaiveSolver(matrix, problem="minwit")
    queries = [[0] * n, [1] * n, [0] * (n - 1) + [1]]
    queries += [[int(rng.random() < 0.3) for _ in range(n)] for _ in range(4)]
    for ones in queries:
        v = Vector(ones)
        assert solver.query(v).entries == minwitness_mv(matrix, v).entries


@pytest.mark.parametrize("n", [1, 5, 65, 130])
def test_float_query_on_a_bool_matrix_matches_bool_mv(n):
    # the answer has n entries and no padding bit of the last word leaks in
    rng = random.Random(400 + n)
    rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    solver = NaiveSolver(np.array(rows, dtype=bool), problem="bool")
    for ones in ([1] * n, [0] * n, [rng.randint(0, 1) for _ in range(n)]):
        answer = solver.query(np.array(ones, dtype=np.float64))
        assert answer.shape == (n,)
        assert answer.astype(int).tolist() == bool_mv(Matrix(rows), Vector(ones)).entries


BIG = 2**40


def _stack_and_blocks(problem, rng, b, n, m):
    """A [b, n, m] stack of ``problem`` and query blocks [b, m] for it, a
    drawn subset of the rows not asked: NaN, or for bool also all zeros."""
    if problem == "bool":
        stack = rng.random((b, n, m)) < 0.3
        draw = lambda size: (rng.random(size) < 0.2).astype(np.float64)  # noqa: E731
    else:
        pool = np.array([-BIG, -2, -1, 0, 1, 2, BIG], dtype=np.float64)
        stack = rng.choice(pool, size=(b, n, m))
        draw = lambda size: rng.choice(pool, size=size)  # noqa: E731
    blocks = []
    for trial in range(6):
        block = draw((b, m))
        skipped = rng.random(b) < 0.3
        block[skipped] = np.nan
        if problem == "bool" and trial % 2:
            block = np.nan_to_num(block).astype(bool)  # a skipped row of zeros
        blocks.append((block, skipped))
    return stack, blocks


@pytest.mark.parametrize("m_over_n", [1, 3])
@pytest.mark.parametrize("n", [1, 9, 64, 65])
@pytest.mark.parametrize("problem", ["eq", "bool"])
def test_naive_stack_answers_each_instance_alone(problem, n, m_over_n):
    # each row of a stacked answer is that instance's answer on its own (its
    # own solver asked only its own rows), a row not asked answers all
    # False, and a stack of one answers as the plain matrix does; n = 65
    # spans two words per packed column
    rng = np.random.default_rng(1000 * n + m_over_n + (problem == "bool"))
    b, m = 4, m_over_n * n
    stack, blocks = _stack_and_blocks(problem, rng, b, n, m)
    stacked = NaiveSolver(stack, problem=problem)
    alone = [NaiveSolver(instance, problem=problem) for instance in stack]
    one, plain = NaiveSolver(stack[:1], problem=problem), NaiveSolver(stack[0], problem=problem)
    for block, skipped in blocks:
        got = stacked.query(block)
        assert got.shape == (b, n) and got.dtype == np.bool_
        for j in range(b):
            if skipped[j]:
                assert not got[j].any()
            else:
                assert np.array_equal(got[j], alone[j].query(block[j]))
        assert np.array_equal(one.query(block[:1]), plain.query(block[0])[None])
    with pytest.raises(DimensionMismatch):
        stacked.query(np.zeros((b, m + 1)))
    with pytest.raises(ValueError):  # one query row per instance
        stacked.query(np.zeros((b + 1, m)))
