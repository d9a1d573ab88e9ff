import random

import numpy as np
import pytest

from omv.chains import ALT_BOOL_CHAIN, build_solver
from omv.core import INF, NEG_INF, Matrix, ReductionConfig, Vector
from omv.folklore import (
    BoolFromBmmpSolver,
    DomFromEqSolver,
    MinWitnessFromMinMaxSolver,
    rank_bit_count,
    tilt_matrix,
    tilt_query,
)
from omv.harness import InstanceSpec, gen_instance
from omv.oracle import NaiveSolver

from referees import bool_mv, dom_exists_mv, minplus_mv, naive_factory, run_stream


def _rank(entries, a):
    """The rank dom<-eq gives a matrix entry a: 1 + the number of distinct
    non-NaN ``entries`` below a."""
    return 1 + len({x for x in entries if x < a})


def test_rank_map_frozen_example():
    # matrix values {3, 7, 7, 10}: for 8 the deepest value at most 8 is 7
    solver = DomFromEqSolver(Matrix([[3, 7], [7, 10]]), ReductionConfig(), make_inner=naive_factory)
    assert solver.values[:-1].tolist() == [3, 7, 10] and np.isnan(solver.values[-1])
    assert solver.query_rank(8) == 2
    assert solver.query_rank(10) == 3
    assert solver.query_rank(2) == 0  # below everything


def test_rank_map_order_embedding_exhaustive():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        solver = DomFromEqSolver(Matrix(rows), ReductionConfig(), make_inner=naive_factory)
        entries = {v for row in rows for v in row}
        for a in entries:
            for b in range(-6, 7):
                assert (a <= b) == (_rank(entries, a) <= solver.query_rank(b)), (
                    rows,
                    a,
                    b,
                )


def test_rank_map_handles_infinities():
    entries = [NEG_INF, 0, INF]
    solver = DomFromEqSolver(Matrix([[NEG_INF, 0], [INF, 0]]), ReductionConfig(), make_inner=naive_factory)
    assert solver.query_rank(NEG_INF) == 1 == _rank(entries, NEG_INF)
    assert solver.query_rank(INF) == 3 == _rank(entries, INF)
    assert solver.query_rank(5) == 2


def test_rank_map_nan_is_absent():
    # a NaN coordinate takes query rank D + 1, past every rank, and reads
    # the all-NaN probe column, so it equals no slice value at any level
    nan = float("nan")
    matrix = np.array([[nan, 0.0], [INF, nan]])
    solver = DomFromEqSolver(matrix, ReductionConfig(), make_inner=naive_factory)
    assert solver.query_rank(np.array([nan, NEG_INF, 0.0, INF])).tolist() == [3, 0, 1, 2]
    assert np.isnan(solver._probes[:, 3]).all()
    assert not np.isnan(solver._probes[:, :3]).all(axis=0).any()


@pytest.mark.parametrize("chain", [["naive"], ["dom<-eq", "eq<-bool", "naive"]])
def test_dom_nan_entries_and_coordinates_compare_true_with_nothing(chain):
    # NaN is the absent value of the dominance instances minmax<-dom
    # builds: a NaN entry is never dominated, a NaN coordinate dominates
    # nothing
    nan = float("nan")
    pool = [nan, NEG_INF, -2, -1, 0, 1, 2, INF]
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 7)
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        solver = build_solver(chain, "dom", np.array(rows, dtype=np.float64))
        for _ in range(4):
            v = [rng.choice(pool) for _ in range(n)]
            want = [any(rows[i][k] <= v[k] for k in range(n)) for i in range(n)]
            assert solver.query(np.array(v)).tolist() == want, (rows, v)


def test_dom_from_eq_slices_carry_the_rank_map_ranks():
    # the build ranks entries from one np.unique; each level block of the
    # one eq instance it hands down must be the slice of the rank _rank gives,
    # +/-inf included, with NaN in the cells that can never hit: a NaN
    # entry's, and those whose rank has bit l set
    nan = float("nan")
    pool = [nan, NEG_INF, -3, 0, 0.5, 2, 2**40, INF]
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 9)
        m = np.array([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        handed = []

        def factory(problem, matrix, config):
            handed.append(matrix)
            return NaiveSolver(matrix, config, problem=problem)

        solver = DomFromEqSolver(m, ReductionConfig(), make_inner=factory)
        entries = m.ravel().tolist()
        present = sorted({x for x in entries if x == x})
        assert np.array_equal(solver.values, [*present, nan], equal_nan=True)
        ranks = np.array([[_rank(entries, a) for a in row] for row in m.tolist()])
        (blocks,) = handed
        assert blocks.shape == (n, solver.levels * n) and blocks.dtype == np.float32
        for level in range(solver.levels):
            high = blocks[:, level * n : (level + 1) * n]
            shifted = ranks >> level
            want = np.where((shifted & 1 == 0) & ~np.isnan(m), shifted >> 1, np.nan)
            assert np.array_equal(high, want, equal_nan=True), (m, level)


def test_rank_bit_count():
    assert rank_bit_count(1) == 2
    assert rank_bit_count(8) == 7  # ceil(log2(64)) + 1
    assert rank_bit_count(16) == 9
    assert rank_bit_count(32) == 11


def test_dom_from_eq_differential():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 16)
        # duplicates and negatives on purpose
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        matrix = Matrix(rows)
        solver = DomFromEqSolver(matrix, ReductionConfig(), make_inner=naive_factory)
        reference = NaiveSolver(matrix, problem="dom")
        for _ in range(min(n, 6)):
            v = Vector([rng.randint(-7, 7) for _ in range(n)])
            assert solver.query(v).entries == reference.query(v).entries


def test_dom_from_eq_below_everything():
    matrix = Matrix([[2, 5], [3, 4]])
    solver = DomFromEqSolver(matrix, ReductionConfig(), make_inner=naive_factory)
    assert solver.query(Vector([1, 1])).entries == [0, 0]


@pytest.mark.parametrize("infinite_ends", [False, True])
@pytest.mark.parametrize("distinct", [1, 2, 3, 4, 7, 8, 15, 16])
def test_dom_from_eq_builds_only_reachable_levels(distinct, infinite_ends):
    # D distinct values put D + 1 on and beside powers of two; the levels
    # asked are those of query_rank + 1 <= D + 1, the levels booked stay
    # rank_bit_count(n)
    rng = random.Random(distinct)
    n = 4
    values = [10 * k for k in range(distinct)]
    if infinite_ends:
        values[-1] = INF
        if distinct > 1:
            values[0] = NEG_INF
    entries = [values[i % distinct] for i in range(n * n)]
    rng.shuffle(entries)
    matrix = Matrix([entries[i * n : (i + 1) * n] for i in range(n)])
    solver = DomFromEqSolver(matrix, ReductionConfig(), make_inner=naive_factory)
    assert solver.levels == max((distinct + 1).bit_length(), 2)
    assert solver.bit_count == rank_bit_count(n)
    finite = [value for value in values if abs(value) != INF]
    # below the minimum, each value, between values, above the maximum, +/-inf
    pool = sorted({*values, *(value - 5 for value in finite), 10 * distinct, INF, NEG_INF})
    queries = [Vector([c] * n) for c in pool]
    queries += [Vector([rng.choice(pool) for _ in range(n)]) for _ in range(30)]
    for v in queries:
        snap = solver.counters.snapshot()
        assert solver.query(v).entries == dom_exists_mv(matrix, v).entries, v
        assert solver.counters.since(snap)["inner_queries"] == rank_bit_count(n)


def test_dom_from_eq_issues_one_query_per_bit():
    matrix = Matrix([[rng_v for rng_v in range(8)] for _ in range(8)])
    solver = DomFromEqSolver(matrix, ReductionConfig(), make_inner=naive_factory)
    snap = solver.counters.snapshot()
    solver.query(Vector([3] * 8))
    assert solver.counters.since(snap)["inner_queries"] == rank_bit_count(8)


def test_minwitness_from_minmax_examples():
    solver = MinWitnessFromMinMaxSolver(
        Matrix([[0, 1], [1, 1]], tag="boolean"), ReductionConfig(), make_inner=naive_factory
    )
    assert solver.query(Vector([1, 0])).entries == [INF, 1]
    solver = MinWitnessFromMinMaxSolver(
        Matrix([[0, 1], [1, 0]], tag="boolean"), ReductionConfig(), make_inner=naive_factory
    )
    assert solver.query(Vector([1, 1])).entries == [2, 1]
    solver = MinWitnessFromMinMaxSolver(
        Matrix([[0, 0], [0, 0]], tag="boolean"), ReductionConfig(), make_inner=naive_factory
    )
    assert solver.query(Vector([1, 1])).entries == [INF, INF]


def test_minwitness_from_minmax_differential():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 12)
        matrix = Matrix(
            [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)], tag="boolean"
        )
        solver = MinWitnessFromMinMaxSolver(matrix, ReductionConfig(), make_inner=naive_factory)
        reference = NaiveSolver(matrix, problem="minwit")
        for _ in range(min(n, 5)):
            v = Vector([rng.randint(0, 1) for _ in range(n)])
            assert solver.query(v).entries == reference.query(v).entries


def test_tilt_matrix_frozen_example():
    tilted = tilt_matrix(Matrix([[1, 0], [0, 1]], tag="boolean"))
    assert tilted.rows == [[3, 6], [6, 7]]
    assert tilted.monotone == "stream"


def test_tilt_hand_worked_query():
    # first query (1, 0) at n = 2: raw tilt is (-1, -2), shifted by 2n = 4
    tilted = tilt_query(np.array([1.0, 0.0]), 1, 2)
    assert tilted.tolist() == [3, 2]
    matrix = tilt_matrix(Matrix([[1, 0], [0, 1]], tag="boolean"))
    sums = minplus_mv(matrix, Vector(tilted.astype(int).tolist()))
    # row 1 reaches the shifted target 2*(1+1) - 2 + 4 = 6
    assert sums[0] == 6


def test_tilt_monotonicity_directions():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 10)
        matrix = Matrix(
            [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)], tag="boolean"
        )
        tilted = tilt_matrix(matrix)
        for row in tilted.rows:
            assert all(row[k] <= row[k + 1] for k in range(n - 1))
        for k in range(n):
            assert all(
                tilted.rows[i][k] <= tilted.rows[i + 1][k] for i in range(n - 1)
            )
        previous = None
        for j in range(1, n + 1):
            v = np.array([rng.randint(0, 1) for _ in range(n)], dtype=float)
            encoded = tilt_query(v, j, n)
            assert ((0 <= encoded) & (encoded <= 4 * n)).all()
            if previous is not None:
                assert (previous <= encoded).all()
            # reversing the coordinate axis makes the encoding nondecreasing
            assert (np.diff(encoded[::-1]) >= 0).all()
            previous = encoded


def test_bool_from_bmmp_zero_query():
    solver = BoolFromBmmpSolver(
        Matrix([[1, 1], [1, 0]], tag="boolean"),
        ReductionConfig(hitting_set_size="full"),
        make_inner=naive_factory,
    )
    assert solver.query(Vector([0, 0])).entries == [0, 0]


def test_bool_from_bmmp_through_real_chain():
    # the full route: boolean -> min-plus -> equality -> naive boolean
    rng = random.Random(59)
    chain = ["bool<-bmmp", "bmmp<-eq", "eq<-bool", "naive"]
    for _ in range(15):
        n = rng.randint(2, 12)
        matrix = Matrix(
            [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)], tag="boolean"
        )
        solver = build_solver(
            chain, "bool", matrix, ReductionConfig(hitting_set_size="full")
        )
        reference = NaiveSolver(matrix, problem="bool")
        for _ in range(n):
            v = Vector([rng.randint(0, 1) for _ in range(n)])
            got = solver.query(v)
            assert got.entries == reference.query(v).entries
            assert got.entries == bool_mv(matrix, v).entries


def test_bool_from_bmmp_sets_its_own_inner_bound():
    # the tilt needs c = 4 whatever bound the outer config carries
    rng = random.Random(60)
    n = 6
    matrix = Matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)], tag="boolean")
    for c in (1, 2, 8):
        solver = build_solver(
            ALT_BOOL_CHAIN, "bool", matrix, ReductionConfig(bound_constant=c, hitting_set_size="full")
        )
        for _ in range(n):
            v = Vector([rng.randint(0, 1) for _ in range(n)])
            assert solver.query(v).entries == bool_mv(matrix, v).entries


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_bool_from_bmmp_long_streams(n):
    # q = 3n queries: three epochs of the inner min-plus solver
    spec = InstanceSpec(problem="bool", n=n, queries=3 * n, seed=70 + n)
    matrix, queries = gen_instance(spec)
    solver = build_solver(ALT_BOOL_CHAIN, "bool", matrix, ReductionConfig(hitting_set_size="full"))
    assert run_stream(solver, NaiveSolver(matrix, problem="bool"), queries) == []
    assert solver.counters.inner_queries == 3 * n
