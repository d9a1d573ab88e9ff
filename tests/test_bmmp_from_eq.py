import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from omv.bmmp_from_eq import BmmpFromEqSolver
from omv.chains import build_solver, parse_chain
from omv.core import (
    INF,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    Vector,
)
from omv.harness import InstanceSpec, gen_instance
from omv.oracle import NaiveSolver

from referees import AllOffsetsBmmpSolver, candidate_set_bruteforce, naive_factory, run_stream


def test_rounding_stays_within_two_deltas():
    # for nonnegative entries, a sum and its rounded image differ by < 2*delta
    rng = random.Random(7)
    for _ in range(200):
        delta = rng.randint(1, 5)
        a, b = rng.randint(0, 60), rng.randint(0, 60)
        gap = (a + b) - delta * (a // delta + b // delta)
        assert 0 <= gap < 2 * delta


def _lister(matrix, delta, bound_constant=1):
    """A solver with |R| = 0: it lists candidates and builds no eq solver."""
    config = ReductionConfig(delta=delta, bound_constant=bound_constant, hitting_set_size=0)
    return BmmpFromEqSolver(matrix, config, make_inner=naive_factory)


def test_rows_case_frozen_example():
    # rounded row (0, 0, 1, 3) against rounded query (2, 0, 5, 0): the
    # rounded minimum is 0 and only column 2 (1-based) is a candidate.
    matrix = Matrix([[0, 0, 2, 6]] * 4, monotone="rows")
    v = Vector([4, 0, 10, 0])
    reports = _lister(matrix, 2, bound_constant=4).list_candidates(v)
    assert reports[0].candidates == [1]
    assert candidate_set_bruteforce(matrix, v, 2, 0) == {1}


def test_delta_one_constant_query():
    # with no rounding and an all-zero query, candidates are the two
    # lowest matrix value layers
    matrix = Matrix([[1, 2, 3, 9]] * 4, monotone="rows")
    v = Vector([0, 0, 0, 0])
    reports = _lister(matrix, 1, bound_constant=4).list_candidates(v)
    assert reports[0].candidates == [0, 1]


def test_oversize_when_everything_ties():
    n = 8
    matrix = Matrix([[0] * n for _ in range(n)], monotone="rows")
    v = Vector([0] * n)
    reports = _lister(matrix, 2).list_candidates(v)
    # cap = floor(n / delta) = 4 < n, so the all-tied row must be oversize
    assert all(r.candidates is None for r in reports)


CASES = ("rows", "cols", "query", "stream")


def _case_instance(rng, n, case, bound_constant=1):
    spec = InstanceSpec(
        problem="bmmp",
        n=n,
        monotone=case,
        bound_constant=bound_constant,
        seed=rng.randrange(2**30),
    )
    return gen_instance(spec)


def _runs(values) -> int:
    return sum(1 for k in range(len(values)) if k == 0 or values[k] != values[k - 1])


def _booked_counts(case, m_hat, v_hat, previous):
    """The paper's structural cost of one listing: (multiset_updates, rmq_queries)."""
    n = len(m_hat)
    if case == "cols":
        grown = sum(m_hat[i][k] > m_hat[i - 1][k] for i in range(1, n) for k in range(n))
        return grown, 0
    if case == "stream":
        return n * sum(v_hat[k] > previous[k] for k in range(n)), 0
    if case == "rows":
        return 0, sum(_runs(row) for row in m_hat)
    return 0, n * _runs(v_hat)


@pytest.mark.parametrize("case", CASES)
def test_listers_match_bruteforce(case):
    rng = random.Random(CASES.index(case))
    rows_checked = 0
    while rows_checked < 300:
        n = rng.randint(1, 16)
        delta = rng.choice([1, 2, 3])
        bound_constant = rng.choice([1, 4])
        matrix, queries = _case_instance(rng, n, case, bound_constant)
        cap = bound_constant * n // delta
        m_hat = [[x // delta for x in row] for row in matrix.rows]
        lister = _lister(matrix, delta, bound_constant)
        ledger = lister.counters
        previous = [0] * n
        for v in queries:
            snap = ledger.snapshot()
            reports = lister.list_candidates(v)
            listed = 0
            for i, report in enumerate(reports):
                want = candidate_set_bruteforce(matrix, v, delta, i)
                if len(want) > cap:
                    assert report.candidates is None
                else:
                    assert report.candidates == sorted(want)
                    listed += len(want)
            v_hat = [x // delta for x in v]
            updates, rmq = _booked_counts(case, m_hat, v_hat, previous)
            previous = v_hat
            booked = ledger.since(snap)
            assert booked["multiset_updates"] == updates
            assert booked["rmq_queries"] == rmq
            assert booked["candidates_enumerated"] == listed
            rows_checked += n


def test_stream_lister_rejects_regression():
    matrix = Matrix([[1, 2], [2, 2]], monotone="stream")
    # at delta = 2, 5 and 4 round alike: the raw coordinate still falls
    for delta, accepted, falling in [(1, [2, 2], [1, 2]), (2, [5, 1], [4, 1])]:
        lister = _lister(matrix, delta, bound_constant=4)
        lister.query(Vector(accepted))
        with pytest.raises(ValueError, match="stream coordinate fell"):
            lister.query(Vector(falling))


def test_rejected_stream_query_leaves_the_lister_as_it_was():
    # [3, 0, 1] grows coordinate 1 before coordinate 2 falls; the rejection
    # must not move the solver off the last accepted query [1, 1, 1]
    matrix = Matrix([[0, 1, 2], [1, 1, 1], [2, 0, 0]], monotone="stream")
    lister = _lister(matrix, 1)
    lister.query(Vector([1, 1, 1]))
    with pytest.raises(ValueError, match="stream coordinate fell from 1 to 0 at column 2"):
        lister.query(Vector([3, 0, 1]))
    got = lister.query(Vector([2, 1, 1]))

    fresh = _lister(matrix, 1)
    fresh.query(Vector([1, 1, 1]))
    assert got == fresh.query(Vector([2, 1, 1]))
    assert lister.counters.snapshot() == fresh.counters.snapshot()
    assert lister.query_index == fresh.query_index == 3


def test_auto_hitting_set_covers_an_oversize_one_by_one_row():
    # c = 0 gives cap = 0 < n = 1, and the auto |R| = ceil(3 * ln 1) is 0
    matrix = Matrix([[0]], tag="bounded", monotone="rows")
    chain = parse_chain("bmmp<-eq,eq<-bool")
    solver = build_solver(chain, "bmmp", matrix, ReductionConfig(bound_constant=0))
    assert solver.hitting_columns == [0]
    assert solver.query(Vector([0])).entries == [0]


def test_default_hitting_set_size():
    # ceil(6 * ln 16) = 17 columns would exceed n: R is every column
    spec = InstanceSpec(problem="bmmp", n=16, monotone="rows", bound_constant=1, seed=0)
    matrix, _ = gen_instance(spec)
    solver = BmmpFromEqSolver(matrix, ReductionConfig(delta=2, bound_constant=1), make_inner=naive_factory)
    assert math.ceil(6 * math.log(16)) == 17
    assert solver.hitting_columns == list(range(16))


def test_auto_hitting_set_at_n32_is_every_column():
    # delta = ceil(32^(1/3)) = 4 and ceil(12 * ln 32) = 42 > 32
    spec = InstanceSpec(problem="bmmp", n=32, monotone="rows", bound_constant=1, seed=0)
    matrix, _ = gen_instance(spec)
    solver = BmmpFromEqSolver(matrix, ReductionConfig(bound_constant=1, seed=97), make_inner=naive_factory)
    assert solver.delta == 4
    assert solver.hitting_columns == list(range(32))


def _ties_instance(rng, n, delta, queries):
    """A rows-case instance at c = 1 whose even rows lie in one delta-bucket
    and whose queries lie in two adjacent buckets: every column is a
    candidate of an even row, so at least half the rows are oversize and
    only step two answers them."""
    rows = []
    for i in range(n):
        if i % 2 == 0:
            base = delta * rng.randrange(n // delta)
            rows.append(sorted(base + rng.randrange(delta) for _ in range(n)))
        else:
            rows.append(sorted(rng.randint(0, n) for _ in range(n)))
    stream = []
    for _ in range(queries):
        base = delta * rng.randrange(n // delta - 1)
        stream.append(Vector([base + rng.randrange(2 * delta) for _ in range(n)]))
    return Matrix(rows, monotone="rows"), stream


def test_sampling_regime_n64_draws_distinct_columns():
    # delta = 4 and |R| = ceil(12 * ln 64) = 50 < 64: R is a real sample,
    # 50 distinct columns fixed by the seed, asked 3 * delta - 1 = 11 times.
    # An oversize set has more than cap = 16 columns, and only 14 columns
    # lie outside R, so no oversize set escapes and every answer is exact.
    n, delta = 64, 4
    config = ReductionConfig(delta=delta, bound_constant=1)
    for seed in (641, 642, 643):
        matrix, queries = _ties_instance(random.Random(seed), n, delta, queries=n)
        solver = BmmpFromEqSolver(matrix, replace(config, seed=seed), make_inner=naive_factory)
        columns = solver.hitting_columns
        assert len(set(columns)) == 50 and columns == sorted(columns)
        again = BmmpFromEqSolver(matrix, replace(config, seed=seed), make_inner=naive_factory)
        other = BmmpFromEqSolver(matrix, replace(config, seed=seed + 1), make_inner=naive_factory)
        assert again.hitting_columns == columns
        assert other.hitting_columns != columns
        lister = _lister(matrix, delta)
        reference = NaiveSolver(matrix, problem="bmmp")
        for v in queries:
            assert sum(report.candidates is None for report in lister.list_candidates(v)) >= n // 2
            snap = solver.counters.snapshot()
            assert solver.query(v).entries == reference.query(v).entries
            assert solver.counters.since(snap)["inner_queries"] == 550


def test_escapes_match_the_sampling_bound():
    # Rows case, every row 24 zeros then 40 entries of n, query v = 0: with
    # delta = 4 each row's near set is its 24 zero columns, over cap = 16,
    # so every row is oversize.  A row escapes when R misses all 24, which
    # for |R| = 6 happens with probability C(40, 6) / C(64, 6) per stream.
    n, delta, size, zeros, seeds = 64, 4, 6, 24, 400
    matrix = Matrix([[0] * zeros + [n] * (n - zeros)] * n, monotone="rows")
    v = np.zeros(n)
    keys = np.array(matrix.rows) // delta + v.astype(np.int64) // delta
    near = keys <= keys.min(axis=1, keepdims=True) + 1
    want = np.min(np.array(matrix.rows) + v, axis=1)
    escaped_streams = wrong_streams = 0
    for seed in range(seeds):
        config = ReductionConfig(delta=delta, bound_constant=1, hitting_set_size=size, seed=seed)
        solver = BmmpFromEqSolver(matrix, config, make_inner=naive_factory)
        oversize = np.array([r.candidates is None for r in solver.list_candidates(v)])
        escaped = oversize & ~near[:, solver.hitting_columns].any(axis=1)
        got = solver.query(v)
        assert np.all(got >= want)  # no undershoot
        wrong = got != want
        assert not np.any(wrong & ~escaped), seed  # wrong => escaped
        escaped_streams += bool(escaped.any())
        wrong_streams += bool(wrong.any())
    p = math.comb(n - zeros, size) / math.comb(n, size)
    mean, sigma = seeds * p, math.sqrt(seeds * p * (1 - p))
    assert abs(escaped_streams - mean) <= 3.5 * sigma, (escaped_streams, mean, sigma)
    assert 0 < wrong_streams <= escaped_streams


def _worst_case_family(n=64, width=17):
    """The all-zero rows-case matrix of the worst-case stream test and its
    three queries, each 0 on one disjoint set of ``width`` columns."""
    matrix = Matrix([[0] * n for _ in range(n)], monotone="rows")
    stream = []
    for j in range(3):
        v = np.full(n, float(n))
        v[j * width : (j + 1) * width] = 0
        stream.append(v)
    return matrix, stream


def test_worst_case_stream_fails_at_the_predicted_rate():
    # All-zero rows-case matrix, delta = 4, c = 1: cap = 16.  Query j is 0 on
    # the 17 columns of its set and c*n elsewhere, so every row is oversize
    # with near set = that set, and a row is wrong exactly when R misses it.
    # Over the three disjoint sets, inclusion-exclusion gives the chance
    # that R (|R| = 6, drawn without replacement) misses at least one.
    n, size, width, seeds = 64, 6, 17, 400
    sets = [range(j * width, (j + 1) * width) for j in range(3)]
    matrix, stream = _worst_case_family(n, width)
    failing = 0
    for seed in range(seeds):
        config = ReductionConfig(delta=4, hitting_set_size=size, bound_constant=1, seed=seed)
        solver = build_solver(parse_chain("bmmp<-eq,naive"), "bmmp", matrix, config)
        wrong = any(np.any(solver.query(v) != 0) for v in stream)
        missed = any(not set(columns) & set(solver.hitting_columns) for columns in sets)
        assert wrong == missed, seed
        failing += wrong
    miss = [math.comb(n - k * width, size) for k in (1, 2, 3)]
    p = (3 * miss[0] - 3 * miss[1] + miss[2]) / math.comb(n, size)
    assert abs(p - 0.4059) < 1e-4
    cdf = list(
        itertools.accumulate(
            math.comb(seeds, k) * p**k * (1 - p) ** (seeds - k) for k in range(seeds + 1)
        )
    )
    low = next(k for k, total in enumerate(cdf) if total > 0.0005)
    high = next(k for k, total in enumerate(cdf) if total >= 0.9995)
    assert low <= failing <= high, (failing, seeds * p, low, high)


def test_adaptive_replay_fails_on_the_oblivious_seeds():
    # An adversary that knows M asks the three worst-case queries in turn
    # and, from the first wrong answer on, replays that query for the rest
    # of an n-query stream.  Every answer before the first wrong one is
    # right, so it tells nothing about R: the same seeds fail as on the
    # oblivious three-query stream, and only the number of wrong rows grows.
    n, size, seeds = 64, 6, 60
    matrix, stream = _worst_case_family(n)
    chain = parse_chain("bmmp<-eq,naive")
    oblivious, adaptive, wrong_rows = set(), set(), 0
    for seed in range(seeds):
        config = ReductionConfig(delta=4, hitting_set_size=size, bound_constant=1, seed=seed)
        solver = build_solver(chain, "bmmp", matrix, config)
        if any(np.any(solver.query(v) != 0) for v in stream):
            oblivious.add(seed)
        solver = build_solver(chain, "bmmp", matrix, config)
        replay = None
        for j in range(n):
            wrong = np.count_nonzero(solver.query(replay if replay is not None else stream[j % 3]))
            if wrong and replay is None:
                replay = stream[j % 3]
            wrong_rows += wrong
        if replay is not None:
            adaptive.add(seed)
    assert oblivious and adaptive == oblivious
    print(f"{len(adaptive)} of {seeds} adaptive streams failed, {wrong_rows} wrong rows")


def test_forced_hit_uses_every_column_once():
    matrix = Matrix([[1, 2], [2, 2]], monotone="rows")
    solver = BmmpFromEqSolver(
        matrix, ReductionConfig(hitting_set_size="full", bound_constant=4), make_inner=naive_factory
    )
    assert solver.hitting_columns == [0, 1]


def test_shifted_matrices_zero_their_own_column():
    # c = 1: cap = floor(3 / 2) = 1 < n, so a row can be oversize
    matrix = Matrix([[0, 3, 3], [1, 1, 2], [2, 2, 2]], monotone="rows")
    captured = []

    def factory(problem, inner, config):
        assert problem == "eq"
        captured.append(inner)
        return NaiveSolver(inner, config, problem="eq")

    solver = BmmpFromEqSolver(
        matrix,
        ReductionConfig(hitting_set_size="full", bound_constant=1),
        make_inner=factory,
    )
    # one stacked instance, instance p shifted by the p-th hitting column
    (stack,) = captured
    assert len(stack) == len(solver.hitting_columns) == 3
    for r, inner in zip(solver.hitting_columns, stack):
        assert all(inner[i, r] == 0 for i in range(3))


@pytest.mark.parametrize(
    "case,n,c",
    [pytest.param(case, 16, 4, id=case) for case in CASES]
    + [pytest.param(case, 9, 3, id=f"{case}-cap-n") for case in CASES],
)
def test_no_hitting_solver_when_no_row_can_be_oversize(case, n, c):
    # c = 4 at n = 16: delta = 3 and cap = floor(64 / 3) = 21 >= n; c = 3 at
    # n = 9: delta = 3 and cap = floor(27 / 3) = 9 = n.  No candidate set is
    # oversize and step two has nothing to ask
    rng = random.Random(141 + CASES.index(case))
    matrix, queries = _case_instance(rng, n, case, bound_constant=c)

    def factory(problem, inner, config):
        raise AssertionError("built a hitting solver that no query can ask")

    solver = BmmpFromEqSolver(matrix, ReductionConfig(bound_constant=c), make_inner=factory)
    assert solver.row_cap >= solver.n and len(solver.hitting_columns) == n
    reference = NaiveSolver(matrix, problem="bmmp")
    booked = n * (3 * solver.delta - 1)
    for v in queries:
        snap = solver.counters.snapshot()
        assert solver.query(v).entries == reference.query(v).entries
        assert solver.counters.since(snap)["inner_queries"] == booked


@pytest.mark.parametrize("case", CASES)
def test_forced_hit_differential(case):
    rng = random.Random(1 + CASES.index(case))
    for trial in range(20):
        n = rng.randint(2, 16)
        matrix, queries = _case_instance(rng, n, case)
        config = ReductionConfig(
            hitting_set_size="full",
            delta=rng.choice([1, 2, None]),
            bound_constant=1,
            seed=trial,
        )
        solver = BmmpFromEqSolver(matrix, config, make_inner=naive_factory)
        reference = NaiveSolver(matrix, problem="bmmp")
        assert run_stream(solver, reference, queries) == []


def test_single_row_instance_is_exact():
    matrix = Matrix([[1]], monotone="rows")
    solver = BmmpFromEqSolver(matrix, ReductionConfig(bound_constant=1), make_inner=naive_factory)
    assert solver.query(Vector([1])).entries == [2]


def test_offset_range_suffices_in_forced_hit_mode():
    # whenever a hitting column lands in a candidate set, the offset that
    # recovers the true minimum stays within {0, ..., 3*delta - 2}
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 12)
        delta = rng.choice([1, 2, 3])
        matrix, queries = _case_instance(rng, n, "rows")
        for v in queries[:2]:
            for i in range(n):
                candidates = candidate_set_bruteforce(matrix, v, delta, i)
                best = min(matrix.rows[i][k] + v[k] for k in range(n))
                for r in candidates:
                    offset = matrix.rows[i][r] + v[r] - best
                    assert 0 <= offset <= 3 * delta - 2


def test_step2_hits_are_genuine_sums():
    # step 2 takes every equality hit for a genuine sum M[i,k] + v[k] =
    # M[i,r] + v[r] - d; a checking inner factory holds each answer of a
    # stacked eq<-bool chain against the shifted matrices it was built on,
    # instance by instance (a NaN row, an instance not asked, hits nothing).
    # The narrow-band rows are oversize at c = 1, so step 2 has probes to ask.
    matrix, queries = _ties_instance(random.Random(5), 16, 4, queries=4)
    checked = []

    class CheckedEq(OnlineSolver):
        problem = "eq"

        def __init__(self, shifted, config):
            super().__init__(shifted, config)
            self.shifted = shifted
            self.inner = build_solver(["eq<-bool", "naive"], "eq", shifted, config)

        def _answer(self, probes):
            bits = self.inner.query(probes)
            assert np.array_equal(bits, (self.shifted == probes[:, None, :]).any(axis=2))
            checked.append(int(bits.sum()))
            return bits

    def checking_factory(problem, shifted, config):
        assert problem == "eq"
        return CheckedEq(shifted, config)

    solver = BmmpFromEqSolver(
        matrix, ReductionConfig(delta=4, bound_constant=1, seed=9), make_inner=checking_factory
    )
    for v in queries:
        checked.clear()
        solver.query(v)
        assert sum(checked) > 0


class RecordingEq(OnlineSolver):
    """A naive stacked equality solver that keeps the query blocks it is asked."""

    problem = "eq"

    def __init__(self, shifted, config):
        super().__init__(shifted, config)
        self.inner = NaiveSolver(shifted, config, problem="eq")
        self.blocks = []

    def _answer(self, block):
        self.blocks.append(block.copy())
        return self.inner.query(block)


def _differential_instances():
    rng = random.Random(181)
    for case in CASES:
        for n in (1, 2, 9, 16):
            for trial in range(3):
                matrix, queries = _case_instance(rng, n, case)
                yield matrix, queries, ReductionConfig(bound_constant=1, seed=trial)
    matrix, stream = _worst_case_family()
    for seed in range(30):
        yield matrix, stream, ReductionConfig(delta=4, hitting_set_size=6, bound_constant=1, seed=seed)
    # narrow-band rows sampled by a third of the columns: the hits that
    # lower an oversize row below its offset-0 bound come from here
    for n in (9, 16):
        for delta in (2, 4):
            for seed in range(3):
                matrix, queries = _ties_instance(random.Random(seed), n, delta, queries=n)
                yield matrix, queries, ReductionConfig(
                    delta=delta, hitting_set_size=n // 3, bound_constant=1, seed=seed
                )


def test_step2_matches_the_all_offsets_referee():
    # Asking only the probes that can lower an oversize row gives the
    # all-offsets answers entry for entry, rows that escaped R included.
    # The hitting instances form one stack, asked in rounds: each call gives
    # every instance at most one probe (its row, or NaN when not asked),
    # each instance gets an increasing run of offsets 1 .. 3*delta - 2 (a
    # subsequence of the referee's 0 .. 3*delta - 2, without 0), and a query
    # makes exactly as many calls as the most probes any one instance gets
    # (at most 3*delta - 2; one call per offset that some instance wants
    # would make more).  The head still books every offset.
    escaped = asked = 0
    for matrix, queries, config in _differential_instances():
        recorders = []

        def recording(problem, shifted, cfg):
            recorders.append(RecordingEq(shifted, cfg))
            return recorders[-1]

        solver = BmmpFromEqSolver(matrix, config, make_inner=recording)
        referee = AllOffsetsBmmpSolver(matrix, config, make_inner=naive_factory)
        reference = NaiveSolver(matrix, problem="bmmp")
        columns = solver.hitting_columns
        booked = len(columns) * (3 * solver.delta - 1)
        assert len(recorders) <= 1
        blocks = recorders[0].blocks if recorders else []
        for query in queries:
            v = np.asarray(query, dtype=np.float64)
            snap = solver.counters.snapshot()
            got = solver.query(v)
            assert np.array_equal(got, referee.query(v))
            assert solver.counters.since(snap)["inner_queries"] == booked
            escaped += int(np.count_nonzero(got != reference.query(v)))
            assert len(blocks) <= 3 * solver.delta - 2
            depths = [[] for _ in columns]
            for block in blocks:
                assert block.shape == (len(columns), solver.n)
                for r, probe, column_depths in zip(columns, block, depths):
                    if np.isnan(probe).all():
                        continue  # not asked this call
                    d = v[r] - v[0] - probe[0]
                    assert np.array_equal(probe, v[r] - v - d)
                    column_depths.append(d)
            for column_depths in depths:
                assert column_depths == sorted(set(column_depths))
                assert all(d in range(1, 3 * solver.delta - 1) for d in column_depths)
                asked += len(column_depths)
            assert len(blocks) == max(map(len, depths), default=0)
            blocks.clear()
        assert solver.counters.snapshot() == referee.counters.snapshot()
    assert escaped > 0 and asked > 0


def test_hitting_stack_and_probes_are_float32_while_float32_is_exact():
    # The stack's entries M[i,k] - M[i,r] and its probes v[r] - v[k] - d are
    # integers within +-(c*n + 3*delta): float32 up to c*n + 3*delta = 2^24,
    # float64 one above.  At n = 64 a c below delta keeps the cap
    # floor(c*n/delta) below n, so the stack is built
    n = 64
    handed = []

    def factory(problem, shifted, config):
        handed.append(shifted.dtype)
        return NaiveSolver(shifted, config, problem="eq")

    for bound, dtype in ((2**24, np.float32), (2**24 + 1, np.float64)):
        delta = next(d for d in itertools.count(bound // (n + 3) + 1) if (bound - 3 * d) % n == 0)
        config = ReductionConfig(delta=delta, bound_constant=(bound - 3 * delta) // n)
        solver = BmmpFromEqSolver(Matrix([[0] * n] * n, monotone="rows"), config, make_inner=factory)
        assert config.bound_constant * n + 3 * delta == bound and solver.row_cap < n
        assert handed.pop() == dtype
    # the bmmp-ties shape (n = 64, c = 1, delta = 4, half the rows oversize):
    # the stack and every probe block reach eq<-bool as float32
    matrix, queries = _ties_instance(random.Random(2), n, 4, queries=3)
    config = ReductionConfig(bound_constant=1)
    solver = build_solver(parse_chain("bmmp<-eq,eq<-bool"), "bmmp", matrix, config)
    assert solver._hitting.top_values.dtype == solver._hitting._rare_values.dtype == np.float32
    recorders = []

    def recording(problem, shifted, cfg):
        recorders.append(RecordingEq(shifted, cfg))
        return recorders[-1]

    solver = BmmpFromEqSolver(matrix, config, make_inner=recording)
    for v in queries:
        solver.query(v)
    (recorder,) = recorders
    assert recorder.blocks and {block.dtype for block in recorder.blocks} == {np.dtype(np.float32)}


def test_step2_never_undershoots():
    rng = random.Random(99)
    for trial in range(25):
        n = rng.randint(2, 12)
        matrix, queries = _case_instance(rng, n, "rows")
        solver = BmmpFromEqSolver(
            matrix, ReductionConfig(bound_constant=1, seed=trial), make_inner=naive_factory
        )
        reference = NaiveSolver(matrix, problem="bmmp")
        for v in queries:
            got = solver.query(v)
            want = reference.query(v)
            for i in range(n):
                assert got[i] >= want[i]


def test_exact_inner_query_count():
    rng = random.Random(111)
    for n in (8, 16):
        matrix, queries = _case_instance(rng, n, "rows")
        config = ReductionConfig(bound_constant=1, seed=1)
        solver = BmmpFromEqSolver(matrix, config, make_inner=naive_factory)
        expected = len(solver.hitting_columns) * (3 * solver.delta - 1)
        for v in queries[:4]:
            snap = solver.counters.snapshot()
            solver.query(v)
            assert solver.counters.since(snap)["inner_queries"] == expected


def test_frozen_inner_query_count_n16_delta2():
    # 16 hitting columns (17 clamped to n) times 5 offsets: 80 inner
    # equality queries each
    rng = random.Random(112)
    matrix, queries = _case_instance(rng, 16, "rows")
    solver = BmmpFromEqSolver(matrix, ReductionConfig(delta=2, bound_constant=1), make_inner=naive_factory)
    assert len(solver.hitting_columns) == 16
    snap = solver.counters.snapshot()
    solver.query(queries[0])
    assert solver.counters.since(snap)["inner_queries"] == 80


def test_multiset_update_caps():
    rng = random.Random(121)
    n = 16
    matrix, queries = _case_instance(rng, n, "cols")
    config = ReductionConfig(bound_constant=1, seed=2)
    solver = BmmpFromEqSolver(matrix, config, make_inner=naive_factory)
    cap = config.bound_constant * n * n / solver.delta
    for v in queries:
        snap = solver.counters.snapshot()
        solver.query(v)
        assert solver.counters.since(snap)["multiset_updates"] <= cap

    matrix, queries = _case_instance(rng, n, "stream")
    solver = BmmpFromEqSolver(matrix, config, make_inner=naive_factory)
    for v in queries:
        solver.query(v)
    assert solver.counters.multiset_updates / len(queries) <= cap


def test_rejects_undeclared_or_invalid_instances():
    with pytest.raises(ValueError, match="requires a monotone case, got None"):
        BmmpFromEqSolver(Matrix([[1]]), ReductionConfig(), make_inner=naive_factory)
    with pytest.raises(ValueError):
        BmmpFromEqSolver(
            Matrix([[5, 1], [1, 1]], monotone="rows"),
            ReductionConfig(bound_constant=1),
            make_inner=naive_factory,
        )


def test_rejects_out_of_bound_queries():
    matrix = Matrix([[1, 1], [1, 2]], monotone="rows")
    solver = BmmpFromEqSolver(matrix, ReductionConfig(bound_constant=1), make_inner=naive_factory)
    with pytest.raises(ValueError):
        solver.query(Vector([5, 5]))


def test_zero_hitting_set_with_oversize_candidates_fails_openly():
    # degenerate configuration: no sampling and every candidate set too
    # large leaves the large rows unanswered (infinite), demonstrating the
    # split of responsibilities between the two steps
    n = 8
    matrix = Matrix([[0] * n for _ in range(n)], monotone="rows")
    solver = BmmpFromEqSolver(
        matrix, ReductionConfig(hitting_set_size=0, delta=2, bound_constant=1), make_inner=naive_factory
    )
    assert solver.query(Vector([0] * n)).entries == [INF] * n


def test_rows_listing_books_rmq_queries_and_candidates():
    matrix = Matrix([[0, 1, 2, 3]] * 4, monotone="rows")
    solver = _lister(matrix, 1)
    solver.list_candidates(Vector([0, 0, 0, 0]))
    assert solver.counters.rmq_queries > 0
    assert solver.counters.candidates_enumerated > 0
