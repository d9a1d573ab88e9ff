"""Acceptance suite: the package's exit criteria.

Each test prints one pass line when its criterion holds (run with
``pytest tests/test_acceptance.py -v -s`` to see them); assertion failures
mark the criterion red.  Deterministic reductions must match the naive
solver exactly, the randomized min-plus reduction must meet its success
probability, and every reduction's per-query operation counts must equal
the structural bookkeeping it advertises.
"""

import itertools
import random

import numpy as np

from omv.bmmp_from_eq import BmmpFromEqSolver
from omv.chains import ALT_BOOL_CHAIN, FULL_CYCLE, LINKS, build_solver
from omv.core import DEFAULT_BOUND_CONSTANT, Matrix, ReductionConfig, Vector
from omv.folklore import DomFromEqSolver, rank_bit_count, tilt_matrix, tilt_query
from omv.harness import BatchingMockSolver, InstanceSpec, gen_instance
from omv.oracle import NaiveSolver

from referees import (
    accounting_check,
    adaptive_session,
    bit_trick_predicate,
    candidate_set_bruteforce,
    naive_factory,
    run_stream,
    success_rate_experiment,
)


def _report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"PASS: {criterion}{suffix}")


def _spec_for(problem: str, n: int, rng: random.Random) -> InstanceSpec:
    if problem in ("bool", "minwit"):
        return InstanceSpec(
            problem=problem, n=n, density=rng.choice([0.2, 0.5, 0.8]),
            seed=rng.randrange(2**30),
        )
    if problem == "eq":
        lo, hi = rng.choice([(0, 3), (-50, 50), (0, n)])
        dist = rng.choice(["uniform", "skewed"])
        return InstanceSpec(
            problem=problem, n=n, distribution=dist, lo=lo, hi=hi,
            seed=rng.randrange(2**30),
        )
    lo, hi = rng.choice([(-5, 5), (-50, 50)])
    inf_prob = rng.choice([0.0, 0.15])
    return InstanceSpec(
        problem=problem, n=n, lo=lo, hi=hi, inf_prob=inf_prob,
        seed=rng.randrange(2**30),
    )


def test_criterion_1_deterministic_reduction_exactness():
    """Five deterministic reductions: 200 mixed instances each, 0 mismatches."""
    setups = [
        ("eq", ["eq<-bool", "naive"]),
        ("minmax", ["minmax<-dom", "naive"]),
        ("dom", ["dom<-eq", "naive"]),
        ("minwit", ["minwit<-minmax", "naive"]),
        ("bool", ["bool<-bmmp", "bmmp<-eq", "naive"]),  # forced-hit chain
    ]
    rng = random.Random(20240)
    total_mismatches = 0
    for problem, chain in setups:
        for trial in range(200):
            n = rng.randint(2, 32)
            spec = _spec_for(problem, n, rng)
            matrix, queries = gen_instance(spec)
            config = ReductionConfig(
                t=rng.choice([1, 2, None, n]),
                delta=rng.choice([1, 2, None, n]),
                hitting_set_size="full",
                seed=trial,
            )
            solver = build_solver(chain, problem, matrix, config)
            reference = NaiveSolver(matrix, problem=problem)
            mismatches = run_stream(solver, reference, queries)
            assert not mismatches, (problem, chain, spec, mismatches[:5])
            total_mismatches += len(mismatches)
    assert total_mismatches == 0
    _report("criterion 1: deterministic reduction exactness", "5 x 200 instances")


def test_criterion_2_candidates_cover_the_minimum():
    """The rounded candidate set always contains a true minimizer."""
    rng = random.Random(52)
    for _ in range(1000):
        n = rng.randint(2, 16)
        delta = rng.randint(1, 4)
        lo, hi = rng.choice([(0, n), (0, 2 * n), (-n, n)])
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        v = Vector([rng.randint(lo, hi) for _ in range(n)])
        i = rng.randrange(n)
        candidates = candidate_set_bruteforce(Matrix(rows), v, delta, i)
        best = min(rows[i][k] + v[k] for k in range(n))
        assert min(rows[i][k] + v[k] for k in candidates) == best
    _report("criterion 2: candidate sets cover the min-plus minimum", "1000 draws")


def test_criterion_3_candidate_listing_matches_bruteforce():
    """All four monotone cases: exact listings, oversize iff above the cap."""
    rng = random.Random(53)
    for case in ("rows", "cols", "query", "stream"):
        rows_checked = 0
        while rows_checked < 1000:
            n = rng.randint(2, 16)
            delta = rng.choice([1, 2, 3])
            cap = n // delta
            spec = InstanceSpec(
                problem="bmmp", n=n, monotone=case, bound_constant=1,
                seed=rng.randrange(2**30),
            )
            matrix, queries = gen_instance(spec)
            config = ReductionConfig(delta=delta, bound_constant=1, hitting_set_size=0)
            solver = BmmpFromEqSolver(matrix, config, make_inner=naive_factory)
            for v in queries:
                for i, report in enumerate(solver.list_candidates(v)):
                    want = candidate_set_bruteforce(matrix, v, delta, i)
                    if len(want) > cap:
                        assert report.candidates is None, (case, i)
                    else:
                        assert report.candidates == sorted(want), (case, i)
                rows_checked += n
    _report("criterion 3: candidate listing vs brute force", "4 cases x 1000+ rows")


def test_criterion_4_randomized_success_probability():
    """Randomized min-plus: >= 90% fully correct streams; forced-hit exact."""
    result = success_rate_experiment(32, None, trials=200, seed=97)
    assert result.rate >= 0.90, result
    forced = success_rate_experiment(32, None, trials=100, seed=11, hitting="full")
    assert forced.rate == 1.0
    assert forced.entry_failures == 0
    _report(
        "criterion 4: randomized success probability",
        f"rate={result.rate:.3f} wilson=[{result.wilson_low:.3f},{result.wilson_high:.3f}] "
        f"entry_rate={result.entry_failure_rate:.2e} (union-bound {result.entry_bound:.2e}); "
        f"forced-hit rate=1.000",
    )


def test_criterion_5_bit_trick_and_rank_embedding():
    """Bit predicate is strict less-than; rank maps preserve dominance."""
    for a in range(1024):
        for b in range(1024):
            if bit_trick_predicate(a, b, 10) != (a < b):
                raise AssertionError((a, b))

    # a 4x4 matrix realizes any value set drawn from [-4, 4]; the rank
    # equivalence only depends on that set, so sweeping all 511 of them
    # (against every query value in a wider range) is genuinely exhaustive
    span = list(range(-4, 5))
    checked = 0
    for size in range(1, len(span) + 1):
        for values in itertools.combinations(span, size):
            cells = list(values) + [values[-1]] * (16 - size)
            solver = DomFromEqSolver(
                Matrix([cells[i * 4 : (i + 1) * 4] for i in range(4)]),
                ReductionConfig(),
                make_inner=naive_factory,
            )
            for rank, a in enumerate(values, start=1):  # 1 + the values below a
                for b in range(-6, 7):
                    assert (a <= b) == (rank <= solver.query_rank(b))
            checked += 1
    assert checked == 511
    _report(
        "criterion 5: bit trick and rank embedding",
        "1024^2 pairs; all 511 value sets of [-4,4]",
    )


def test_criterion_6_counter_accounting():
    """Exact inner-query counts and scan/update caps at n in {8, 16, 32}."""
    for n in (8, 16, 32):
        plans = [
            (["eq<-bool", "naive"], InstanceSpec(problem="eq", n=n, seed=n)),
            (
                ["minmax<-dom", "naive"],
                InstanceSpec(problem="minmax", n=n, seed=n + 1),
            ),
            (["dom<-eq", "naive"], InstanceSpec(problem="dom", n=n, seed=n + 2)),
            (
                ["bmmp<-eq", "naive"],
                InstanceSpec(problem="bmmp", n=n, monotone="cols", bound_constant=1, seed=n + 3),
            ),
            (
                ["bmmp<-eq", "naive"],
                InstanceSpec(problem="bmmp", n=n, monotone="stream", bound_constant=1, seed=n + 4),
            ),
        ]
        for chain, spec in plans:
            result = accounting_check(chain, spec)
            assert all(result.checks.values()), (n, chain, result.checks, result.details)
            if chain[0] == "dom<-eq":
                assert result.details["expected_inner_per_query"] == rank_bit_count(n)
    _report("criterion 6: counter accounting", "n in {8,16,32}, all four reductions")


def test_criterion_7_full_cycles_reproduce_every_oracle():
    """Every problem's chain down to the naive boolean solver is exact."""
    rng = random.Random(71)
    chains = list(FULL_CYCLE.items()) + [("bool", ALT_BOOL_CHAIN)]
    for problem, chain in chains:
        bmmp = problem == "bmmp"
        c = 1 if bmmp else DEFAULT_BOUND_CONSTANT
        for trial in range(50):
            n = rng.randint(2, 24)
            spec = InstanceSpec(
                problem=problem,
                n=n,
                monotone="rows" if bmmp else None,
                bound_constant=1 if bmmp else None,
                seed=rng.randrange(2**30),
            )
            matrix, queries = gen_instance(spec)
            config = ReductionConfig(hitting_set_size="full", seed=trial, bound_constant=c)
            solver = build_solver(chain, problem, matrix, config)
            reference = NaiveSolver(matrix, problem=problem)
            mismatches = run_stream(solver, reference, queries)
            assert not mismatches, (problem, chain, n, mismatches[:5])
    _report(
        "criterion 7: full reduction cycles",
        "6 problems (+ the short boolean route) x 50 instances",
    )


def test_criterion_8_online_adaptive_sessions():
    """Every reduction survives hash-chained adaptive streams; batching fails."""
    for name, link in LINKS.items():
        problem = link.problem
        chain = [name, "naive"]
        bmmp = problem == "bmmp"
        c = 1 if bmmp else DEFAULT_BOUND_CONSTANT
        for session in range(20):
            spec = InstanceSpec(
                problem=problem,
                n=8,
                monotone="stream" if bmmp else None,
                bound_constant=1 if bmmp else None,
                seed=1000 + session,
            )
            config = ReductionConfig(hitting_set_size="full", seed=session, bound_constant=c)
            mismatches = adaptive_session(spec, rounds=8, chain=chain, config=config)
            assert not mismatches, (name, session, mismatches[:5])

    rejected = 0
    for session in range(20):
        spec = InstanceSpec(problem="bool", n=8, seed=2000 + session)
        mismatches = adaptive_session(
            spec,
            rounds=8,
            make_solver=lambda matrix, config: BatchingMockSolver(
                matrix, config, problem="bool"
            ),
        )
        if mismatches:
            rejected += 1
    assert rejected == 20
    _report(
        "criterion 8: online-ness",
        "7 links x 20 adaptive sessions pass; batching control rejected 20/20",
    )


def test_criterion_9_boolean_tilt_monotonicity():
    """The boolean-to-min-plus encoding is monotone in all promised ways."""
    rng = random.Random(91)
    for _ in range(100):
        n = rng.randint(2, 12)
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
            if previous is not None:
                assert (previous <= encoded).all()
            assert (np.diff(encoded[::-1]) >= 0).all()
            previous = encoded
    _report("criterion 9: boolean tilt monotonicity", "100 instances")
