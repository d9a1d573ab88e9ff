import math

import numpy as np
import pytest

from omv.chains import FULL_CYCLE, build_solver
from omv.core import DEFAULT_BOUND_CONSTANT, Matrix, ReductionConfig, Vector, validate
from omv.eq_from_bool import EqFromBoolSolver
from omv.harness import BatchingMockSolver, InstanceSpec, gen_instance
from omv.oracle import NaiveSolver

from referees import (
    accounting_check,
    adaptive_session,
    naive_factory,
    run_stream,
    success_rate_experiment,
    wilson_interval,
)


def test_generator_is_deterministic():
    spec = InstanceSpec(problem="bool", n=4, seed=7)
    first = gen_instance(spec)
    second = gen_instance(spec)
    assert first[0].rows == second[0].rows
    assert [v.entries for v in first[1]] == [v.entries for v in second[1]]


def test_generated_instances_validate():
    # at least a thousand generated instances, across every kind, all pass
    # validation for their declared kind
    produced = 0
    for seed in range(120):
        for problem in ("bool", "eq", "dom", "minwit", "minmax"):
            spec = InstanceSpec(problem=problem, n=5, seed=seed)
            matrix, queries = gen_instance(spec)
            assert validate(matrix, problem) is None
            assert len(queries) == 5
            produced += 1
        for case in ("rows", "cols", "query", "stream"):
            spec = InstanceSpec(problem="bmmp", n=5, monotone=case, bound_constant=1, seed=seed)
            matrix, _ = gen_instance(spec)
            assert validate(matrix, "bmmp", bound_constant=1) is None
            produced += 1
    assert produced >= 1000


def test_bmmp_generator_respects_each_case():
    for seed in range(10):
        matrix, _ = gen_instance(
            InstanceSpec(problem="bmmp", n=6, monotone="rows", bound_constant=1, seed=seed)
        )
        for row in matrix.rows:
            assert all(row[k] <= row[k + 1] for k in range(5))
        matrix, _ = gen_instance(
            InstanceSpec(problem="bmmp", n=6, monotone="cols", bound_constant=1, seed=seed)
        )
        for k in range(6):
            col = [row[k] for row in matrix.rows]
            assert all(col[i] <= col[i + 1] for i in range(5))
        _, queries = gen_instance(
            InstanceSpec(problem="bmmp", n=6, monotone="query", bound_constant=1, seed=seed)
        )
        for v in queries:
            assert all(v[k] <= v[k + 1] for k in range(5))
        _, queries = gen_instance(
            InstanceSpec(problem="bmmp", n=6, monotone="stream", bound_constant=1, seed=seed)
        )
        for j in range(len(queries) - 1):
            assert all(queries[j][k] <= queries[j + 1][k] for k in range(6))


def test_infinity_sprinkle_only_where_allowed():
    matrix, queries = gen_instance(
        InstanceSpec(problem="minmax", n=8, inf_prob=0.3, seed=3)
    )
    values = [v for row in matrix.rows for v in row]
    values += [x for q in queries for x in q]
    assert any(math.isinf(v) for v in values)
    with pytest.raises(ValueError):
        gen_instance(InstanceSpec(problem="eq", n=4, inf_prob=0.2, seed=0))


def test_skewed_distribution_loads_frequency_tables():
    spec = InstanceSpec(problem="eq", n=8, distribution="skewed", seed=1)
    matrix, _ = gen_instance(spec)
    solver = EqFromBoolSolver(matrix, ReductionConfig(t=2), make_inner=naive_factory)
    # with two heavy values over most entries, rare dictionaries stay small
    for k in range(8):
        assert np.count_nonzero(~np.isnan(solver.top_values[:, k])) >= 1
        total_rare = np.count_nonzero(~np.isnan(solver._rare_values[:, k]))
        assert total_rare <= 4


def test_unsatisfiable_specs_raise():
    with pytest.raises(ValueError):
        gen_instance(InstanceSpec(problem="eq", n=4, lo=5, hi=1))
    with pytest.raises(ValueError):
        gen_instance(InstanceSpec(problem="bmmp", n=4))  # missing case
    with pytest.raises(ValueError):
        gen_instance(InstanceSpec(problem="nope", n=4))
    with pytest.raises(ValueError):
        gen_instance(InstanceSpec(problem="eq", n=4, distribution="skewd"))
    with pytest.raises(ValueError):
        gen_instance(InstanceSpec(problem="bool", n=4, queries=-2))
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            gen_instance(InstanceSpec(problem="bool", n=4, density=bad))
        with pytest.raises(ValueError):
            gen_instance(InstanceSpec(problem="dom", n=4, inf_prob=bad))
    # the closed ends stay valid: no queries, all-zero or all-one densities
    assert gen_instance(InstanceSpec(problem="bool", n=4, queries=0))[1] == []
    for edge in (0.0, 1.0):
        gen_instance(InstanceSpec(problem="bool", n=4, density=edge))
        gen_instance(InstanceSpec(problem="dom", n=4, inf_prob=edge))


def test_adaptive_session_accepts_correct_solvers():
    for problem, chain in FULL_CYCLE.items():
        bmmp = problem == "bmmp"
        spec = InstanceSpec(
            problem=problem,
            n=6,
            monotone="rows" if bmmp else None,
            bound_constant=1 if bmmp else None,
            seed=5,
        )
        config = ReductionConfig(
            hitting_set_size="full", seed=5, bound_constant=1 if bmmp else DEFAULT_BOUND_CONSTANT
        )
        mismatches = adaptive_session(spec, rounds=6, chain=chain, config=config)
        assert not mismatches, (problem, mismatches)


def test_adaptive_session_rejects_batching_mock():
    spec = InstanceSpec(problem="bool", n=8, seed=9)
    mismatches = adaptive_session(
        spec,
        rounds=8,
        make_solver=lambda matrix, config: BatchingMockSolver(
            matrix, config, problem="bool"
        ),
    )
    assert mismatches


def test_batching_mock_flush_produces_the_deferred_answers():
    matrix = Matrix([[1, 0], [1, 1]], tag="boolean")
    mock = BatchingMockSolver(matrix, problem="bool")
    queries = [Vector([1, 0]), Vector([0, 1])]
    for v in queries:
        mock.query(v)
    reference = NaiveSolver(matrix, problem="bool")
    flushed = mock.flush()
    for got, v in zip(flushed, queries):
        assert got.entries == reference.query(v).entries


def test_adaptive_stream_is_deterministic_for_fixed_seed():
    spec = InstanceSpec(problem="dom", n=5, seed=21)
    built = []

    def factory(matrix, config):
        built.append(build_solver(["dom<-eq", "eq<-bool", "naive"], "dom", matrix, config))
        return built[-1]

    first = adaptive_session(spec, rounds=5, make_solver=factory)
    second = adaptive_session(spec, rounds=5, make_solver=factory)
    assert built[0].counters == built[1].counters
    assert first == second


def test_mismatch_reports_replay_identically():
    # failures are data: replaying the same seed and config reproduces the
    # identical mismatch set
    spec = InstanceSpec(problem="bool", n=8, seed=33)
    factory = lambda matrix, config: BatchingMockSolver(matrix, config, problem="bool")
    first = adaptive_session(spec, rounds=8, make_solver=factory)
    second = adaptive_session(spec, rounds=8, make_solver=factory)
    assert first
    assert first == second


def test_accounting_check_all_heads():
    checks = [
        (["eq<-bool", "naive"], InstanceSpec(problem="eq", n=8, seed=1)),
        (
            ["minmax<-dom", "dom<-eq", "eq<-bool", "naive"],
            InstanceSpec(problem="minmax", n=8, seed=2),
        ),
        (["dom<-eq", "naive"], InstanceSpec(problem="dom", n=8, seed=3)),
        (
            ["bmmp<-eq", "naive"],
            InstanceSpec(problem="bmmp", n=8, monotone="cols", bound_constant=1, seed=4),
        ),
        (
            ["bmmp<-eq", "naive"],
            InstanceSpec(problem="bmmp", n=8, monotone="stream", bound_constant=1, seed=5),
        ),
        # -inf-heavy: every -inf entry goes through the buckets, within the scan cap
        (
            ["minmax<-dom", "naive"],
            InstanceSpec(problem="minmax", n=16, lo=-5, hi=5, inf_prob=0.5, seed=3),
        ),
    ]
    for chain, spec in checks:
        result = accounting_check(chain, spec)
        assert all(result.checks.values()), (chain, result.checks, result.details)


def test_wilson_interval_sanity():
    low, high = wilson_interval(90, 100)
    assert 0.80 < low < 0.90 < high < 0.96
    assert wilson_interval(0, 0) == (0.0, 1.0)
    low, high = wilson_interval(100, 100)
    assert high == pytest.approx(1.0) and low > 0.95


def test_success_rate_experiment_requires_enough_trials():
    with pytest.raises(ValueError):
        success_rate_experiment(8, None, trials=10, seed=0)


def test_success_rate_experiment_forced_hit_is_perfect():
    result = success_rate_experiment(8, None, trials=100, seed=0, hitting="full")
    assert result.rate == 1.0
    assert result.fully_correct == 100
    assert result.entry_failures == 0


def test_run_stream_spots_are_one_based():
    matrix = Matrix([[1, 0], [0, 1]], tag="boolean")

    class Wrong(NaiveSolver):
        def _answer(self, vector):
            flipped = super()._answer(vector).copy()
            flipped[1] ^= True
            return flipped

    mismatches = run_stream(
        Wrong(matrix, problem="bool"),
        NaiveSolver(matrix, problem="bool"),
        [Vector([1, 1])],
    )
    assert mismatches == [(1, 2)]
