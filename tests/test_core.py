import numpy as np
import pytest

from omv.core import (
    INF,
    NEG_INF,
    CounterLedger,
    DimensionMismatch,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    Vector,
    Violation,
    ceil_cbrt,
    ceil_div,
    ceil_sqrt,
    validate,
    validate_query,
)


def test_validate_boolean_domain():
    bad = Matrix([[0, 1], [2, 0]], tag="boolean")
    violation = validate(bad, "bool")
    assert violation is not None
    assert (violation.row, violation.col) == (2, 1)


def test_validate_rows_monotone():
    ok = Matrix([[1, 2], [5, 5]], monotone="rows")
    assert validate(ok, "bmmp", bound_constant=4) is None
    bad = Matrix([[2, 1], [5, 5]], monotone="rows")
    violation = validate(bad, "bmmp", bound_constant=4)
    assert violation is not None
    assert (violation.row, violation.col) == (1, 2)


def test_validate_cols_monotone():
    bad = Matrix([[3, 1], [2, 4]], monotone="cols")
    violation = validate(bad, "bmmp", bound_constant=4)
    assert (violation.row, violation.col) == (2, 1)


def test_validate_rejects_huge_values():
    m = Matrix([[2**40 + 1]])
    assert validate(m, "eq") is not None
    assert validate(Matrix([[2**40]]), "eq") is None


def test_validate_arrays_and_ints_beyond_float_range():
    assert validate(np.array([[0.0, 1.0], [1.0, 0.0]]), "bool") is None
    violation = validate(np.array([[0.0, 1.0], [1.0, 2.0]]), "bool")
    assert (violation.row, violation.col) == (2, 2)
    violation = validate(Matrix([[1, INF], [0, -(10**400)]]), "dom")
    assert (violation.row, violation.col) == (2, 2) and "2^40" in violation.reason
    violation = validate_query(np.array([0.0, 5.0]), "bmmp", 2, bound_constant=1)
    assert violation.col == 2 and "outside" in violation.reason
    assert validate_query(Vector([3, 10**400]), "minmax", 2).col == 2


def test_validate_eq_rejects_infinities():
    assert validate(Matrix([[INF]]), "eq") is not None
    assert validate(Matrix([[INF]]), "dom") is None
    assert validate(Matrix([[NEG_INF]]), "minmax") is None


def test_validate_names_an_infinite_bmmp_entry():
    # an infinite entry is also outside [0, c*n]; the finiteness rule names it
    matrix = Matrix([[0, INF], [0, 0]], monotone="query")
    assert validate(matrix, "bmmp") == Violation(1, 2, "min-plus requires finite entries")


@pytest.mark.parametrize("problem", ["dom", "minmax"])
def test_validate_rejects_nan_and_non_integers(problem):
    nan = float("nan")
    violation = validate(Matrix([[nan, 1], [2, 3]]), problem)
    assert (violation.row, violation.col) == (1, 1) and "NaN" in violation.reason
    violation = validate(Matrix([[2.5, 7], [9, 8]]), problem)
    assert (violation.row, violation.col) == (1, 1) and "integer" in violation.reason
    violation = validate_query(Vector([1, nan]), problem, 2)
    assert violation.col == 2 and "NaN" in violation.reason
    violation = validate_query(np.array([0.0, -0.5]), problem, 2)
    assert violation.col == 2 and "integer" in violation.reason
    assert validate(Matrix([[INF, NEG_INF], [-3, 2**40]]), problem) is None
    assert validate_query(Vector([NEG_INF, 4]), problem, 2) is None


def test_validate_rejects_non_integers_for_eq_and_bmmp():
    assert "integer" in validate(Matrix([[0.5]]), "eq").reason
    assert "integer" in validate(Matrix([[0.5]], monotone="rows"), "bmmp").reason


def test_validate_bmmp_bounds():
    m = Matrix([[0, 2], [2, 2]], monotone="rows")
    assert validate(m, "bmmp", bound_constant=1) is None
    m = Matrix([[0, 8], [8, 8]], monotone="rows")
    assert validate(m, "bmmp", bound_constant=1) is not None
    assert validate(m, "bmmp", bound_constant=4) is None


def test_validate_bmmp_requires_case():
    assert validate(Matrix([[1]]), "bmmp") is not None


@pytest.mark.parametrize(
    "matrix,problem,reason",
    [
        (Matrix([[1]]), "nonsense", "unknown problem 'nonsense'"),
        (Matrix([[1]], monotone="rows"), "eq", "monotone case only applies to bmmp"),
        (Matrix([]), "eq", "matrix dimension must be positive"),
    ],
    ids=["unknown-problem", "monotone-not-bmmp", "empty"],
)
def test_validate_rejects_what_no_entry_names(matrix, problem, reason):
    assert validate(matrix, problem) == Violation(None, None, reason)


def test_validate_ragged_row_names_its_row():
    violation = validate(Matrix([[1, 2], [3]]), "eq")
    assert (violation.row, violation.col) == (2, None)
    assert str(violation) == "row has length 1, expected 2 at row 2"


def test_validate_query_shape_and_case():
    assert validate_query(Vector([1, 2]), "eq", 2) is None
    assert validate_query(Vector([1]), "eq", 2) is not None
    assert "unknown problem" in validate_query(Vector([1, 2]), "foo", 2).reason
    assert validate_query(Vector([2, 1]), "bmmp", 2, monotone="query") is not None
    assert validate_query(Vector([1, 2]), "bmmp", 2, monotone="query") is None


def test_validate_query_stream_order():
    def check(query, previous, problem="bmmp", monotone="stream"):
        return validate_query(Vector(query), problem, 3, monotone=monotone, previous=previous)

    assert check([3, 1, 2], None) is None
    assert check([3, 1, 2], Vector([3, 1, 2])) is None  # equal coordinates do not fall
    assert check([3, 1, 2], np.array([0.0, 1.0, 1.0])) is None
    violation = check([3, 1, 2], Vector([3, 2, 5]))  # columns 2 and 3 fall
    assert violation.col == 2
    assert str(violation) == "stream coordinate fell from 2 to 1 at column 2"
    # the raw values count: at delta = 2, 5 and 4 round to the same bucket
    violation = validate_query(Vector([4, 1]), "bmmp", 2, monotone="stream", previous=Vector([5, 1]))
    assert violation.col == 1
    for case in ("rows", "cols", "query"):
        assert check([1, 1, 2], Vector([5, 5, 5]), monotone=case) is None
    for problem in ("bool", "eq", "dom", "minwit", "minmax"):
        assert check([0, 1, 1], Vector([1, 1, 1]), problem, monotone=None) is None
        assert check([0, 1, 1], Vector([1, 1, 1]), problem) is None


def test_config_auto_resolution():
    cfg = ReductionConfig()
    assert cfg.resolve_t(16) == 4
    assert cfg.resolve_t(17) == 5
    assert cfg.resolve_delta(27) == 3
    assert cfg.resolve_delta(28) == 4
    # ceil(3 * 2 * ln 16) = ceil(16.63...) = 17, clamped to n = 16
    assert cfg.resolve_hitting(16, 2, 32) == 16
    assert cfg.resolve_hitting(64, 4, 64) == 50
    assert cfg.resolve_hitting(1, 3, 1) == 0
    assert ReductionConfig(t=2, delta=5).resolve_t(100) == 2
    assert ReductionConfig(hitting_set_size="full").resolve_hitting(8, 2, 16) == 8
    assert ReductionConfig(hitting_set_size=20).resolve_hitting(8, 2, 16) == 8


def test_auto_hitting_set_is_at_least_one_below_the_cap():
    # ceil(3 * delta * ln 1) = 0, but a 1 x 1 row is oversize at cap 0
    assert ReductionConfig().resolve_hitting(1, 1, 0) == 1
    assert ReductionConfig().resolve_hitting(1, 1, 1) == 0
    # explicit sizes are taken as given
    assert ReductionConfig(hitting_set_size=0).resolve_hitting(1, 1, 0) == 0
    assert ReductionConfig(hitting_set_size="full").resolve_hitting(1, 1, 0) == 1


@pytest.mark.parametrize(
    "knobs",
    [
        {"t": 0},
        {"t": -1},
        {"delta": 0},
        {"delta": -1},
        {"hitting_set_size": -3},
        {"hitting_set_size": "all"},
        {"hitting_set_size": 2.5},
        {"t": 2.5},
        {"delta": 1.5},
        {"t": True},
        {"delta": True},
        {"hitting_set_size": True},
        {"bound_constant": -1},
        {"bound_constant": 2.5},
        {"bound_constant": True},
    ],
)
def test_config_rejects_invalid_knobs(knobs):
    with pytest.raises(ValueError):
        ReductionConfig(**knobs)


def test_ceil_helpers():
    assert ceil_div(7, 3) == 3
    assert ceil_sqrt(16) == 4 and ceil_sqrt(17) == 5
    assert ceil_cbrt(1) == 1 and ceil_cbrt(27) == 3 and ceil_cbrt(26) == 3
    assert ceil_cbrt(64) == 4 and ceil_cbrt(65) == 5


def test_counters_snapshot_and_delta():
    ledger = CounterLedger()
    ledger.inner_queries += 3
    ledger.scan_length_total += 5
    snap = ledger.snapshot()
    ledger.inner_queries += 1
    assert snap == {
        "inner_queries": 3,
        "scan_length_total": 5,
        "multiset_updates": 0,
        "candidates_enumerated": 0,
        "rmq_queries": 0,
    }
    assert ledger.since(snap) == {**dict.fromkeys(snap, 0), "inner_queries": 1}


class _Echo(OnlineSolver):
    problem = "eq"

    def _answer(self, vector):
        return vector


def test_online_solver_query_index_and_dims():
    solver = _Echo(Matrix([[1, 2], [3, 4]]))
    assert solver.query_index == 1
    solver.query(Vector([0, 0]))
    assert solver.query_index == 2
    with pytest.raises(DimensionMismatch):
        solver.query(Vector([0]))
