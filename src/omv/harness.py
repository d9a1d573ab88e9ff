"""Instance generation, differential testing, and online-ness enforcement.

Generators produce (matrix, query stream) pairs for every problem kind
from a seed, with uniform or skewed (two heavy values at 80/20 relative
mass over most entries, uniform tail elsewhere) integer values, optional
infinity sprinkling where the problem permits, and the four query-stream
shapes the bounded monotone min-plus problem declares.

run_stream() runs a solver and a reference over one stream and reports
the mismatches.  adaptive_session() enforces
online behavior: each next query is derived from a hash of the previous
answer, so the stream does not exist ahead of time and any solver that
peeks ahead or defers its answers diverges from the oracle run on the
stream it actually produced.  BatchingMockSolver is the negative control:
it stashes queries and emits placeholders, only computing real answers
when flushed at the end.

accounting_check() replays a chain while asserting the per-query inner
query counts and scan/update caps that each reduction promises, and
success_rate_experiment() measures the randomized min-plus reduction's
full-stream correctness rate with a Wilson confidence interval.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .chains import build_solver
from .core import (
    INF,
    NEG_INF,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    Value,
    Vector,
    ceil_div,
    to_vector,
    validate,
)
from .folklore import rank_bit_count
from .oracle import NaiveSolver


DISTRIBUTIONS = ("uniform", "skewed")


@dataclass
class InstanceSpec:
    """Recipe for one reproducible random instance."""

    problem: str
    n: int
    distribution: Optional[str] = None  # "uniform" (default) | "skewed"
    lo: Optional[int] = None  # default 0
    hi: Optional[int] = None  # default n
    density: Optional[float] = None  # 1-probability for boolean entries, default 0.5
    inf_prob: float = 0.0  # per-entry infinity chance (dom / minmax only)
    monotone: Optional[str] = None  # bmmp case
    bound_constant: int = 1  # bmmp value bound [0, c*n]
    queries: Optional[int] = None  # default n
    seed: int = 0


_INTEGER = ("eq", "dom", "minmax")
#: The problems each optional knob applies to; setting it elsewhere is an error.
_KNOB_PROBLEMS = {
    "distribution": _INTEGER, "lo": _INTEGER, "hi": _INTEGER, "density": ("bool", "minwit")
}


def _resolved(spec: InstanceSpec) -> InstanceSpec:
    """``spec`` with its unset knobs at their defaults."""
    defaults = {"distribution": "uniform", "lo": 0, "hi": spec.n, "density": 0.5}
    return replace(spec, **{k: d for k, d in defaults.items() if getattr(spec, k) is None})


def _skew_pool(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    a = rng.randint(lo, hi)
    b = rng.randint(lo, hi)
    return a, b


def _int_entry(
    rng: random.Random, spec: InstanceSpec, heavy: Optional[tuple[int, int]]
) -> Value:
    if spec.inf_prob > 0.0 and rng.random() < spec.inf_prob:
        return INF if rng.random() < 0.5 else NEG_INF
    if heavy is not None and rng.random() < 0.8:
        return heavy[0] if rng.random() < 0.8 else heavy[1]
    return rng.randint(spec.lo, spec.hi)


def gen_instance(spec: InstanceSpec) -> tuple[Matrix, list[Vector]]:
    """Generate a matrix and query stream satisfying the kind's constraints."""
    rng = random.Random(spec.seed)
    n = spec.n
    if n < 1:
        raise ValueError("instance dimension must be positive")
    if spec.distribution not in (None, *DISTRIBUTIONS):
        raise ValueError(f"unknown distribution {spec.distribution!r}")
    if spec.queries is not None and spec.queries < 0:
        raise ValueError(f"query count must be at least 0, got {spec.queries}")
    for name in ("density", "inf_prob"):
        value = getattr(spec, name)
        if value is not None and not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    for name, problems in _KNOB_PROBLEMS.items():
        if getattr(spec, name) is not None and spec.problem not in problems:
            raise ValueError(f"{name} does not apply to {spec.problem} instances")
    if spec.monotone is not None and spec.problem != "bmmp":
        raise ValueError("monotone case only applies to bmmp")
    if spec.inf_prob > 0.0 and spec.problem not in ("dom", "minmax"):
        raise ValueError(f"{spec.problem} instances must stay finite")
    q = spec.queries if spec.queries is not None else n
    spec = _resolved(spec)

    if spec.problem in ("bool", "minwit"):
        rows = [[1 if rng.random() < spec.density else 0 for _ in range(n)] for _ in range(n)]
        queries = [
            Vector([1 if rng.random() < spec.density else 0 for _ in range(n)])
            for _ in range(q)
        ]
        matrix = Matrix(rows, tag="boolean")
    elif spec.problem in _INTEGER:
        if spec.hi < spec.lo:
            raise ValueError("empty value range")
        heavy = _skew_pool(rng, spec.lo, spec.hi) if spec.distribution == "skewed" else None
        rows = [[_int_entry(rng, spec, heavy) for _ in range(n)] for _ in range(n)]
        queries = [Vector([_int_entry(rng, spec, heavy) for _ in range(n)]) for _ in range(q)]
        matrix = Matrix(rows, tag="integer")
    elif spec.problem == "bmmp":
        if spec.monotone is None:
            raise ValueError("bmmp spec requires a monotone case")
        top = spec.bound_constant * n
        if top < 0:
            raise ValueError("negative value bound")

        def draw() -> int:
            return rng.randint(0, top)

        rows = [[draw() for _ in range(n)] for _ in range(n)]
        if spec.monotone == "rows":
            rows = [sorted(row) for row in rows]
        elif spec.monotone == "cols":
            for k in range(n):
                column = sorted(rows[i][k] for i in range(n))
                for i in range(n):
                    rows[i][k] = column[i]
        if spec.monotone == "query":
            queries = [Vector(sorted(draw() for _ in range(n))) for _ in range(q)]
        elif spec.monotone == "stream":
            per_coord = [sorted(draw() for _ in range(q)) for _ in range(n)]
            queries = [Vector([per_coord[k][j] for k in range(n)]) for j in range(q)]
        else:
            queries = [Vector([draw() for _ in range(n)]) for _ in range(q)]
        matrix = Matrix(rows, tag="bounded", monotone=spec.monotone)
    else:
        raise ValueError(f"unknown problem {spec.problem!r}")

    violation = validate(matrix, spec.problem, bound_constant=max(spec.bound_constant, 1))
    if violation is not None:
        raise AssertionError(f"generator produced an invalid instance: {violation}")
    return matrix, queries


def _diff(j: int, got: Vector, want: Vector) -> list[tuple[int, int]]:
    """The 1-based (query, row) spots where answer j disagrees."""
    return [(j, i + 1) for i in range(len(want)) if got[i] != want[i]]


def run_stream(
    solver: OnlineSolver, reference: OnlineSolver, queries: list[Vector]
) -> list[tuple[int, int]]:
    """Run both solvers over the same stream; return 1-based mismatch spots."""
    mismatches = []
    for j, query in enumerate(queries, start=1):
        mismatches += _diff(j, solver.query(query), reference.query(query))
    return mismatches


def _hash_ints(material: str, count: int, modulus: int) -> list[int]:
    out: list[int] = []
    block = 0
    while len(out) < count:
        digest = hashlib.sha256(f"{material}|{block}".encode()).digest()
        for idx in range(0, len(digest) - 1, 2):
            if len(out) == count:
                break
            out.append(int.from_bytes(digest[idx : idx + 2], "big") % modulus)
        block += 1
    return out


def _adaptive_query(
    spec: InstanceSpec,
    j: int,
    previous_answer: Optional[Vector],
    previous_query: Optional[Vector],
) -> Vector:
    """Derive query j from a hash of the previous answer (online-ness proof)."""
    n = spec.n
    answer_text = " ".join(str(v) for v in previous_answer) if previous_answer else ""
    material = f"{spec.seed}|{j}|{answer_text}"
    if spec.problem in ("bool", "minwit"):
        return Vector([h % 2 for h in _hash_ints(material, n, 2)])
    if spec.problem in _INTEGER:
        span = spec.hi - spec.lo + 1
        return Vector([spec.lo + h for h in _hash_ints(material, n, span)])
    top = spec.bound_constant * n
    if spec.monotone == "stream":
        base = previous_query.entries if previous_query is not None else [0] * n
        bumps = _hash_ints(material, n, 3)
        return Vector([min(base[k] + bumps[k], top) for k in range(n)])
    values = [h % (top + 1) for h in _hash_ints(material, n, top + 1)]
    if spec.monotone == "query":
        values.sort()
    return Vector(values)


def adaptive_session(
    spec: InstanceSpec,
    rounds: int,
    chain: Optional[list[str]] = None,
    make_solver: Optional[Callable[[Matrix, ReductionConfig], OnlineSolver]] = None,
    config: Optional[ReductionConfig] = None,
) -> list[tuple[int, int]]:
    """Drive a solver with hash-chained queries; return 1-based mismatch spots.

    Either a chain or a custom solver factory must be given.  Because each
    query is derived from the solver's previous answer, a correct solver
    reproduces the oracle run on the very stream it induced; a solver that
    defers answers derails the stream and is caught.
    """
    matrix, _ = gen_instance(spec)
    spec = _resolved(spec)
    config = config if config is not None else ReductionConfig(seed=spec.seed)
    if make_solver is not None:
        solver = make_solver(matrix, config)
    elif chain is not None:
        solver = build_solver(chain, spec.problem, matrix, config)
    else:
        raise ValueError("need a chain or a solver factory")
    reference = NaiveSolver(matrix, problem=spec.problem)

    mismatches = []
    previous_answer: Optional[Vector] = None
    previous_query: Optional[Vector] = None
    for j in range(1, rounds + 1):
        query = _adaptive_query(spec, j, previous_answer, previous_query)
        answer = solver.query(query)
        mismatches += _diff(j, answer, reference.query(query))
        previous_answer = answer
        previous_query = query
    return mismatches


class BatchingMockSolver(OnlineSolver):
    """Negative control: defers all real work to a final flush.

    query() only records the vector and emits a placeholder; flush()
    computes the whole batch afterwards.  Under an adaptive session the
    placeholders diverge from the oracle, which is exactly the point.
    """

    def __init__(self, matrix: Matrix, config=None, problem: str = "bool"):
        super().__init__(matrix, config)
        self.matrix = matrix
        self.problem = problem
        self.pending: list[np.ndarray] = []

    def _answer(self, v: np.ndarray) -> np.ndarray:
        self.pending.append(v)
        filler: Value = INF if self.problem in ("minwit",) else 0
        return np.full(self.n, filler)

    def flush(self) -> list[Vector]:
        solver = NaiveSolver(self.matrix, problem=self.problem)
        return [to_vector(solver.query(v)) for v in self.pending]


@dataclass
class AccountingResult:
    checks: dict[str, bool]
    details: dict[str, object]


def accounting_check(
    chain: list[str],
    spec: InstanceSpec,
    config: Optional[ReductionConfig] = None,
) -> AccountingResult:
    """Assert the head link's per-query structural counts over one stream."""
    matrix, queries = gen_instance(spec)
    config = config if config is not None else ReductionConfig(seed=spec.seed)
    solver = build_solver(chain, spec.problem, matrix, config)
    n = spec.n
    head = chain[0]

    checks: dict[str, bool] = {}
    details: dict[str, object] = {"chain": ",".join(chain), "n": n}
    inner_exact = True
    scan_ok = True
    update_ok = True
    per_query_inner: list[int] = []

    if head == "eq<-bool":
        expected_inner = solver.t
        scan_cap = n * ceil_div(n, solver.t)
    elif head == "minmax<-dom":
        expected_inner = 2 * solver.t
        scan_cap = 2 * n * ceil_div(n, solver.t)
    elif head == "dom<-eq":
        expected_inner = rank_bit_count(n)
        scan_cap = None
    elif head == "bmmp<-eq":
        expected_inner = len(solver.hitting_columns) * (3 * solver.delta - 1)
        scan_cap = None
    else:
        raise ValueError(f"no accounting model for chain head {head!r}")

    update_cap = None
    if head == "bmmp<-eq" and spec.monotone in ("cols", "stream"):
        update_cap = config.bound_constant * n * n / solver.delta

    total_updates = 0
    for query in queries:
        snap = solver.counters.snapshot()
        solver.query(query)
        delta = solver.counters.since(snap)
        per_query_inner.append(delta["inner_queries"])
        if delta["inner_queries"] != expected_inner:
            inner_exact = False
        if scan_cap is not None and delta["scan_length_total"] > scan_cap:
            scan_ok = False
        if update_cap is not None and spec.monotone == "cols":
            if delta["multiset_updates"] > update_cap:
                update_ok = False
        total_updates += delta["multiset_updates"]

    checks["inner_queries_exact"] = inner_exact
    details["expected_inner_per_query"] = expected_inner
    details["observed_inner_per_query"] = per_query_inner
    if scan_cap is not None:
        checks["scan_cap"] = scan_ok
        details["scan_cap"] = scan_cap
    if update_cap is not None:
        if spec.monotone == "stream":
            update_ok = total_updates / len(queries) <= update_cap
        checks["multiset_update_cap"] = update_ok
        details["update_cap"] = update_cap
        details["total_updates"] = total_updates
    return AccountingResult(checks, details)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class SuccessRateResult:
    trials: int
    fully_correct: int
    rate: float
    wilson_low: float
    wilson_high: float
    entries: int
    entry_failures: int
    entry_failure_rate: float
    entry_bound: float  # union-bound prediction per entry


def success_rate_experiment(
    n: int,
    delta: Optional[int],
    trials: int,
    seed: int,
    monotone: str = "rows",
    hitting: Optional[int | str] = None,
    bound_constant: int = 1,
) -> SuccessRateResult:
    """Fraction of fully correct n-query streams for the randomized min-plus solver."""
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful rate")
    fully_correct = 0
    entry_failures = 0
    entries = 0
    for trial in range(trials):
        spec = InstanceSpec(
            problem="bmmp",
            n=n,
            monotone=monotone,
            bound_constant=bound_constant,
            seed=seed + trial,
        )
        matrix, queries = gen_instance(spec)
        config = ReductionConfig(
            delta=delta, hitting_set_size=hitting, seed=seed + trial,
            bound_constant=bound_constant,
        )
        solver = build_solver(["bmmp<-eq", "naive"], "bmmp", matrix, config)
        reference = NaiveSolver(matrix, problem="bmmp")
        mismatches = run_stream(solver, reference, queries)
        entries += n * len(queries)
        entry_failures += len(mismatches)
        if not mismatches:
            fully_correct += 1
    low, high = wilson_interval(fully_correct, trials)
    return SuccessRateResult(
        trials=trials,
        fully_correct=fully_correct,
        rate=fully_correct / trials,
        wilson_low=low,
        wilson_high=high,
        entries=entries,
        entry_failures=entry_failures,
        entry_failure_rate=entry_failures / entries if entries else 0.0,
        entry_bound=1.0 / n**3,
    )
