"""The referees every solver in ``omv`` is checked against.

The module-level ``*_mv`` functions are the six products' definitions
enumerated in plain Python; they are the ground truth and stay
deliberately dumb.  ``NaiveSolver`` answers the same products in numpy and
is the leaf of every chain; the tests cross-check the two.
``candidate_set_bruteforce`` and ``bit_trick_predicate`` spell out, by
enumeration, what the min-plus listing and the dominance-through-equality
route must reproduce.  ``AllOffsetsBmmpSolver`` is ``bmmp<-eq`` asking
every hitting column at every offset, the step two whose answers the
solver's probe selection must reproduce.

run_stream() runs a solver and a reference over one stream and reports
the mismatches.  adaptive_session() enforces online behavior: each next
query is derived from a hash of the previous answer, so the stream does
not exist ahead of time and any solver that peeks ahead or defers its
answers (``omv.harness.BatchingMockSolver``, the negative control)
diverges from the oracle run on the stream it actually produced.

accounting_check() replays a chain while asserting the per-query inner
query counts and scan/update caps that each reduction promises, and
success_rate_experiment() measures the randomized min-plus reduction's
full-stream correctness rate with a Wilson confidence interval.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from omv.bmmp_from_eq import BmmpFromEqSolver
from omv.chains import build_solver
from omv.core import (
    INF,
    DimensionMismatch,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    Value,
    Vector,
    ceil_div,
)
from omv.folklore import rank_bit_count
from omv.harness import _INTEGER, InstanceSpec, _resolved, gen_instance
from omv.oracle import NaiveSolver

def _check_dims(matrix: Matrix, vector: Vector) -> int:
    if len(vector) != matrix.n:
        raise DimensionMismatch(
            f"vector length {len(vector)} against {matrix.n}x{matrix.n} matrix"
        )
    return matrix.n


def bool_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Boolean product: out[i] = 1 iff some k has M[i,k] = 1 and v[k] = 1."""
    n = _check_dims(matrix, vector)
    out = [
        1 if any(matrix.rows[i][k] == 1 and vector[k] == 1 for k in range(n)) else 0
        for i in range(n)
    ]
    return Vector(out)


def eq_exists_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Equality product: out[i] = 1 iff some k has M[i,k] = v[k]."""
    n = _check_dims(matrix, vector)
    out = [
        1 if any(matrix.rows[i][k] == vector[k] for k in range(n)) else 0
        for i in range(n)
    ]
    return Vector(out)


def dom_exists_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Dominance product: out[i] = 1 iff some k has M[i,k] <= v[k]."""
    n = _check_dims(matrix, vector)
    out = [
        1 if any(matrix.rows[i][k] <= vector[k] for k in range(n)) else 0
        for i in range(n)
    ]
    return Vector(out)


def minwitness_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Min-witness product: smallest 1-based k with M[i,k] = v[k] = 1, else inf."""
    n = _check_dims(matrix, vector)
    out: list[Value] = []
    for i in range(n):
        witness: Value = INF
        for k in range(n):
            if matrix.rows[i][k] == 1 and vector[k] == 1:
                witness = k + 1
                break
        out.append(witness)
    return Vector(out)


def minmax_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Min-max product: out[i] = min over k of max(M[i,k], v[k])."""
    n = _check_dims(matrix, vector)
    out = [
        min(max(matrix.rows[i][k], vector[k]) for k in range(n)) for i in range(n)
    ]
    return Vector(out)


def _extended_sum(a: Value, b: Value) -> Value:
    # +inf absorbs; the -inf + +inf combination never occurs because min-plus
    # inputs are validated finite or +inf only.
    if a == INF or b == INF:
        return INF
    return a + b


def minplus_mv(matrix: Matrix, vector: Vector) -> Vector:
    """Min-plus product: out[i] = min over k of M[i,k] + v[k].

    The public bmmp problem is finite-valued; +inf entries are tolerated
    here for internal helpers and absorb any sum they appear in.
    """
    n = _check_dims(matrix, vector)
    out = [
        min(_extended_sum(matrix.rows[i][k], vector[k]) for k in range(n))
        for i in range(n)
    ]
    return Vector(out)


def candidate_set_bruteforce(
    matrix: Matrix, vector: Vector, delta: int, i: int
) -> set[int]:
    """Candidate columns for output i of min-plus, by full enumeration.

    Rounds M and v down by delta, finds the rounded row minimum, and
    returns every 0-based k whose rounded sum is the minimum or one above
    it.  This is the reference that list_candidates() must reproduce; it
    always contains every true minimizer of M[i,k] + v[k].
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    n = _check_dims(matrix, vector)
    sums = [matrix.rows[i][k] // delta + vector[k] // delta for k in range(n)]
    lo = min(sums)
    return {k for k in range(n) if sums[k] in (lo, lo + 1)}


def bit_trick_predicate(a: int, b: int, bits: int) -> bool:
    """Strict-less-than test via a per-bit decomposition.

    True iff some bit position l < bits has bit l of a clear, bit l of b
    set, and a and b identical above bit l.  For 0 <= a, b < 2**bits this
    is equivalent to a < b; the equality-product route to dominance rests
    on exactly this decomposition.
    """
    if a < 0 or b < 0 or a >= 1 << bits or b >= 1 << bits:
        raise ValueError("operands must lie in [0, 2**bits)")
    for level in range(bits):
        if (a >> level) & 1 == 0 and (b >> level) & 1 == 1:
            if a >> (level + 1) == b >> (level + 1):
                return True
    return False


class AllOffsetsBmmpSolver(BmmpFromEqSolver):
    """``bmmp<-eq`` whose step two asks every hitting column r at every
    offset d in 0, ..., 3*delta - 2 and takes every hit M[i,r] + v[r] - d.

    Same listing, hitting sample, stacked hitting instance and ledger as the
    solver it extends, so its answers, wrong rows of a candidate set that
    escaped R included, are the ones the solver's probe selection must
    give.  One stacked call per offset asks every instance.
    """

    def _step2(self, v: np.ndarray, best: np.ndarray) -> np.ndarray:
        columns = self._columns
        offsets = np.arange(3 * self.delta - 1)
        # deepest[p, i]: the largest offset that hit row i through column p;
        # offset d asks whether some k has M[i,k] + v[k] = M[i,r] + v[r] - d
        deepest = np.full((len(columns), self.n), -1.0)
        if self._hitting is not None:
            shifted = v[columns][:, None] - v[None, :]
            for offset in offsets:
                deepest[self._hitting.query(shifted - offset)] = offset
        self.counters.inner_queries += len(columns) * len(offsets)
        sums = self._m[:, columns].T + v[columns][:, None]  # sums[p, i] = M[i,r] + v[r]
        hits = np.where(deepest >= 0, sums - deepest, INF).min(axis=0, initial=INF)
        return np.minimum(best, hits)


#: Problem name -> its pure-Python definition.
DEFINITIONS = {
    "bool": bool_mv,
    "eq": eq_exists_mv,
    "dom": dom_exists_mv,
    "minwit": minwitness_mv,
    "minmax": minmax_mv,
    "bmmp": minplus_mv,
}


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

    Either a chain or a custom solver factory must be given; without
    ``config`` it is built at the spec's seed and bound constant.  Because
    each query is derived from the solver's previous answer, a correct
    solver reproduces the oracle run on the very stream it induced; a solver
    that defers answers derails the stream and is caught.
    """
    matrix, _ = gen_instance(spec)
    spec = _resolved(spec)
    if config is None:
        config = ReductionConfig(seed=spec.seed, bound_constant=spec.bound_constant)
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

@dataclass
class AccountingResult:
    checks: dict[str, bool]
    details: dict[str, object]


def accounting_check(
    chain: list[str],
    spec: InstanceSpec,
    config: Optional[ReductionConfig] = None,
) -> AccountingResult:
    """Assert the head link's per-query structural counts over one stream.
    Without ``config`` the chain runs at the spec's seed and bound constant."""
    matrix, queries = gen_instance(spec)
    if config is None:
        config = ReductionConfig(seed=spec.seed, bound_constant=_resolved(spec).bound_constant)
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
