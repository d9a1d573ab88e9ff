"""Instance generation, and the negative control for online-ness.

Generators produce (matrix, query stream) pairs for every problem kind
from a seed, with uniform or skewed (two heavy values at 80/20 relative
mass over most entries, uniform tail elsewhere) integer values, optional
infinity sprinkling where the problem permits, and the four query-stream
shapes the bounded monotone min-plus problem declares.

BatchingMockSolver is the negative control: it stashes queries and emits
placeholders, only computing real answers when flushed at the end.  The
referees that catch it, and that check every chain, live with the tests,
in ``tests/referees.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_BOUND_CONSTANT, INF, NEG_INF, Matrix, OnlineSolver, Value, Vector, to_vector, validate,
)
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
    inf_prob: Optional[float] = None  # per-entry infinity chance, default 0
    monotone: Optional[str] = None  # bmmp case
    bound_constant: Optional[int] = None  # bmmp value bound [0, c*n], default 4
    queries: Optional[int] = None  # default n
    seed: int = 0


_INTEGER = ("eq", "dom", "minmax")
#: The problems each optional knob applies to; setting it elsewhere is an error.
_KNOB_PROBLEMS = {
    "distribution": _INTEGER, "lo": _INTEGER, "hi": _INTEGER, "density": ("bool", "minwit"),
    "inf_prob": ("dom", "minmax"), "bound_constant": ("bmmp",),
}


def _resolved(spec: InstanceSpec) -> InstanceSpec:
    """``spec`` with its unset knobs at their defaults."""
    defaults = {
        "distribution": "uniform", "lo": 0, "hi": spec.n, "density": 0.5, "inf_prob": 0.0,
        "bound_constant": DEFAULT_BOUND_CONSTANT,
    }
    return replace(spec, **{k: d for k, d in defaults.items() if getattr(spec, k) is None})


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
        heavy = None
        if spec.distribution == "skewed":
            heavy = rng.randint(spec.lo, spec.hi), rng.randint(spec.lo, spec.hi)
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
            rows = [list(row) for row in zip(*map(sorted, zip(*rows)))]
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

    violation = validate(matrix, spec.problem, bound_constant=spec.bound_constant)
    if violation is not None:
        raise AssertionError(f"generator produced an invalid instance: {violation}")
    return matrix, queries


class BatchingMockSolver(OnlineSolver):
    """Negative control: defers all real work to a final flush.

    query() only records the vector and emits a placeholder; flush()
    computes the whole batch afterwards.  Under an adaptive session the
    placeholders diverge from the oracle, which is exactly the point.
    """

    def __init__(self, matrix: Matrix, config=None, *, problem: str):
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
