"""Every chain on every small input, up to order type.

The eq, dom and minmax answers of an instance depend only on the order
type of its values, so at n <= 2 the inputs can be enumerated:

* eq, dom and minmax: every weak order of the n^2 matrix entries, the
  finite classes spaced apart; for dom and minmax also with the top class
  +inf, the bottom class -inf, or (in the full families) both.  Each
  query coordinate sits at a finite class, in a gap below, between or
  above them, or (dom and minmax) at +-inf.  A gap holds one point, so
  that two coordinates in one gap are equal; in the full families it
  holds two, so that they also take either order.
* bool and minwit: every 0/1 matrix and query.
* bmmp: every matrix in [0, c*n] that the case admits, and every query in
  [0, c*n] (nondecreasing in the query case).  A stream-case instance is
  asked its queries in nondecreasing chains, one per difference pattern
  v[k] - v[0], which together hold every query once.

A link could still depend on the actual values (rank arithmetic, float
precision near +-2^40); the hypothesis fuzz covers those.

Each chain is built once per matrix (once per chain of queries in the
stream case), asked every query, and checked against the definitions in
``referees``.  The configs leave |R| auto, unlike the fuzz tests, which
run at "full".  ``tests/test_exhaustive.py`` runs the tier-1 slice at auto
t and delta.  The full families add t in {1, 2}, delta in {1, 2, 3} for
the chains through bmmp<-eq, both infinite classes at once, two points
per gap, and bool and minwit at n = 3:

    PYTHONPATH=src python tests/exhaustive.py

It prints the queries checked per family and every mismatch, and exits 1
on any mismatch.  A mismatch prints as a snippet to paste into a
regression test.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from omv.chains import ALT_BOOL_CHAIN, FULL_CYCLE, build_solver
from omv.core import (
    DEFAULT_BOUND_CONSTANT,
    INF,
    MONOTONE_CASES,
    NEG_INF,
    Matrix,
    ReductionConfig,
    Vector,
    validate,
)

from referees import DEFINITIONS

#: A matrix and the query streams it is asked, each by a fresh chain.
Instance = tuple[Matrix, list[list[Vector]]]

#: The (bottom -inf, top +inf) variants of the dom and minmax families.
TIER1_INF = ((False, False), (True, False), (False, True))
FULL_INF = TIER1_INF + ((True, True),)


def _literal(values) -> str:
    names = {INF: "INF", NEG_INF: "NEG_INF"}
    return "[" + ", ".join(names.get(x, repr(x)) for x in values) + "]"


@dataclass
class Mismatch:
    """One wrong answer: the last query of ``queries``, asked in order."""

    problem: str
    chain: list[str]
    config: ReductionConfig
    matrix: Matrix
    queries: list[Vector]
    want: Vector
    got: Vector

    def __str__(self) -> str:
        rows = "[" + ", ".join(_literal(row) for row in self.matrix.rows) + "]"
        queries = ", ".join(f"Vector({_literal(q)})" for q in self.queries)
        return "\n".join([
            f"problem, chain = {self.problem!r}, {self.chain!r}",
            f"config = {self.config!r}",
            f"matrix = Matrix({rows}, monotone={self.matrix.monotone!r})",
            f"queries = [{queries}]  # the answer to the last one is wrong",
            f"want, got = {_literal(self.want)}, {_literal(self.got)}",
        ])


def weak_orders(k: int) -> Iterator[tuple[int, ...]]:
    """Every weak order of k items, as each item's class 0..m-1 (all m used)."""
    for m in range(1, k + 1):
        for classes in itertools.product(range(m), repeat=k):
            if len(set(classes)) == m:
                yield classes


def order_instances(
    problem: str, n: int, inf_variants: tuple[tuple[bool, bool], ...], gap_points: int
) -> Iterator[Instance]:
    """eq, dom or minmax: every order type of the matrix, every query placement."""
    step = gap_points + 1  # between the values of adjacent classes
    if problem == "eq":
        inf_variants = ((False, False),)
    for classes in weak_orders(n * n):
        top = max(classes)
        for low_inf, high_inf in inf_variants:
            if low_inf and high_inf and top == 0:
                continue
            value = {j: step * j for j in range(top + 1)}
            if low_inf:
                value[0] = NEG_INF
            if high_inf:
                value[top] = INF
            finite = sorted(x for x in value.values() if abs(x) != INF) or [0]
            points = [finite[0] - step + d for d in range(1, step)]
            points += [x + d for x in finite for d in range(step)]
            if problem != "eq":
                points += [NEG_INF, INF]
            rows = [[value[classes[i * n + k]] for k in range(n)] for i in range(n)]
            queries = [Vector(list(q)) for q in itertools.product(points, repeat=n)]
            yield Matrix(rows), [queries]


def boolean_instances(n: int) -> Iterator[Instance]:
    """Every 0/1 matrix, asked every 0/1 query."""
    queries = [Vector(list(q)) for q in itertools.product((0, 1), repeat=n)]
    for cells in itertools.product((0, 1), repeat=n * n):
        rows = [list(cells[i * n : (i + 1) * n]) for i in range(n)]
        yield Matrix(rows, tag="boolean"), [queries]


def bmmp_instances(n: int, c: int, case: str) -> Iterator[Instance]:
    """Every ``case`` instance with entries and queries in [0, c*n]."""
    values = range(c * n + 1)
    vectors = [list(q) for q in itertools.product(values, repeat=n)]
    if case == "query":
        vectors = [q for q in vectors if q == sorted(q)]
    if case == "stream":
        chains: dict[tuple[int, ...], list[Vector]] = {}
        for q in vectors:  # in lexicographic order, so each chain ascends
            chains.setdefault(tuple(x - q[0] for x in q), []).append(Vector(q))
        streams = list(chains.values())
    else:
        streams = [[Vector(q) for q in vectors]]
    for cells in itertools.product(values, repeat=n * n):
        rows = [list(cells[i * n : (i + 1) * n]) for i in range(n)]
        matrix = Matrix(rows, tag="bounded", monotone=case)
        if validate(matrix, "bmmp", bound_constant=c) is None:
            yield matrix, streams


def configs(chain: list[str], n: int, c: int, full: bool) -> list[ReductionConfig]:
    """Auto t, delta and |R|; the full families add t in {1, 2} and, on the
    chains through bmmp<-eq, delta in {1, 2, 3}.  Configs that resolve alike
    at this n run once."""
    if not full:
        return [ReductionConfig(bound_constant=c)]
    deltas = (None, 1, 2, 3) if "bmmp<-eq" in chain else (None,)
    kept: dict[tuple[int, int], ReductionConfig] = {}
    for t, delta in itertools.product((None, 1, 2), deltas):
        config = ReductionConfig(t=t, delta=delta, bound_constant=c)
        kept.setdefault((config.resolve_t(n), config.resolve_delta(n)), config)
    return list(kept.values())


class Family(NamedTuple):
    label: str
    problem: str
    n: int
    c: int  # the bmmp bound constant, else the default
    instances: Callable[[], Iterator[Instance]]


def families(full: bool) -> list[Family]:
    """The tier-1 slice, or with ``full`` the full families."""
    inf_variants, gap_points = (FULL_INF, 2) if full else (TIER1_INF, 1)
    out = []
    for problem, n in itertools.product(("eq", "dom", "minmax"), (1, 2)):
        make = lambda p=problem, n=n: order_instances(p, n, inf_variants, gap_points)
        out.append(Family(f"{problem} n={n}", problem, n, DEFAULT_BOUND_CONSTANT, make))
    for problem, n in itertools.product(("bool", "minwit"), (1, 2, 3) if full else (1, 2)):
        make = lambda n=n: boolean_instances(n)
        out.append(Family(f"{problem} n={n}", problem, n, DEFAULT_BOUND_CONSTANT, make))
    for n, c, case in itertools.product((1, 2), (0, 1, 2), MONOTONE_CASES):
        if n == 1 or c <= 1 or full:
            make = lambda n=n, c=c, case=case: bmmp_instances(n, c, case)
            out.append(Family(f"bmmp n={n} c={c} {case}", "bmmp", n, c, make))
    return out


def _ask(
    problem: str, chain: list[str], config: ReductionConfig, instances: Iterator[Instance]
) -> tuple[int, list[Mismatch]]:
    definition = DEFINITIONS[problem]
    asked = 0
    mismatches = []
    for matrix, streams in instances:
        for stream in streams:
            solver = build_solver(chain, problem, matrix, config)
            for j, query in enumerate(stream):
                got, want = solver.query(query), definition(matrix, query)
                if got.entries != want.entries:
                    wrong = Mismatch(problem, chain, config, matrix, stream[: j + 1], want, got)
                    mismatches.append(wrong)
            asked += len(stream)
    return asked, mismatches


def check(family: Family, full: bool) -> tuple[int, list[Mismatch]]:
    """Every chain of the family's problem at each of its configs: the number
    of queries asked and the wrong answers among them."""
    chains = [FULL_CYCLE[family.problem]] + ([ALT_BOOL_CHAIN] if family.problem == "bool" else [])
    asked = 0
    mismatches = []
    for chain in chains:
        for config in configs(chain, family.n, family.c, full):
            count, wrong = _ask(family.problem, chain, config, family.instances())
            asked += count
            mismatches += wrong
    return asked, mismatches


if __name__ == "__main__":
    start = time.perf_counter()
    total = 0
    mismatches: list[Mismatch] = []
    for family in families(full=True):
        began = time.perf_counter()
        asked, wrong = check(family, full=True)
        seconds = time.perf_counter() - began
        print(f"{family.label}: {asked} queries, {len(wrong)} wrong, {seconds:.1f} s", flush=True)
        total += asked
        mismatches += wrong
    for mismatch in mismatches:
        print(f"\n{mismatch}")
    print(f"\n{total} queries, {len(mismatches)} mismatches, {time.perf_counter() - start:.0f} s")
    sys.exit(1 if mismatches else 0)
