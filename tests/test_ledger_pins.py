"""Head-link ledgers and answers pinned on small fixed instances.

Every FULL_CYCLE chain and the short boolean route runs on one seeded
instance at n = 9 and one at n = 1.  The head link's counter snapshot and
the number of queries each of its direct inner solvers answered are
hard-coded: a change to how a link computes its answers must not change
how many inner queries it books, how far it scans, or how it spreads its
inner calls over its inner solvers.  Answers are checked against the
pure-Python definitions in ``omv.oracle``.

The instances carry the extreme values the package promises to keep
exact: +/-inf where the problem allows them, and +/-2^40 (min-plus sums up
to 2^41 stay below 2^53).
"""

import random

import pytest

from omv import oracle
from omv.chains import ALT_BOOL_CHAIN, FULL_CYCLE, LINKS
from omv.core import INF, NEG_INF, VALUE_LIMIT, Matrix, OnlineSolver, ReductionConfig, Vector
from omv.oracle import NaiveSolver

BIG = VALUE_LIMIT  # 2^40

DEFINITIONS = {
    "bool": oracle.bool_mv,
    "eq": oracle.eq_exists_mv,
    "dom": oracle.dom_exists_mv,
    "minwit": oracle.minwitness_mv,
    "minmax": oracle.minmax_mv,
    "bmmp": oracle.minplus_mv,
}

POOLS = {
    "eq": [-BIG, -1, 0, 1, 2, BIG],
    "dom": [-BIG, -1, 0, 1, 2, BIG, INF, NEG_INF],
    "minmax": [-BIG, -1, 0, 1, 2, BIG, INF, NEG_INF],
    "bmmp": [0, 1, 2, 3, BIG - 3, BIG],
}


def _instance(problem: str, n: int, queries: int) -> tuple[Matrix, list[Vector], ReductionConfig]:
    rng = random.Random(1000 * n + sorted(DEFINITIONS).index(problem))
    if problem in ("bool", "minwit"):
        draw = lambda: rng.randint(0, 1)  # noqa: E731
    else:
        pool = POOLS[problem]
        draw = lambda: rng.choice(pool)  # noqa: E731
    rows = [[draw() for _ in range(n)] for _ in range(n)]
    stream = [Vector([draw() for _ in range(n)]) for _ in range(queries)]
    if problem == "bmmp":
        # rows case; c chosen so that 2^40 lies inside [0, c*n]
        rows = [sorted(row) for row in rows]
        config = ReductionConfig(seed=3, bound_constant=-(-BIG // n))
        return Matrix(rows, tag="bounded", monotone="rows"), stream, config
    tag = "boolean" if problem in ("bool", "minwit") else "integer"
    return Matrix(rows, tag=tag), stream, ReductionConfig(seed=3)


def _zeros(**counts):
    snap = dict.fromkeys(
        ("inner_queries", "scan_length_total", "multiset_updates", "candidates_enumerated", "rmq_queries"),
        0,
    )
    snap.update(counts)
    return snap


# (chain name, n) -> (queries, head snapshot, child calls, per-link totals).
# Child calls are the sorted query counts of the head's direct inner
# solvers: a stacked boolean leaf answers all of eq<-bool's slices in one
# call, dom<-eq builds only the bit levels its ranks can reach (4 of the 8
# it books at n = 9), bmmp<-eq takes at most n distinct hitting columns
# (all 9 at n = 9, where ceil(3 * delta * ln n) is 20), and the short
# boolean route builds a fresh min-plus solver for every epoch of n
# queries.  Per-link totals sum the counter snapshots of every solver of
# that link in the built tree, in the order (inner_queries,
# scan_length_total, multiset_updates, candidates_enumerated, rmq_queries).
# The n = 1 short boolean route stops at two queries and its tree totals
# are not pinned: its inner min-plus solver restarts every n queries.
PINS = {
    ("eq", 9): (5, _zeros(inner_queries=15, scan_length_total=17), [5], {
        "eq<-bool": (15, 17, 0, 0, 0),
    }),
    ("eq", 1): (5, _zeros(inner_queries=5), [5], {
        "eq<-bool": (5, 0, 0, 0, 0),
    }),
    ("dom", 9): (5, _zeros(inner_queries=40), [5] * 4, {
        "eq<-bool": (60, 9, 0, 0, 0),
        "dom<-eq": (40, 0, 0, 0, 0),
    }),
    ("dom", 1): (5, _zeros(inner_queries=10), [5, 5], {
        "eq<-bool": (10, 0, 0, 0, 0),
        "dom<-eq": (10, 0, 0, 0, 0),
    }),
    ("minmax", 9): (
        5,
        _zeros(inner_queries=30, scan_length_total=178),
        [5, 5, 5, 15],
        {
            "eq<-bool": (360, 8, 0, 0, 0),
            "dom<-eq": (240, 0, 0, 0, 0),
            "minmax<-dom": (30, 178, 0, 0, 0),
        },
    ),
    ("minmax", 1): (
        5,
        _zeros(inner_queries=10, scan_length_total=5),
        [5, 5],
        {
            "eq<-bool": (20, 0, 0, 0, 0),
            "dom<-eq": (20, 0, 0, 0, 0),
            "minmax<-dom": (10, 5, 0, 0, 0),
        },
    ),
    ("minwit", 9): (5, _zeros(inner_queries=5), [5], {
        "eq<-bool": (345, 0, 0, 0, 0),
        "dom<-eq": (240, 0, 0, 0, 0),
        "minmax<-dom": (30, 137, 0, 0, 0),
        "minwit<-minmax": (5, 0, 0, 0, 0),
    }),
    ("minwit", 1): (5, _zeros(inner_queries=5), [5], {
        "eq<-bool": (20, 0, 0, 0, 0),
        "dom<-eq": (20, 0, 0, 0, 0),
        "minmax<-dom": (10, 9, 0, 0, 0),
        "minwit<-minmax": (5, 0, 0, 0, 0),
    }),
    ("bmmp", 9): (
        5,
        _zeros(inner_queries=360, candidates_enumerated=164, rmq_queries=160),
        [40] * 9,
        {
            "eq<-bool": (1080, 145, 0, 0, 0),
            "bmmp<-eq": (360, 0, 0, 164, 160),
        },
    ),
    ("bmmp", 1): (5, _zeros(candidates_enumerated=5, rmq_queries=5), [], {
        "bmmp<-eq": (0, 0, 0, 5, 5),
    }),
    ("bool", 9): (5, _zeros(inner_queries=5), [5], {
        "eq<-bool": (330, 0, 0, 0, 0),
        "dom<-eq": (240, 0, 0, 0, 0),
        "minmax<-dom": (30, 144, 0, 0, 0),
        "minwit<-minmax": (5, 0, 0, 0, 0),
        "bool<-minwit": (5, 0, 0, 0, 0),
    }),
    ("bool", 1): (5, _zeros(inner_queries=5), [5], {
        "eq<-bool": (20, 0, 0, 0, 0),
        "dom<-eq": (20, 0, 0, 0, 0),
        "minmax<-dom": (10, 5, 0, 0, 0),
        "minwit<-minmax": (5, 0, 0, 0, 0),
        "bool<-minwit": (5, 0, 0, 0, 0),
    }),
    ("bool-alt", 9): (5, _zeros(inner_queries=5), [5], {
        "eq<-bool": (1080, 0, 0, 0, 0),
        "bmmp<-eq": (360, 0, 279, 402, 0),
        "bool<-bmmp": (5, 0, 0, 0, 0),
    }),
    ("bool-alt", 1): (2, _zeros(inner_queries=2), [1, 1], None),
}

CHAINS = [(problem, problem, chain) for problem, chain in FULL_CYCLE.items()]
CHAINS.append(("bool-alt", "bool", ALT_BOOL_CHAIN))


@pytest.mark.parametrize("n", [9, 1])
@pytest.mark.parametrize("name,problem,chain", CHAINS, ids=[c[0] for c in CHAINS])
def test_head_ledger_and_answers_are_pinned(name, problem, chain, n):
    queries, snapshot, child_calls, link_totals = PINS[(name, n)]
    matrix, stream, config = _instance(problem, n, queries)
    built: list[tuple[str, int, OnlineSolver]] = []
    solver = _build_recording(chain, problem, matrix, config, built)
    for v in stream:
        assert solver.query(v).entries == DEFINITIONS[problem](matrix, v).entries
    assert solver.counters.snapshot() == snapshot
    children = [node for _, depth, node in built if depth == 1]
    assert sorted(node.query_index - 1 for node in children) == child_calls
    if link_totals is not None:
        totals: dict[str, list[int]] = {}
        for link, _, node in built:
            if link != "naive":
                row = totals.setdefault(link, [0] * 5)
                for index, value in enumerate(node.counters.snapshot().values()):
                    row[index] += value
        assert {link: tuple(row) for link, row in totals.items()} == link_totals


def _build_recording(names, problem, matrix, config, built, depth=0):
    """build_solver's wiring, keeping every solver of the tree in ``built``
    as (link, depth below the head, solver)."""
    if names[0] == "naive":
        solver = NaiveSolver(matrix, config, problem=problem)
    else:
        def factory(inner_problem, inner_matrix, cfg):
            return _build_recording(names[1:], inner_problem, inner_matrix, cfg, built, depth + 1)

        solver = LINKS[names[0]](matrix, config, make_inner=factory)
    built.append((names[0], depth, solver))
    return solver
