"""Head-link ledgers and answers pinned on small fixed instances.

Every FULL_CYCLE chain and the short boolean route runs on one seeded
instance at n = 9 and one at n = 1, and the bmmp chain also on one whose
every row is oversize, so that step two asks its hitting solvers.  The
head link's counter snapshot and the number of queries each of its direct
inner solvers answered are hard-coded: a change to how a link computes
its answers must not change how many inner queries it books, how far it
scans, or how it spreads its inner calls over its inner solvers.  Answers are checked against the
pure-Python definitions in ``referees``.

The instances carry the extreme values the package promises to keep
exact: +/-inf where the problem allows them, and +/-2^40 (min-plus sums up
to 2^41 stay below 2^53).
"""

import random

import pytest

from omv.chains import ALT_BOOL_CHAIN, FULL_CYCLE, LINKS
from omv.core import INF, NEG_INF, VALUE_LIMIT, Matrix, OnlineSolver, ReductionConfig, Vector
from omv.oracle import NaiveSolver

from referees import DEFINITIONS

BIG = VALUE_LIMIT  # 2^40

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
# solvers: one boolean leaf answers all of eq<-bool's slices in one call,
# minmax<-dom asks each side's buckets in order only until every row has
# hit (at n = 9 its query-side solver answers 11 of the 15 bucket queries it
# books, and its three bucket solvers 13 of 15), dom<-eq asks one equality
# instance holding side by side only the bit levels its ranks can reach (4
# of the 8 it books at n = 9), bmmp<-eq takes at most n distinct hitting
# columns (all 9 at n = 9, where ceil(3 * delta * ln n) is 20), builds
# their stacked eq<-bool solver only when a row can be oversize (never here: the
# cap c*n/delta of both bmmp instances is at least n, while it books 40
# inner queries per column; STEP_TWO_PIN covers the other side), and the
# short boolean route builds a fresh min-plus solver for every epoch of n
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
    ("dom", 9): (5, _zeros(inner_queries=40), [5], {
        "eq<-bool": (15, 1, 0, 0, 0),
        "dom<-eq": (40, 0, 0, 0, 0),
    }),
    ("dom", 1): (5, _zeros(inner_queries=10), [5], {
        "eq<-bool": (5, 0, 0, 0, 0),
        "dom<-eq": (10, 0, 0, 0, 0),
    }),
    ("minmax", 9): (
        5,
        _zeros(inner_queries=30, scan_length_total=178),
        [3, 5, 5, 11],
        {
            "eq<-bool": (72, 0, 0, 0, 0),
            "dom<-eq": (192, 0, 0, 0, 0),
            "minmax<-dom": (30, 178, 0, 0, 0),
        },
    ),
    ("minmax", 1): (
        5,
        _zeros(inner_queries=10, scan_length_total=5),
        [5, 5],
        {
            "eq<-bool": (10, 0, 0, 0, 0),
            "dom<-eq": (20, 0, 0, 0, 0),
            "minmax<-dom": (10, 5, 0, 0, 0),
        },
    ),
    ("minwit", 9): (5, _zeros(inner_queries=5), [5], {
        "eq<-bool": (36, 0, 0, 0, 0),
        "dom<-eq": (96, 0, 0, 0, 0),
        "minmax<-dom": (30, 137, 0, 0, 0),
        "minwit<-minmax": (5, 0, 0, 0, 0),
    }),
    ("minwit", 1): (5, _zeros(inner_queries=5), [5], {
        "eq<-bool": (10, 0, 0, 0, 0),
        "dom<-eq": (20, 0, 0, 0, 0),
        "minmax<-dom": (10, 9, 0, 0, 0),
        "minwit<-minmax": (5, 0, 0, 0, 0),
    }),
    ("bmmp", 9): (
        5,
        _zeros(inner_queries=360, candidates_enumerated=164, rmq_queries=160),
        [],
        {
            "bmmp<-eq": (360, 0, 0, 164, 160),
        },
    ),
    ("bmmp", 1): (5, _zeros(candidates_enumerated=5, rmq_queries=5), [], {
        "bmmp<-eq": (0, 0, 0, 5, 5),
    }),
    ("bool", 9): (5, _zeros(inner_queries=5), [5], {
        "eq<-bool": (51, 0, 0, 0, 0),
        "dom<-eq": (136, 0, 0, 0, 0),
        "minmax<-dom": (30, 144, 0, 0, 0),
        "minwit<-minmax": (5, 0, 0, 0, 0),
        "bool<-minwit": (5, 0, 0, 0, 0),
    }),
    ("bool", 1): (5, _zeros(inner_queries=5), [5], {
        "eq<-bool": (10, 0, 0, 0, 0),
        "dom<-eq": (20, 0, 0, 0, 0),
        "minmax<-dom": (10, 5, 0, 0, 0),
        "minwit<-minmax": (5, 0, 0, 0, 0),
        "bool<-minwit": (5, 0, 0, 0, 0),
    }),
    ("bool-alt", 9): (5, _zeros(inner_queries=5), [5], {
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
    _check_pin(problem, chain, *_instance(problem, n, queries), snapshot, child_calls, link_totals)


def _narrow_band_instance() -> tuple[Matrix, list[Vector], ReductionConfig]:
    """A bmmp rows-case instance at n = 9 and c = 1 (delta = 3, cap = 3)
    whose every row is oversize on every query: each row's entries span at
    most three consecutive values, and each query's lie in [0, 2]."""
    n = 9
    rng = random.Random(9001)
    rows = []
    for _ in range(n):
        base = rng.randint(0, n - 2)
        rows.append(sorted(rng.randint(base, base + 2) for _ in range(n)))
    stream = [Vector([rng.randint(0, 2) for _ in range(n)]) for _ in range(5)]
    config = ReductionConfig(seed=3, bound_constant=1)
    return Matrix(rows, tag="bounded", monotone="rows"), stream, config


# Step two's call pattern on the narrow-band instance: no column is listed
# (candidates_enumerated = 0, every row oversize), and the one stacked
# hitting instance of the 9 hitting columns is asked in rounds, call j
# carrying each column's j-th wanted offset: as many calls per query as the
# most offsets any one column wants, 15 over the 5 queries (asking once per
# offset that some column wants took 30), its eq<-bool booking t = 3 per call.
STEP_TWO_PIN = (
    _zeros(inner_queries=360, rmq_queries=75),
    [15],
    {
        "eq<-bool": (45, 0, 0, 0, 0),
        "bmmp<-eq": (360, 0, 0, 0, 75),
    },
)


def test_step_two_call_pattern_is_pinned():
    _check_pin("bmmp", FULL_CYCLE["bmmp"], *_narrow_band_instance(), *STEP_TWO_PIN)


def _check_pin(problem, chain, matrix, stream, config, snapshot, child_calls, link_totals):
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
