import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omv.chains import (
    ALT_BOOL_CHAIN,
    FULL_CYCLE,
    LINKS,
    BlockUnionSolver,
    ChainError,
    build_solver,
    parse_chain,
    validate_chain,
)
from omv.core import (
    DEFAULT_BOUND_CONSTANT,
    INF,
    NEG_INF,
    VALUE_LIMIT,
    Matrix,
    OnlineSolver,
    ReductionConfig,
    Vector,
    validate,
)
from omv.folklore import BoolFromMinWitSolver
from omv.harness import InstanceSpec, gen_instance
from omv.oracle import NaiveSolver

from referees import DEFINITIONS, eq_exists_mv, minplus_mv, naive_factory


def test_parse_chain_appends_naive_terminal():
    assert parse_chain("eq<-bool") == ["eq<-bool", "naive"]
    assert parse_chain("eq<-bool,naive") == ["eq<-bool", "naive"]
    assert parse_chain(" dom<-eq , eq<-bool ") == ["dom<-eq", "eq<-bool", "naive"]
    assert parse_chain("naive") == ["naive"]


def test_unknown_links_and_empty_chains_are_rejected():
    chain = parse_chain("eq<-nonsense")
    with pytest.raises(ChainError, match="unknown chain link 'eq<-nonsense'"):
        build_solver(chain, "eq", Matrix([[1]]), ReductionConfig())
    with pytest.raises(ChainError):
        parse_chain("")


def test_validate_chain_adjacency():
    validate_chain(["minmax<-dom", "dom<-eq", "eq<-bool", "naive"], "minmax")
    with pytest.raises(ChainError):
        validate_chain(["eq<-bool", "naive"], "dom")
    with pytest.raises(ChainError):
        validate_chain(["dom<-eq", "minmax<-dom", "naive"], "dom")
    with pytest.raises(ChainError):
        validate_chain(["eq<-bool"], "eq")  # no terminal
    with pytest.raises(ChainError):
        validate_chain(["naive", "eq<-bool"], "eq")  # naive not terminal


def test_full_cycle_chains_are_well_formed():
    for problem, chain in FULL_CYCLE.items():
        validate_chain(chain, problem)
    validate_chain(ALT_BOOL_CHAIN, "bool")
    # the boolean chain walks the whole cycle through every other problem
    assert len(FULL_CYCLE["bool"]) == 6


def test_links_declare_consistent_signatures():
    for name, link in LINKS.items():
        outer, _, inner = name.partition("<-")
        assert link.problem == outer
        assert link.inner_problem == inner


def test_minwit_projection():
    matrix = Matrix([[0, 1], [0, 0]], tag="boolean")
    solver = BoolFromMinWitSolver(matrix, ReductionConfig(), make_inner=naive_factory)
    assert solver.query(Vector([1, 1])).entries == [1, 0]
    assert solver.query(Vector([0, 0])).entries == [0, 0]


def test_build_solver_composes_and_matches_oracle():
    rng = random.Random(61)
    chain = ["minwit<-minmax", "minmax<-dom", "dom<-eq", "eq<-bool", "naive"]
    for _ in range(5):
        n = rng.randint(2, 8)
        matrix = Matrix(
            [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)], tag="boolean"
        )
        solver = build_solver(chain, "minwit", matrix, ReductionConfig())
        reference = NaiveSolver(matrix, problem="minwit")
        for _ in range(n):
            v = Vector([rng.randint(0, 1) for _ in range(n)])
            assert solver.query(v).entries == reference.query(v).entries


def test_build_solver_rejects_wrong_problem():
    with pytest.raises(ChainError):
        build_solver(["eq<-bool", "naive"], "bool", Matrix([[1]]), ReductionConfig())


LONG_STREAMS = [(problem, None) for problem in FULL_CYCLE if problem != "bmmp"]
LONG_STREAMS += [("bmmp", case) for case in ("rows", "cols", "query", "stream")]


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize(
    "problem,monotone", LONG_STREAMS, ids=[f"{p}-{m}" if m else p for p, m in LONG_STREAMS]
)
def test_full_cycle_long_streams(problem, monotone, n):
    # q = 3n queries on one solver; bmmp in forced-hit mode, so exact
    spec = InstanceSpec(
        problem=problem,
        n=n,
        distribution="skewed" if problem in ("eq", "dom", "minmax") else None,
        inf_prob=0.2 if problem in ("dom", "minmax") else None,
        monotone=monotone,
        bound_constant=1 if monotone else None,
        queries=3 * n,
        seed=80 + n,
    )
    matrix, queries = gen_instance(spec)
    c = 1 if monotone else DEFAULT_BOUND_CONSTANT
    config = ReductionConfig(hitting_set_size="full", seed=n, bound_constant=c)
    solver = build_solver(FULL_CYCLE[problem], problem, matrix, config)
    for v in queries:
        assert solver.query(v).entries == DEFINITIONS[problem](matrix, v).entries


@st.composite
def bmmp_streams(draw):
    """A monotone bmmp instance, its stream and its value bound c.

    Values are either uniform over [0, c*n] or drawn from a pool of at most
    three values that always holds c*n, so ties (and oversize rows) are
    common; some columns are one value top to bottom.  bmmp_instance
    imposes the declared direction.
    """
    case = draw(st.sampled_from(("rows", "cols", "query", "stream")))
    n = draw(st.integers(1, 12))
    c = draw(st.sampled_from((1, 2, 4)))
    top = c * n
    if draw(st.booleans()):
        pool = draw(st.lists(st.integers(0, top), min_size=0, max_size=2)) + [top]
        value = st.sampled_from(pool)
    else:
        value = st.integers(0, top)
    rows = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(n)]
    for k in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        level = draw(value)
        for row in rows:
            row[k] = level
    queries = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(draw(st.integers(1, 4)))]
    return bmmp_instance(case, rows, queries), [Vector(v) for v in queries], c


def bmmp_instance(case: str, rows: list[list[int]], queries: list[list[int]]) -> Matrix:
    """Impose a monotone case on drawn rows and queries (the queries in place).

    The direction is imposed by sorting along its axis, or by a running
    maximum down the stream.
    """
    if case == "rows":
        rows = [sorted(row) for row in rows]
    elif case == "cols":
        rows = [list(row) for row in zip(*(sorted(column) for column in zip(*rows)))]
    elif case == "query":
        for v in queries:
            v.sort()
    else:
        for previous, v in zip(queries, queries[1:]):
            v[:] = map(max, previous, v)
    return Matrix(rows, tag="bounded", monotone=case)


@settings(max_examples=80, deadline=None)
@given(bmmp_streams(), st.sampled_from((None, 1, 2, 3)))
def test_bmmp_chain_fuzz_matches_minplus(instance, delta):
    matrix, queries, c = instance
    config = ReductionConfig(hitting_set_size="full", delta=delta, bound_constant=c)
    solver = build_solver(FULL_CYCLE["bmmp"], "bmmp", matrix, config)
    for v in queries:
        assert solver.query(v).entries == minplus_mv(matrix, v).entries


BIG = VALUE_LIMIT  # 2^40
CHAINS = [(problem, chain) for problem, chain in FULL_CYCLE.items()] + [("bool", ALT_BOOL_CHAIN)]


@st.composite
def chain_instances(draw, problem):
    """A valid instance of ``problem``, a stream on it and its value bound c.

    n runs from 1 to 6, and finite values include the +/-2^40 limit (for
    bmmp, c is chosen so that 2^40 lies inside [0, c*n]).  Some columns are
    one value top to bottom.  For dom and minmax a drawn density of the
    entries becomes +/-inf, and some matrix rows become -inf throughout,
    which minmax<-dom's buckets must rank below every finite value.  bmmp
    gets a drawn monotone case.
    """
    n = draw(st.integers(1, 6))
    c = 4
    if problem in ("bool", "minwit"):
        value = st.integers(0, 1)
    elif problem == "bmmp":
        c = -(-BIG // n)
        value = st.sampled_from([0, 1, 2, BIG - 1, BIG])
    else:
        value = st.sampled_from([-BIG, BIG]) | st.integers(-3, 3)
    rows = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(n)]
    queries = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(draw(st.integers(1, 4)))]
    if problem in ("dom", "minmax"):
        density = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
        rng = draw(st.randoms(use_true_random=False))
        for vector in rows + queries:
            for k in range(n):
                if rng.random() < density:
                    vector[k] = rng.choice((INF, NEG_INF))
    for k in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        level = draw(value)
        for row in rows:
            row[k] = level
    if problem in ("dom", "minmax"):
        for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
            rows[i] = [NEG_INF] * n
    if problem != "bmmp":
        tag = "boolean" if problem in ("bool", "minwit") else "integer"
        return Matrix(rows, tag=tag), [Vector(v) for v in queries], c
    case = draw(st.sampled_from(("rows", "cols", "query", "stream")))
    return bmmp_instance(case, rows, queries), [Vector(v) for v in queries], c


@pytest.mark.parametrize(
    "problem,chain", CHAINS, ids=[",".join(chain) for _, chain in CHAINS]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_chain_fuzz_matches_definition(problem, chain, data):
    matrix, queries, c = data.draw(chain_instances(problem))
    assert validate(matrix, problem, bound_constant=c) is None
    config = ReductionConfig(hitting_set_size="full", bound_constant=c)
    solver = build_solver(chain, problem, matrix, config)
    for v in queries:
        assert solver.query(v).entries == DEFINITIONS[problem](matrix, v).entries


@pytest.mark.parametrize("n", [1, 4])
def test_stacked_slices_through_a_link(n):
    # eq<-bool above a link: the slice stack is answered one chain per slice
    chain = parse_chain("eq<-bool,bool<-minwit,minwit<-minmax,minmax<-dom,dom<-eq,eq<-bool,naive")
    rng = random.Random(90 + n)
    matrix = Matrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
    config = ReductionConfig()
    solver = build_solver(chain, "eq", matrix, config)
    queries = 3 * n
    for _ in range(queries):
        v = Vector([rng.randint(0, 2) for _ in range(n)])
        assert solver.query(v).entries == eq_exists_mv(matrix, v).entries
    assert solver.counters.inner_queries == config.resolve_t(n) * queries


RECTANGULAR_CHAINS = [
    "dom<-eq,eq<-bool,bool<-minwit,minwit<-minmax,minmax<-dom,dom<-eq,eq<-bool,naive",
    "dom<-eq,eq<-bool,bool<-bmmp,bmmp<-eq,eq<-bool,naive",
    "dom<-eq,eq<-bool,naive",
]


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("text", RECTANGULAR_CHAINS)
def test_rectangular_instances_through_a_link(text, n):
    # dom<-eq hands eq<-bool one n x (levels * n) matrix and eq<-bool hands
    # on one n x P boolean instance; a boolean link takes it as square
    # column blocks and ORs their answers
    spec = InstanceSpec(problem="dom", n=n, inf_prob=0.2, queries=3 * n, seed=95 + n)
    matrix, queries = gen_instance(spec)
    solver = build_solver(parse_chain(text), "dom", matrix, ReductionConfig(hitting_set_size="full"))
    for v in queries:
        assert solver.query(v).entries == DEFINITIONS["dom"](matrix, v).entries


#: Links whose one inner query per query is the whole of their work.
PROJECTIONS = {"minwit<-minmax", "bool<-bmmp", "bool<-minwit"}


class CountingNaive(NaiveSolver):
    """A naive solver that counts the instance queries it answers: one per
    call on a plain matrix, one per asked (not all-NaN) row on a stack."""

    asked = 0

    def _answer(self, v):
        self.asked += int(np.count_nonzero(~np.isnan(v).all(axis=-1)))
        return super()._answer(v)


def _asked_and_booked(link, matrix, queries, config):
    """(instance queries its naive inner solvers answered, inner queries its
    ledger booked) of ``link`` built on ``matrix`` and asked ``queries``."""
    inner: list[CountingNaive] = []

    def factory(problem, inner_matrix, cfg):
        inner.append(CountingNaive(inner_matrix, cfg, problem=problem))
        return inner[-1]

    solver = LINKS[link](matrix, config, make_inner=factory)
    for v in queries:
        solver.query(v)
    return sum(node.asked for node in inner), solver.counters.inner_queries


@pytest.mark.parametrize("link", sorted(LINKS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_link_asks_at_most_what_it_books(link, data):
    # a link books its advertised inner-query count whatever it asks: the
    # projections ask exactly that, the others may ask fewer calls
    matrix, queries, c = data.draw(chain_instances(LINKS[link].problem))
    config = ReductionConfig(hitting_set_size="full", bound_constant=c)
    asked, booked = _asked_and_booked(link, matrix, queries, config)
    assert asked == booked if link in PROJECTIONS else asked <= booked


@pytest.mark.parametrize("case", ["rows", "cols", "query", "stream"])
def test_bmmp_step_two_asks_at_most_what_it_books(case):
    # at c = 1 the cap floor(c*n/delta) is below n, so rows can be oversize
    # and step two asks its hitting solvers, which the fuzz instances' large
    # c never does
    spec = InstanceSpec(problem="bmmp", n=16, monotone=case, bound_constant=1, seed=7)
    matrix, queries = gen_instance(spec)
    config = ReductionConfig(hitting_set_size="full", bound_constant=1)
    asked, booked = _asked_and_booked("bmmp<-eq", matrix, queries, config)
    assert 0 < asked <= booked, (asked, booked)


def test_boolean_link_under_a_stacked_eq_from_bool():
    # bmmp<-eq hands its hitting instances to eq<-bool as one stack, and
    # eq<-bool hands a boolean stack to the boolean link below, which takes
    # one square matrix: the chain splits the stack per instance.  Rows
    # spanning three values at c = 1 (delta = 3, cap = 3) are oversize, so
    # step two asks the stack; |R| = n (the auto size at n = 9) makes the
    # answers exact.
    n = 9
    rng = random.Random(9)
    rows = []
    for _ in range(n):
        base = rng.randint(0, n - 2)
        rows.append(sorted(rng.randint(base, base + 2) for _ in range(n)))
    stream = [Vector([rng.randint(0, 2) for _ in range(n)]) for _ in range(3)]
    matrix = Matrix(rows, tag="bounded", monotone="rows")
    chain = parse_chain("bmmp<-eq,eq<-bool,bool<-minwit,minwit<-minmax,minmax<-dom,dom<-eq,eq<-bool,naive")
    solver = build_solver(chain, "bmmp", matrix, ReductionConfig(bound_constant=1, seed=5))
    assert len(solver.hitting_columns) == n and solver.row_cap < n
    split = solver._hitting._inner
    assert len(split._blocks) == n  # one list of square block solvers per instance
    for v in stream:
        assert solver.query(v).entries == minplus_mv(matrix, v).entries
    assert split.query_index > 1


def _solvers(value):
    """The solvers ``value`` holds: itself, or those of a list at any depth."""
    if isinstance(value, OnlineSolver):
        return [value]
    if isinstance(value, list):
        return [solver for item in value for solver in _solvers(item)]
    return []


def _paths(solver):
    """The root-to-leaf paths below ``solver`` as tuples of classes,
    BlockUnionSolver nodes skipped; a node's children are the solvers its
    attributes hold."""
    children = [child for value in vars(solver).values() for child in _solvers(value)]
    below = set().union(*map(_paths, children)) if children else {()}
    here = () if isinstance(solver, BlockUnionSolver) else (type(solver),)
    return {here + path for path in below}


#: (problem, chain, queries asked before the walk).  At n = 4, c = 4 (the
#: default, and what bool<-bmmp hands down) and delta = 5 give bmmp<-eq the
#: cap floor(c*n/delta) = 3 < n, so it builds its hitting stack (at the auto
#: delta = 2 it builds none).  The short boolean cycle is asked n + 1
#: queries, so bool<-bmmp has rebuilt its inner solver for a second epoch.
WIRED_CHAINS = [(problem, chain, 0) for problem, chain in FULL_CYCLE.items()]
WIRED_CHAINS += [("bool", ALT_BOOL_CHAIN, 5)]
WIRED_CHAINS += [
    ("dom", chain, 0) for chain in map(parse_chain, RECTANGULAR_CHAINS) if chain != FULL_CYCLE["dom"]
]
WIRED_CHAINS += [
    ("eq", parse_chain("eq<-bool,bool<-minwit,minwit<-minmax,minmax<-dom,dom<-eq,eq<-bool,naive"), 0)
]


@pytest.mark.parametrize(
    "problem,chain,queries", WIRED_CHAINS, ids=[",".join(chain) for _, chain, _ in WIRED_CHAINS]
)
def test_build_solver_wires_every_link_of_the_chain(problem, chain, queries):
    # every path from the head down visits the chain's links in order and
    # ends at the naive leaf: no link got its inner solvers from elsewhere
    spec = InstanceSpec(
        problem=problem, n=4, monotone="stream" if problem == "bmmp" else None, queries=queries, seed=4
    )
    matrix, stream = gen_instance(spec)
    solver = build_solver(chain, problem, matrix, ReductionConfig(delta=5))
    for v in stream:
        solver.query(v)
    assert _paths(solver) == {tuple(LINKS[name] for name in chain[:-1]) + (NaiveSolver,)}
