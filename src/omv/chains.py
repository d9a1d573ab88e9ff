"""Reduction-chain composition.

A chain is a comma-separated list of link names ending in "naive", e.g.
"minmax<-dom,dom<-eq,eq<-bool,naive".  Each link solves the problem on the
left of its arrow by querying inner instances of the problem on the right;
"naive" is the polymorphic terminal that answers any problem directly.
Adjacent links must agree on the problem they hand across, mirroring the
arrows of the reduction diagram; build_solver() checks this and wires the
solvers together through inner-solver factories.  It is the only place that
wires a chain: a link constructed on its own gets naive inner solvers.

The minwit-to-bool step is a one-line projection (a witness exists iff the
boolean product is 1), implemented here rather than as a module of its own.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .bmmp_from_eq import BmmpFromEqSolver
from .core import Matrix, OnlineSolver, ReductionConfig, SolverFactory
from .eq_from_bool import EqFromBoolSolver
from .folklore import BoolFromBmmpSolver, DomFromEqSolver, MinWitnessFromMinMaxSolver
from .minmax_from_dom import MinMaxFromDomSolver
from .oracle import NaiveSolver, naive_factory


class ChainError(ValueError):
    """Malformed or incompatible reduction chain."""


class BoolFromMinWitSolver(OnlineSolver):
    """Trivial projection: the boolean product is 1 iff a witness exists."""

    problem = "bool"
    inner_problem = "minwit"

    def __init__(
        self,
        matrix: Matrix | np.ndarray,
        config: Optional[ReductionConfig] = None,
        make_inner: SolverFactory = naive_factory,
    ):
        super().__init__(matrix, config)
        self._inner = make_inner("minwit", matrix, self.config)

    def _answer(self, v: np.ndarray) -> np.ndarray:
        witnesses = self._inner.query(v)
        self.counters.inner_queries += 1
        return witnesses <= self.n


class SliceUnionSolver(OnlineSolver):
    """Boolean product of an [s, n, n] slice stack, one solver per slice.

    eq<-bool hands its slices to one inner instance as a stack.  The naive
    leaf takes the stack whole; the links that solve the boolean problem
    take square matrices only, so a chain that continues with a link
    answers the [s, n] query block row by row, one slice solver per row,
    and ORs the answers.  Its own ledger stays empty: eq<-bool already
    books every slice query.
    """

    problem = "bool"

    def __init__(self, stack: np.ndarray, config: ReductionConfig, slices: list[OnlineSolver]):
        super().__init__(stack, config)
        self._slices = slices

    def _answer(self, block: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n, dtype=bool)
        for solver, row in zip(self._slices, block):
            out |= solver.query(row)
        return out


LINKS: dict[str, type[OnlineSolver]] = {
    "eq<-bool": EqFromBoolSolver,
    "dom<-eq": DomFromEqSolver,
    "minmax<-dom": MinMaxFromDomSolver,
    "minwit<-minmax": MinWitnessFromMinMaxSolver,
    "bmmp<-eq": BmmpFromEqSolver,
    "bool<-bmmp": BoolFromBmmpSolver,
    "bool<-minwit": BoolFromMinWitSolver,
}

#: Complete chain from each problem down to the naive boolean oracle,
#: following the reduction diagram (the boolean problem goes around the
#: large cycle through the min-witness projection; see ALT_BOOL_CHAIN for
#: the short cycle through min-plus).
FULL_CYCLE: dict[str, list[str]] = {
    "eq": ["eq<-bool", "naive"],
    "dom": ["dom<-eq", "eq<-bool", "naive"],
    "minmax": ["minmax<-dom", "dom<-eq", "eq<-bool", "naive"],
    "minwit": ["minwit<-minmax", "minmax<-dom", "dom<-eq", "eq<-bool", "naive"],
    "bmmp": ["bmmp<-eq", "eq<-bool", "naive"],
    "bool": [
        "bool<-minwit",
        "minwit<-minmax",
        "minmax<-dom",
        "dom<-eq",
        "eq<-bool",
        "naive",
    ],
}

ALT_BOOL_CHAIN = ["bool<-bmmp", "bmmp<-eq", "eq<-bool", "naive"]


def parse_chain(text: str) -> list[str]:
    """Split a chain string, appending the naive terminal when omitted."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ChainError("empty chain")
    for name in names:
        if name != "naive" and name not in LINKS:
            raise ChainError(f"unknown chain link {name!r}")
    if names[-1] != "naive":
        names.append("naive")
    return names


def validate_chain(names: list[str], problem: str) -> None:
    """Check that a chain solves ``problem`` and its links compose."""
    current = problem
    for position, name in enumerate(names):
        if name == "naive":
            if position != len(names) - 1:
                raise ChainError("naive must be the terminal link")
            return
        link = LINKS.get(name)
        if link is None:
            raise ChainError(f"unknown chain link {name!r}")
        if link.problem != current:
            raise ChainError(
                f"link {name!r} solves {link.problem!r} but {current!r} is needed"
            )
        current = link.inner_problem
    raise ChainError("chain must terminate in the naive oracle")


def build_solver(
    names: list[str],
    problem: str,
    matrix: Matrix,
    config: Optional[ReductionConfig] = None,
) -> OnlineSolver:
    """Instantiate the composed solver for ``problem`` on ``matrix``."""
    validate_chain(names, problem)
    config = config if config is not None else ReductionConfig()

    def factory(inner_problem: str, inner_matrix: Matrix | np.ndarray, cfg: ReductionConfig):
        return build_solver(names[1:], inner_problem, inner_matrix, cfg)

    head = names[0]
    if head == "naive":
        return NaiveSolver(matrix, config, problem=problem)
    if isinstance(matrix, np.ndarray) and matrix.ndim == 3:
        slices = [LINKS[head](piece, config, make_inner=factory) for piece in matrix]
        return SliceUnionSolver(matrix, config, slices)
    return LINKS[head](matrix, config, make_inner=factory)
