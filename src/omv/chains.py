"""Reduction-chain composition.

A chain is a comma-separated list of link names ending in "naive", e.g.
"minmax<-dom,dom<-eq,eq<-bool,naive".  Each link solves the problem on the
left of its arrow by querying inner instances of the problem on the right;
"naive" is the polymorphic terminal that answers any problem directly.
Adjacent links must agree on the problem they hand across, mirroring the
arrows of the reduction diagram; build_solver() checks this and wires the
solvers together.  Every link takes its config and an inner-solver factory
(core.SolverFactory) from its caller, with no defaults; in the package,
build_solver() is the one place that hands them down.  This module only
composes.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .bmmp_from_eq import BmmpFromEqSolver
from .core import Matrix, OnlineSolver, ReductionConfig, ceil_div
from .eq_from_bool import EqFromBoolSolver
from .folklore import (
    BoolFromBmmpSolver,
    BoolFromMinWitSolver,
    DomFromEqSolver,
    MinWitnessFromMinMaxSolver,
)
from .minmax_from_dom import MinMaxFromDomSolver
from .oracle import NaiveSolver


class ChainError(ValueError):
    """Malformed or incompatible reduction chain."""


class BlockUnionSolver(OnlineSolver):
    """Boolean product of an n x m matrix as the OR of its square column blocks.

    eq<-bool hands its pairs to one n x m boolean instance, or to a stack of
    them (see OnlineSolver) when it answers a stack itself.  The naive leaf
    takes either whole; the links that solve the boolean problem take one
    square matrix only, so a chain that continues with a link splits the
    stack into its instances and each instance into ceil(m/n) n x n column
    blocks, the last one padded with zero columns, builds one solver per
    block, and ORs their answers to the matching pieces of the instance's
    query (zero-padded alike: a zero coordinate selects nothing).  An
    instance whose query row selects nothing is not asked.  Its own ledger
    stays empty: eq<-bool already books every slice query.
    """

    problem = "bool"

    def __init__(
        self,
        matrix: np.ndarray,
        config: ReductionConfig,
        build: Callable[[np.ndarray], OnlineSolver],
    ):
        super().__init__(matrix, config)
        n = self.n
        padded = np.zeros((*matrix.shape[:-1], ceil_div(self.m, n) * n), dtype=matrix.dtype)
        padded[..., : self.m] = matrix
        starts = range(0, padded.shape[-1], n)
        self._blocks = [
            [build(instance[:, start : start + n]) for start in starts]
            for instance in padded.reshape(-1, *padded.shape[-2:])
        ]

    def _answer(self, v: np.ndarray) -> np.ndarray:
        block = v.reshape(len(self._blocks), self.m)
        padded = np.zeros((len(block), len(self._blocks[0]) * self.n), dtype=v.dtype)
        padded[:, : self.m] = block
        out = np.zeros((len(block), self.n), dtype=bool)
        for solvers, pieces, row in zip(self._blocks, padded.reshape(len(block), -1, self.n), out):
            if pieces.any():
                for solver, piece in zip(solvers, pieces):
                    row |= solver.query(piece)
        return out.reshape(*v.shape[:-1], self.n)


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
    link = LINKS[head]
    # eq<-bool takes an n x m matrix or a stack; the boolean links take one
    # square matrix only, and a boolean instance arrives rectangular, or
    # stacked, from eq<-bool
    if link.problem == "bool" and isinstance(matrix, np.ndarray) and (
        matrix.ndim > 2 or matrix.shape[0] != matrix.shape[1]
    ):
        return BlockUnionSolver(matrix, config, lambda block: link(block, config, make_inner=factory))
    return link(matrix, config, make_inner=factory)
