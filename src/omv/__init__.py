"""Online matrix-vector product variants and the reductions between them.

The package provides naive reference solvers for six online product
problems (boolean, equality, dominance, min-witness, min-max, and bounded
monotone min-plus), composable reduction solvers that answer one problem
through inner instances of another, a differential-testing harness with an
adaptive online-ness adversary, and a CLI over plain-text instance files.
The top level exports what a chain needs end to end; the links, the
oracle's reference functions and the rest of the harness live in their
modules.
"""

from .chains import build_solver
from .core import Matrix, ReductionConfig, Vector, validate, validate_query
from .harness import InstanceSpec, gen_instance
from .oracle import NaiveSolver

__version__ = "0.1.0"

__all__ = [
    "InstanceSpec",
    "Matrix",
    "NaiveSolver",
    "ReductionConfig",
    "Vector",
    "build_solver",
    "gen_instance",
    "validate",
    "validate_query",
]
