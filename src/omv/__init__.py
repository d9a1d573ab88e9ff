"""Online matrix-vector product variants and the reductions between them.

The package provides naive reference solvers for six online product
problems (boolean, equality, dominance, min-witness, min-max, and bounded
monotone min-plus), composable reduction solvers that answer one problem
through inner instances of another, an instance generator, and a CLI over
plain-text instance files.  The top level exports what a chain needs end
to end; the links and the negative control live in their modules, and the
referees the solvers are checked against live in ``tests/referees.py``.
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
