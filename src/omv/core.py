"""Shared domain types for online matrix-vector product solvers.

An online solver is handed a square matrix up front for preprocessing and
must then answer a stream of vector queries one at a time: each answer has
to be produced before the next query becomes visible.  Six product variants
share this contract (tokens used throughout the package and in file
formats):

    bool    -- boolean product: out[i] = 1 iff some k has M[i,k] = v[k] = 1
    eq      -- equality product: out[i] = 1 iff some k has M[i,k] = v[k]
    dom     -- dominance product: out[i] = 1 iff some k has M[i,k] <= v[k]
    minwit  -- min-witness: smallest 1-based k with M[i,k] = v[k] = 1, or inf
    minmax  -- min-max: min over k of max(M[i,k], v[k])
    bmmp    -- bounded monotone min-plus: min over k of M[i,k] + v[k], with
               entries in [0, c*n] and one declared monotonicity direction

Two representations, one per side of a solver:

* ``Vector`` and ``Matrix`` are the outer I/O types (files, the CLI, the
  harness, tests).  Their values are plain Python ints and the infinity
  sentinels ``float("inf")`` / ``float("-inf")``, which order correctly
  against ints.
* numpy arrays are the currency between layers.  Values travel as float64,
  0/1 answers (and the boolean queries built from them) as bool.  float64
  is exact here: validate() caps finite values at 2^40, so min-plus sums
  (below 2^41) and the rank and position encodings all stay below 2^53,
  and the infinities stay infinities.  NaN is the absent value inside a
  chain (it equals nothing and is dominated by nothing); validate()
  rejects it, and every non-integer finite value, in outside input.
  Values travel as float32 instead where their producer knows them to be
  integers within +-2^24, exact in float32 at half the memory: the rank
  slices dom<-eq hands to eq<-bool and the hitting stack bmmp<-eq hands
  its equality instance, each with its probes (as_array keeps a float32
  array as it is).

OnlineSolver.query converts once per outer query: a Vector in gives a
Vector out (ints and infinity sentinels), an ndarray in gives an ndarray
out.  Storage is 0-based; every index that reaches a user (violation
reports, min-witness answers, file formats) is 1-based.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional

import numpy as np

INF = float("inf")
NEG_INF = float("-inf")

# Finite values beyond this magnitude could make derived quantities (rank
# shifts, 2*(i+k)-M[i,k], min-plus sums) lose float64 exactness in the
# array-backed solvers; validate() rejects them up front.
VALUE_LIMIT = 2**40

#: Default c of the [0, c*n] value bound of the bmmp problem.
DEFAULT_BOUND_CONSTANT = 4

PROBLEMS = ("bool", "eq", "dom", "minwit", "minmax", "bmmp")

#: Monotonicity directions for the bmmp problem, named by file-format token:
#: rows   -- every matrix row is nondecreasing left to right
#: cols   -- every matrix column is nondecreasing top to bottom
#: query  -- every query vector is nondecreasing
#: stream -- each coordinate is nondecreasing from one query to the next
MONOTONE_CASES = ("rows", "cols", "query", "stream")

Value = int | float


class DimensionMismatch(ValueError):
    """Query vector length does not match the solver's matrix dimension."""


@dataclass(frozen=True)
class Violation:
    """First offending position found by validate(); indices are 1-based."""

    row: Optional[int]
    col: Optional[int]
    reason: str

    def __str__(self) -> str:
        where = ""
        if self.row is not None and self.col is not None:
            where = f" at ({self.row},{self.col})"
        elif self.col is not None:
            where = f" at column {self.col}"
        elif self.row is not None:
            where = f" at row {self.row}"
        return f"{self.reason}{where}"


@dataclass
class Vector:
    """Column vector over ints and infinity sentinels."""

    entries: list[Value]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, k: int) -> Value:
        return self.entries[k]

    def __iter__(self) -> Iterator[Value]:
        return iter(self.entries)


@dataclass
class Matrix:
    """Square row-major matrix over ints and infinity sentinels.

    ``tag`` records the intended value domain ("boolean", "integer" or
    "bounded").  ``monotone`` carries the declared monotonicity direction
    for bmmp instances (None elsewhere); for the query/stream cases it is
    a promise about the query stream rather than a matrix property.
    validate() checks actual content against a problem kind.
    """

    rows: list[list[Value]]
    tag: str = "integer"
    monotone: Optional[str] = None

    @property
    def n(self) -> int:
        return len(self.rows)


def as_array(matrix: Matrix | np.ndarray) -> np.ndarray:
    """The float64 array of a Matrix (or of any array of values); a float32
    array, as dom<-eq hands down its rank bits, keeps its dtype."""
    if isinstance(matrix, Matrix):
        return np.array(matrix.rows, dtype=np.float64)
    if isinstance(matrix, np.ndarray) and matrix.dtype == np.float32:
        return matrix
    return np.asarray(matrix, dtype=np.float64)


def to_vector(values: np.ndarray) -> Vector:
    """An answer array as a Vector of ints and infinity sentinels."""
    if values.dtype == np.bool_ or np.isfinite(values).all():
        return Vector(values.astype(np.int64).tolist())
    return Vector([x if x == INF or x == NEG_INF else int(x) for x in values.tolist()])


def _entry_rules(values: np.ndarray, problem: str, n: int, bound: int) -> list[tuple[np.ndarray, str]]:
    """Per-entry violation masks of one problem's value domain, by priority."""
    if problem in ("bool", "minwit"):
        return [((values != 0) & (values != 1), "boolean entry must be 0 or 1")]
    finite = np.isfinite(values)
    rules = [
        (np.isnan(values), "NaN is not a value"),
        (finite & (np.abs(values) > VALUE_LIMIT), "finite value exceeds the +/-2^40 limit"),
        (finite & (values != np.floor(values)), "finite value must be an integer"),
    ]
    if problem == "eq":
        rules.append((~finite, "equality product requires finite entries"))
    elif problem == "bmmp":
        rules.append((~finite, "min-plus requires finite entries"))
        rules.append(((values < 0) | (values > bound * n), f"entry outside [0, {bound}*n]"))
    # dom / minmax accept the integers and +/-inf
    return rules


def _first_entry_violation(
    values: np.ndarray, problem: str, n: int, bound: int
) -> Optional[tuple[int, str]]:
    """Row-major flat index and reason of the first bad entry, if any."""
    rules = _entry_rules(values, problem, n, bound)
    bad = np.logical_or.reduce([mask for mask, _ in rules]).ravel()
    if not bad.any():
        return None
    index = int(bad.argmax())
    return index, next(reason for mask, reason in rules if mask.flat[index])


def _values_array(values) -> np.ndarray:
    """float64 array of outside input.  Ints too large for a float become
    out-of-limit finite stand-ins, so that validation reports them."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return np.vectorize(_fit_float, otypes=[np.float64])(np.array(values, dtype=object))


def _fit_float(value: Value) -> float:
    if isinstance(value, int) and abs(value) > VALUE_LIMIT:
        return 2.0 * VALUE_LIMIT if value > 0 else -2.0 * VALUE_LIMIT
    return value


def validate(
    matrix: Matrix | np.ndarray,
    problem: str,
    monotone: Optional[str] = None,
    bound_constant: int = DEFAULT_BOUND_CONSTANT,
) -> Optional[Violation]:
    """Check a matrix (a Matrix or a 2-D array) against a problem kind.

    Returns None when the matrix is acceptable, otherwise a Violation
    naming the first offending entry (1-based, row-major).  For bmmp with
    the rows or cols case the declared monotonicity is checked as well; the
    query and stream cases constrain query vectors, not the matrix.  When
    ``monotone`` is not given it defaults to the matrix's own declaration.
    """
    if monotone is None:
        monotone = getattr(matrix, "monotone", None)
    if problem not in PROBLEMS:
        return Violation(None, None, f"unknown problem {problem!r}")
    if problem == "bmmp" and monotone not in MONOTONE_CASES:
        return Violation(None, None, f"bmmp requires a monotone case, got {monotone!r}")
    if problem != "bmmp" and monotone is not None:
        return Violation(None, None, "monotone case only applies to bmmp")
    rows = matrix.rows if isinstance(matrix, Matrix) else matrix
    n = len(rows)
    if n == 0:
        return Violation(None, None, "matrix dimension must be positive")
    for i, row in enumerate(rows):
        if len(row) != n:
            return Violation(i + 1, None, f"row has length {len(row)}, expected {n}")
    values = _values_array(rows)
    found = _first_entry_violation(values, problem, n, bound_constant)
    if found is not None:
        index, reason = found
        return Violation(index // n + 1, index % n + 1, reason)
    if problem == "bmmp" and monotone == "rows":
        drops = (values[:, :-1] > values[:, 1:]).ravel()
        if drops.any():
            index = int(drops.argmax())
            return Violation(index // (n - 1) + 1, index % (n - 1) + 2, "row not nondecreasing")
    if problem == "bmmp" and monotone == "cols":
        drops = (values[:-1] > values[1:]).ravel()
        if drops.any():
            index = int(drops.argmax())
            return Violation(index // n + 2, index % n + 1, "column not nondecreasing")
    return None


def validate_query(
    vector: Vector | np.ndarray,
    problem: str,
    n: int,
    monotone: Optional[str] = None,
    bound_constant: int = DEFAULT_BOUND_CONSTANT,
    previous: Optional[Vector | np.ndarray] = None,
) -> Optional[Violation]:
    """Check one query vector against a problem kind (and the query case).
    ``previous``, the last accepted query, is read by the stream case alone:
    a raw coordinate below it is a violation, even within one delta-bucket."""
    if problem not in PROBLEMS:
        return Violation(None, None, f"unknown problem {problem!r}")
    if len(vector) != n:
        return Violation(None, None, f"query length {len(vector)}, expected {n}")
    values = _values_array(vector.entries if isinstance(vector, Vector) else vector)
    found = _first_entry_violation(values, problem, n, bound_constant)
    if found is not None:
        index, reason = found
        return Violation(None, index + 1, reason)
    if problem == "bmmp" and monotone == "query":
        drops = values[:-1] > values[1:]
        if drops.any():
            return Violation(None, int(drops.argmax()) + 2, "query vector not nondecreasing")
    if problem == "bmmp" and monotone == "stream" and previous is not None:
        before = _values_array(previous.entries if isinstance(previous, Vector) else previous)
        fell = values < before
        if fell.any():
            k = int(fell.argmax())
            reason = f"stream coordinate fell from {before[k]:.0f} to {values[k]:.0f}"
            return Violation(None, k + 1, reason)
    return None


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def ceil_cbrt(n: int) -> int:
    r = 1
    while r**3 < n:
        r += 1
    return r


@dataclass
class ReductionConfig:
    """Tunables shared by all reductions.

    ``t``, ``delta`` and ``hitting_set_size`` default to None meaning
    "auto": t = ceil(sqrt(n)), delta = ceil(n^(1/3)) and
    |R| = min(ceil(3 * delta * ln n), n), but at least 1 when the bmmp row
    cap floor(c*n/delta) is below n (a 1 x 1 row can then be oversize),
    resolved when a solver preprocesses its matrix.  ``hitting_set_size``
    may also be the string "full", meaning every column; |R| is clamped to
    n, and |R| = n (forced-hit mode) makes the randomized min-plus
    reduction deterministic.  t and delta must be ints of at least 1, an
    int |R| and ``bound_constant`` ints of at least 0; a bool is not an int
    here.  ``bound_constant`` is the c in the [0, c*n] value bound accepted
    by the bmmp solver, and ``seed`` seeds the bmmp solver's hitting set.
    How a reduction builds its inner solvers is not a setting: each link
    takes a ``make_inner`` factory (the naive solver when built alone), and
    chains.build_solver is the one place that wires deeper chains.
    """

    t: Optional[int] = None
    delta: Optional[int] = None
    hitting_set_size: Optional[int | str] = None
    seed: int = 0
    bound_constant: int = DEFAULT_BOUND_CONSTANT

    def __post_init__(self) -> None:
        def whole(value) -> bool:
            return isinstance(value, int) and not isinstance(value, bool)

        for name in ("t", "delta"):
            value = getattr(self, name)
            if value is not None and not (whole(value) and value >= 1):
                raise ValueError(f"{name} must be an int of at least 1, got {value!r}")
        if not (whole(self.bound_constant) and self.bound_constant >= 0):
            raise ValueError(f"bound_constant must be an int >= 0, got {self.bound_constant!r}")
        size = self.hitting_set_size
        if size is not None and size != "full" and not (whole(size) and size >= 0):
            raise ValueError(f"hitting set size must be 'full' or an int >= 0, got {size!r}")

    def resolve_t(self, n: int) -> int:
        return self.t if self.t is not None else ceil_sqrt(n)

    def resolve_delta(self, n: int) -> int:
        return self.delta if self.delta is not None else ceil_cbrt(n)

    def resolve_hitting(self, n: int, delta: int, cap: int) -> int:
        size = self.hitting_set_size
        if size is None:
            size = max(math.ceil(3 * delta * math.log(n)), int(cap < n))
        return n if size == "full" else min(size, n)


@dataclass
class CounterLedger:
    """Operation counts mirroring each reduction's cost accounting.

    Five integers.  inner_queries counts the inner queries a link's cost
    accounting charges per query, however many calls answer them.  Four
    links ask fewer: eq<-bool books t per call and asks its one instance
    of stacked slices once; dom<-eq books rank_bit_count(n) and asks its
    one rectangular instance once; minmax<-dom books 2t and asks a prefix
    of the t buckets per side, until every row has hit; bmmp<-eq books
    |R| * (3*delta - 1) and asks only the probes that can lower an
    oversize row, in at most 3*delta - 2 calls of its hitting stack.
    scan_length_total counts the rare entries of eq<-bool that matched
    their query coordinate (not the cells compared) and the elements
    examined in minmax<-dom's bucket scans; candidates_enumerated counts
    the columns bmmp<-eq lists.  multiset_updates and rmq_queries book the
    ordered-multiset repositionings and range-minimum queries of the
    paper's candidate listing (see omv.bmmp_from_eq), which the package
    replaces by one dense key table per query.  Each solver of a chain
    keeps its own ledger.  Counters only grow; create a fresh solver to
    reset them.
    """

    inner_queries: int = 0
    scan_length_total: int = 0
    multiset_updates: int = 0
    candidates_enumerated: int = 0
    rmq_queries: int = 0

    def snapshot(self) -> dict[str, int]:
        return asdict(self)

    def since(self, snap: dict[str, int]) -> dict[str, int]:
        return {name: value - snap[name] for name, value in asdict(self).items()}


class OnlineSolver:
    """Base class implementing the online query contract.

    Subclasses preprocess in __init__ and implement _answer(), which maps
    one query array to one answer array.  query() is the single entry
    point, for outer callers and for links asking their inner solvers
    alike: it checks dimensions, converts a Vector to a float64 array and
    the answer back (an ndarray passes through unconverted), and advances
    query_index, which is 1-based and equals j while the j-th query is
    being answered (the boolean-to-min-plus encoding needs it).  A solver
    must never look at any vector other than the current one; the
    harness's adaptive sessions exist to catch violations.

    The matrix is n x m: n, its row count, is the answer length and m, its
    column count, the query length.  Outer instances are square; inside a
    chain dom<-eq hands eq<-bool an n x (levels * n) matrix, and eq<-bool
    hands its boolean instance an n x P one (see those modules).

    A stack is a [b, n, m] array of b independent instances, which bmmp<-eq
    hands its inner equality solver (its hitting instances) and eq<-bool
    hands on.  A query block [b, m] gives each instance at most one query
    per call, and the answer is [b, n].  A row of NaN (for the boolean
    problem, a row of zeros) is an instance not asked this call: it
    matches nothing, so its answer row is all False.  Each instance still
    sees its own queries one at a time.  n and m are read from the last
    two axes, and query() checks the last axis of the query.
    """

    problem: str = ""

    def __init__(self, matrix: Matrix | np.ndarray, config: Optional[ReductionConfig] = None):
        self.n, self.m = (matrix.n, matrix.n) if isinstance(matrix, Matrix) else np.shape(matrix)[-2:]
        self.config = config if config is not None else ReductionConfig()
        self.counters = CounterLedger()
        self._query_index = 1

    @property
    def query_index(self) -> int:
        return self._query_index

    def query(self, vector: Vector | np.ndarray) -> Vector | np.ndarray:
        array = isinstance(vector, np.ndarray)
        width = vector.shape[-1] if array else len(vector)
        if width != self.m:
            raise DimensionMismatch(f"query length {width} against {self.n}x{self.m} matrix")
        if array:
            answer = self._answer(vector)
        else:
            answer = to_vector(self._answer(np.array(vector.entries, dtype=np.float64)))
        self._query_index += 1
        return answer

    def _answer(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


#: Builds an inner solver for ``problem`` on ``matrix`` (an ndarray, or a
#: Matrix where a bmmp instance must carry its monotonicity case);
#: reductions receive one of these so that chains compose without the
#: modules knowing each other (oracle.naive_factory is the default).
SolverFactory = Callable[[str, Matrix | np.ndarray, ReductionConfig], OnlineSolver]

