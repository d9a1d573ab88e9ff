"""Memory a built solver holds, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced bytes still
allocated after a build, on lines of the omv package, are what the solver
keeps.  numpy and omv are imported, and every build runs once untraced,
before anything is measured, so that import-time and first-call caches
stay out of the count.
"""

import os
import tracemalloc

import numpy as np

import omv
from omv.chains import FULL_CYCLE, build_solver
from omv.core import Matrix, ReductionConfig
from omv.oracle import NaiveSolver

OMV_LINES = [tracemalloc.Filter(True, os.path.join(os.path.dirname(omv.__file__), "*"))]


def _held(build) -> int:
    """Bytes allocated by omv during ``build()`` and still held after it."""
    build()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(OMV_LINES)
        built = build()
        after = tracemalloc.take_snapshot().filter_traces(OMV_LINES)
    finally:
        tracemalloc.stop()
    del built
    return sum(stat.size_diff for stat in after.compare_to(before, "filename"))


def test_bool_leaf_holds_one_bit_per_entry():
    s, n = 3, 130
    stack = np.random.default_rng(0).random((s, n, n)) < 0.5
    words = s * n * -(-n // 64) * 8
    config = ReductionConfig()  # shared, as a chain shares it among its leaves
    assert NaiveSolver(stack, config, problem="bool")._words.nbytes == words
    assert _held(lambda: NaiveSolver(stack, config, problem="bool")) <= words + 1024


def test_minmax_chain_at_n128_holds_under_5mb():
    n = 128
    values = np.random.default_rng(1).integers(0, n + 1, size=(n, n))
    matrix = Matrix(values.tolist())
    held = _held(lambda: build_solver(FULL_CYCLE["minmax"], "minmax", matrix, ReductionConfig()))
    assert held < 5 * 2**20
