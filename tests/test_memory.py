"""Memory a built solver holds, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced bytes still
allocated after a build, by a call that passed through the omv package
(numpy's own Python functions, such as np.full and np.argsort, included),
are what the solver keeps.  numpy and omv are imported, and every build
runs once untraced, before anything is measured, so that import-time and
first-call caches stay out of the count.
"""

import os
import tracemalloc

import numpy as np

import omv
from omv.chains import FULL_CYCLE, build_solver
from omv.core import Matrix, ReductionConfig
from omv.oracle import NaiveSolver

#: Frames kept per trace: deep enough to reach an omv frame from inside
#: numpy's Python wrappers.
FRAMES = 32
OMV_FRAMES = [
    tracemalloc.Filter(True, os.path.join(os.path.dirname(omv.__file__), "*"), all_frames=True)
]


def _trace_build(build) -> tuple[int, int]:
    """Bytes allocated through omv during ``build()`` and still held after
    it, and the traced peak of the build above its start."""
    build()
    tracemalloc.start(FRAMES)
    try:
        before = tracemalloc.take_snapshot().filter_traces(OMV_FRAMES)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        built = build()
        peak = tracemalloc.get_traced_memory()[1] - start
        after = tracemalloc.take_snapshot().filter_traces(OMV_FRAMES)
    finally:
        tracemalloc.stop()
    del built
    return sum(stat.size_diff for stat in after.compare_to(before, "filename")), peak


def test_bool_leaf_holds_one_bit_per_entry():
    n, m = 130, 390
    matrix = np.random.default_rng(0).random((n, m)) < 0.5
    words = m * -(-n // 64) * 8
    config = ReductionConfig()  # shared, as a chain shares it among its leaves
    assert NaiveSolver(matrix, config, problem="bool")._words.nbytes == words
    held, _ = _trace_build(lambda: NaiveSolver(matrix, config, problem="bool"))
    assert held <= words + 1024


def _minmax_chain_at_n128():
    n = 128
    values = np.random.default_rng(1).integers(0, n + 1, size=(n, n))
    matrix = Matrix(values.tolist())
    return lambda: build_solver(FULL_CYCLE["minmax"], "minmax", matrix, ReductionConfig())


def test_minmax_chain_at_n128_holds_under_5mb():
    held, _ = _trace_build(_minmax_chain_at_n128())
    assert held < 5 * 2**20


def test_minmax_chain_at_n128_builds_under_4mb():
    # the build's transient peak, held memory included: dom<-eq's one
    # rectangular eq instance must be built block by block
    _, peak = _trace_build(_minmax_chain_at_n128())
    assert peak < 4 * 2**20


def _bmmp_chain_at_n64():
    # c = 1 at n = 64: delta = 4 and cap = 16 < n.  Half the rows keep their
    # entries inside one delta-bucket, so their candidate sets are oversize
    # and step two's stacked hitting instance (|R| = 50) is built
    n, delta = 64, 4
    rng = np.random.default_rng(4)
    values = rng.integers(0, n + 1, size=(n, n))
    narrow = rng.permutation(n)[: n // 2]
    base = rng.integers(0, n // delta, size=(len(narrow), 1)) * delta
    values[narrow] = base + rng.integers(0, delta, size=(len(narrow), n))
    matrix = Matrix(values.tolist(), monotone="stream")
    return lambda: build_solver(FULL_CYCLE["bmmp"], "bmmp", matrix, ReductionConfig(bound_constant=1))


def test_bmmp_chain_at_n64_holds_under_1_4mib():
    # eq<-bool holds the float32 hitting stack's [50, 8, 64] frequent and
    # [50, 31, 64] rare tables in float32 (1.12 MiB in all); in float64
    # they would hold 1.59 MiB
    build = _bmmp_chain_at_n64()
    assert build()._hitting.top_values.shape[0] == 50
    held, _ = _trace_build(build)
    assert held < 1.4 * 2**20
