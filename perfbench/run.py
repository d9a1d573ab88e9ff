"""Benchmark of omv reduction chains, one workload per process.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload minmax-deep --seed 1 --seconds 40 --trace 0

Untraced run (--trace 0).  The workload's chain is built with
omv.chains.build_solver SETUP_BUILDS times, each build timed; the last one
answers queries.  Queries come one at a time from the workload's seeded
streams and only the solver.query call is timed, until at least --seconds
of query time and at least MIN_QUERIES queries have passed.  A stateful
workload gets a freshly built solver for every stream, and those builds are
set-up samples too.  Every answer is compared with a numpy reference outside
the timed region, a query that raises counts as failed, and the head link's
ledger must grow by exactly the workload's advertised inner-query count on
every query.  Metrics:

    query_ms_p50, query_ms_p90  wall time of one outer solver.query call
    queries_per_s               outer queries / summed query wall time
    setup_s                     median wall time of one build_solver call
    peak_rss_mb                 ru_maxrss of this process

Traced run (--trace 1).  One build runs under tracemalloc for set-up memory
by source file.  Then one block of queries (the workload's first stream) is
answered in rounds, alternately by an untraced solver and by a solver built
and queried with spans.Tracer installed, until --seconds have passed since
the traced run began (builds included, at least one round); stateful
workloads rebuild both solvers every round.  Per-layer metrics, named <module>.<metric>:

    <layer>.self_ms_per_query   the layer's query self time per outer query
    <layer>.inner_per_query     ledger inner queries per query of that layer
    <layer>.scan_per_query      ledger scan length per query of that layer
    <layer>.setup_s             the layer's __init__ self time per build
    oracle.calls_per_query      leaf query calls per outer query
    oracle.instances            leaf solvers per build
    oracle.setup_bytes          memory held after a build, allocated in oracle.py
    oracle.direct_ms_per_query  the naive solver answering the outer problem
    eq_from_bool.shortcut_frac  slice queries answered without a leaf call
    bmmp_from_eq.listing_ms_per_query   list_candidates time per outer query
    bmmp_from_eq.oversize_row_frac      rows list_candidates flags oversize
    structures.*_per_query      bmmp ledger multiset-update and candidate
                                counts per outer query
    chains.glue_share           1 - oracle self time / traced query wall time
    trace.overhead_frac         traced / untraced query wall time - 1

A layer that a workload's chain does not contain reads 0.  The traced run
checks the workload's advertised per-layer counts exactly.

--negative-control answers with omv.harness.BatchingMockSolver instead of
the chain and stops after MIN_QUERIES queries; the answer check must report
failures, and the run exits 0 only then.

The last line on standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment
and sample counts.  The same record, and a traced run's spans, are written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "omv"
OUT = BENCH_DIR / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
SETUP_BUILDS = 3
#: query_ms_p90 needs ten samples beyond it.
MIN_QUERIES = 100
DIRECT_ROUNDS = 20


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true")
    return parser.parse_args(argv)


def import_package() -> None:
    """Put this checkout's src/ first on the path and check omv comes from it."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no omv package at {PACKAGE}; run from a checkout of the repository")
    sys.path.insert(0, str(PACKAGE.parent))
    import omv

    if Path(omv.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"perfbench: imported omv from {omv.__file__}, not from {PACKAGE}")


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Tally:
    """Times outer queries and checks each answer outside the timed region."""

    def __init__(self, workload, matrix_array, head_inner: int | None):
        self.workload = workload
        self.matrix_array = matrix_array
        self.head_inner = head_inner
        self.times: list[float] = []
        self.failed = 0
        self.drift = 0

    def query(self, solver, vector, query_array) -> float:
        before = solver.counters.inner_queries
        start = perf_counter()
        try:
            answer = solver.query(vector)
        except Exception:  # a raising query counts as failed; the run goes on
            elapsed = perf_counter() - start
            if not self.failed:
                traceback.print_exc()
            answer = None
        else:
            elapsed = perf_counter() - start
        self.times.append(elapsed)
        if answer is None or not self.workload.answer_ok(self.matrix_array, query_array, answer):
            self.failed += 1
        asked = solver.counters.inner_queries - before
        if self.head_inner is not None and asked != self.head_inner:
            self.drift += 1
        return elapsed


def timed_build(build, samples: list[float]):
    gc.collect()
    start = perf_counter()
    solver = build()
    samples.append(perf_counter() - start)
    return solver


def measure(workload, seed: int, seconds: float, build, tally: Tally) -> tuple[dict, dict]:
    """The untraced run: set-up samples, then timed queries stream by stream."""
    setup: list[float] = []
    solver = None
    for _ in range(SETUP_BUILDS):
        solver = None  # release the previous chain before building the next
        solver = timed_build(build, setup)
    gc.collect()
    total = 0.0
    index = 0
    while True:
        vectors, arrays = workload.stream(seed, index)
        if index and workload.stateful:
            solver = None
            solver = timed_build(build, setup)
        for vector, query_array in zip(vectors, arrays):
            total += tally.query(solver, vector, query_array)
            if total >= seconds and len(tally.times) >= MIN_QUERIES:
                times = tally.times
                return {
                    "query_ms_p50": statistics.median(times) * 1e3,
                    "query_ms_p90": statistics.quantiles(times, n=10)[8] * 1e3,
                    "queries_per_s": len(times) / total,
                    "setup_s": statistics.median(setup),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                }, {"queries": len(times), "setup_builds": len(setup), "streams": index + 1}
        index += 1


def build_under_tracemalloc(build) -> dict[str, int]:
    """Bytes a built solver holds, by the omv source file that allocated them."""
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        solver = build()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held: dict[str, int] = defaultdict(int)
    for stat in after.compare_to(before, "filename"):
        path = Path(stat.traceback[0].filename)
        if path.parent == PACKAGE:
            held[path.stem] += stat.size_diff
    return held


def direct_ms_per_query(workload, matrix, vectors) -> float:
    from omv.oracle import NaiveSolver

    solver = NaiveSolver(matrix, problem=workload.problem)
    times = []
    for _ in range(DIRECT_ROUNDS):
        for vector in vectors:
            start = perf_counter()
            solver.query(vector)
            times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def measure_traced(workload, seed: int, seconds: float, build, tally: Tally, matrix):
    """The traced run; returns per-layer metrics, self-check misses and spans."""
    from spans import Tracer

    begin = perf_counter()
    vectors, arrays = workload.stream(seed, 0)
    # A build under tracemalloc is laid out differently in memory, so the
    # untraced solver is built afresh after it.
    held = build_under_tracemalloc(build)
    direct_ms = direct_ms_per_query(workload, matrix, vectors)
    solver_u = build()
    tracer = Tracer()
    with tracer.installed():
        solver_t = build()
    builds = 1
    passes = {"untraced": 0.0, "traced": 0.0}
    rounds = 0
    while rounds == 0 or perf_counter() - begin < seconds:
        if rounds and workload.stateful:
            solver_u = None
            solver_u = build()
            tracer.harvest()
            solver_t = None
            with tracer.installed():
                solver_t = build()
            builds += 1
        order = ("untraced", "traced") if rounds % 2 == 0 else ("traced", "untraced")
        for side in order:
            if side == "untraced":
                for vector, query_array in zip(vectors, arrays):
                    passes[side] += tally.query(solver_u, vector, query_array)
                continue
            with tracer.installed():
                for j, (vector, query_array) in enumerate(zip(vectors, arrays)):
                    tracer.qid = rounds * len(vectors) + j
                    passes[side] += tally.query(solver_t, vector, query_array)
                tracer.qid = None
        rounds += 1
    tracer.harvest()

    outer = rounds * len(vectors)
    totals = tracer.layer_totals()
    layers, ledger = totals["layers"], tracer.ledger

    def self_ms(layer: str) -> float:
        return layers[layer]["query_self_s"] * 1e3 / outer

    def per_call(layer: str, field: str) -> float:
        calls = layers[layer]["queries"]
        return ledger[layer][field] / calls if calls else 0.0

    def setup_s(layer: str) -> float:
        return layers[layer]["init_self_s"] / builds

    eq_inner = ledger["eq_from_bool"]["inner_queries"]
    bmmp = ledger["bmmp_from_eq"]
    metrics = {
        "oracle.calls_per_query": layers["oracle"]["queries"] / outer,
        "oracle.self_ms_per_query": self_ms("oracle"),
        "oracle.instances": layers["oracle"]["inits"] / builds,
        "oracle.setup_bytes": held["oracle"],
        "oracle.direct_ms_per_query": direct_ms,
        "eq_from_bool.self_ms_per_query": self_ms("eq_from_bool"),
        "eq_from_bool.inner_per_query": per_call("eq_from_bool", "inner_queries"),
        "eq_from_bool.scan_per_query": per_call("eq_from_bool", "scan_length_total"),
        "eq_from_bool.shortcut_frac": (
            1 - layers["eq_from_bool"]["child_queries"] / eq_inner if eq_inner else 0.0
        ),
        "eq_from_bool.setup_s": setup_s("eq_from_bool"),
        "folklore.self_ms_per_query": self_ms("folklore"),
        "folklore.inner_per_query": per_call("folklore", "inner_queries"),
        "folklore.setup_s": setup_s("folklore"),
        "minmax_from_dom.self_ms_per_query": self_ms("minmax_from_dom"),
        "minmax_from_dom.inner_per_query": per_call("minmax_from_dom", "inner_queries"),
        "minmax_from_dom.scan_per_query": per_call("minmax_from_dom", "scan_length_total"),
        "minmax_from_dom.setup_s": setup_s("minmax_from_dom"),
        "bmmp_from_eq.self_ms_per_query": self_ms("bmmp_from_eq"),
        "bmmp_from_eq.listing_ms_per_query": layers["bmmp_from_eq"]["listing_s"] * 1e3 / outer,
        "bmmp_from_eq.inner_per_query": per_call("bmmp_from_eq", "inner_queries"),
        "bmmp_from_eq.oversize_row_frac": (
            tracer.rows_oversize / tracer.rows_listed if tracer.rows_listed else 0.0
        ),
        "structures.multiset_updates_per_query": bmmp["multiset_updates"] / outer,
        "structures.candidates_per_query": bmmp["candidates_enumerated"] / outer,
        "chains.glue_share": 1 - layers["oracle"]["query_self_s"] / totals["outer_s"],
        "trace.overhead_frac": passes["traced"] / passes["untraced"] - 1,
    }
    misses = {
        name: {"expected": expected, "measured": metrics[name]}
        for name, expected in workload.expected_counts.items()
        if metrics[name] != expected
    }
    samples = {"queries": len(tally.times), "traced_queries": outer, "rounds": rounds, "builds": builds}
    return metrics, misses, samples, tracer.dump()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_package()
    import numpy as np
    from omv import ReductionConfig
    from omv.chains import build_solver
    from omv.harness import BatchingMockSolver
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    matrix, matrix_array = workload.matrix(args.seed)
    config = ReductionConfig(seed=args.seed, bound_constant=workload.bound_constant)
    if args.negative_control:
        head_inner = None
        seconds = 0.0

        def build():
            return BatchingMockSolver(matrix, config, problem=workload.problem)

    else:
        head_inner = workload.head_inner
        seconds = args.seconds

        def build():
            return build_solver(list(workload.chain), workload.problem, matrix, config)

    tally = Tally(workload, matrix_array, head_inner)
    misses: dict = {}
    spans = None
    if args.trace:
        metrics, misses, samples, spans = measure_traced(
            workload, args.seed, seconds, build, tally, matrix
        )
    else:
        metrics, samples = measure(workload, args.seed, seconds, build, tally)

    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    attempted = len(tally.times)
    result = {
        "correct": tally.failed == 0 and tally.drift == 0 and not misses,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload.name,
        "chain": ",".join(workload.chain),
        "n": workload.n,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "negative_control": args.negative_control,
        "samples": samples,
        "failed_query_frac": tally.failed / attempted,
        "head_count_drift": tally.drift,
        "count_misses": misses,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.negative_control:
        stem += "-negative"
    (OUT / f"{stem}.json").write_text(json.dumps({"env": record, "result": result}, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps({"env": record}))
    print(json.dumps(result))
    if args.negative_control:
        if tally.failed == 0:
            print("perfbench: negative control was not detected", file=sys.stderr)
            return 1
        return 0
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # The thread pools of numpy's BLAS read these when numpy is imported.
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.exit(main())
