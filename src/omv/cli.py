"""Command-line front end.

Subcommands:

    gen        write a reproducible random instance file
    solve      answer an instance file with a reduction chain
    verify     recompute an answer file with the naive solver and compare
    protocol   stdio session: matrix first, then one answer line per query line

Exit codes: 0 success, 1 verification mismatch, 2 parse error, 3 validation
error (bad instance values, incompatible chain, unsatisfiable generator
flags), 4 protocol error.  Answers go to standard output (or the chosen
file); counter summaries go to standard error so pipes stay clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional

from . import formats
from .chains import build_solver, parse_chain
from .core import (
    DEFAULT_BOUND_CONSTANT,
    MONOTONE_CASES,
    PROBLEMS,
    ReductionConfig,
    Vector,
    validate,
    validate_query,
)
from .harness import DISTRIBUTIONS, InstanceSpec, gen_instance
from .oracle import NaiveSolver

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PROTOCOL = 4


class ProtocolError(ValueError):
    """Malformed traffic in a stdio protocol session."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _config_from_args(args) -> ReductionConfig:
    try:
        hitting = int(args.hitting)
    except (TypeError, ValueError):  # None, "full" or a bad value the config names
        hitting = args.hitting
    return ReductionConfig(
        t=args.t,
        delta=args.delta,
        hitting_set_size=hitting,
        seed=args.seed,
        bound_constant=args.bound_constant,
    )


def cmd_gen(args) -> int:
    knobs = {field.name: getattr(args, field.name) for field in dataclasses.fields(InstanceSpec)}
    matrix, queries = gen_instance(InstanceSpec(**knobs))
    text = formats.print_instance(formats.Instance(args.problem, matrix, queries))
    _write_text(args.out, text)
    return EXIT_OK


def _check(violation, what: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the first violation of one input, if any."""
    if violation is not None:
        raise error(f"invalid {what}: {violation}")


def _load_instance(path: str, bound: int) -> formats.Instance:
    instance = formats.parse_instance(_read_text(path))
    matrix, queries = instance.matrix, instance.queries
    _check(validate(matrix, instance.problem, bound_constant=bound), "matrix")
    for j, (previous, query) in enumerate(zip([None, *queries], queries), start=1):
        violation = validate_query(
            query, instance.problem, matrix.n, matrix.monotone, bound, previous=previous
        )
        _check(violation, f"query {j}")
    return instance


def _print_counters(solver) -> None:
    snap = solver.counters.snapshot()
    summary = " ".join(f"{key}={value}" for key, value in snap.items())
    print(f"counters: {summary}", file=sys.stderr)


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance, bound=args.bound_constant)
    chain = parse_chain(args.chain)
    solver = build_solver(chain, instance.problem, instance.matrix, _config_from_args(args))
    answers = []
    for query in instance.queries:
        answers.append(solver.query(query))
    _write_text(args.out, formats.print_answers(answers))
    _print_counters(solver)
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = _load_instance(args.instance, bound=args.bound_constant)
    claimed = formats.parse_answers(_read_text(args.answers), instance.matrix.n)
    if len(claimed) != len(instance.queries):
        raise formats.ParseError(
            f"answer file has {len(claimed)} rows, instance has {len(instance.queries)} queries"
        )
    solver = NaiveSolver(instance.matrix, problem=instance.problem)
    for j, query in enumerate(instance.queries, start=1):
        want = solver.query(query)
        got = claimed[j - 1]
        for i in range(instance.matrix.n):
            if want[i] != got[i]:
                print(
                    f"mismatch at query {j} row {i + 1}: "
                    f"expected {formats.format_value(want[i])}, "
                    f"got {formats.format_value(got[i])}"
                )
                return EXIT_MISMATCH
    print("ok")
    return EXIT_OK


def cmd_protocol(args) -> int:
    # Line-at-a-time reads: the next query is only consumed after the
    # previous answer has been written and flushed.
    problem, matrix = formats.read_header_and_matrix(sys.stdin.readline)
    bound = args.bound_constant
    _check(validate(matrix, problem, bound_constant=bound), "matrix")
    chain = parse_chain(args.chain)
    solver = build_solver(chain, problem, matrix, _config_from_args(args))
    may_skip_count = True  # piped instance files carry a "queries <q>" line
    previous = None
    while True:
        line = sys.stdin.readline()
        if line == "":
            break
        if not line.strip():
            continue
        tokens = line.split()
        if may_skip_count and tokens[0] == "queries" and len(tokens) == 2:
            may_skip_count = False
            continue
        may_skip_count = False
        try:
            query = Vector(formats.parse_row(line, matrix.n, "query"))
        except formats.ParseError as exc:
            raise ProtocolError(str(exc)) from exc
        violation = validate_query(
            query, problem, matrix.n, matrix.monotone, bound, previous=previous
        )
        _check(violation, "query", ProtocolError)
        answer = solver.query(query)
        previous = query
        print(" ".join(formats.format_value(v) for v in answer), flush=True)
    _print_counters(solver)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omv",
        description="Online matrix-vector product variants: generate, solve, verify, serve a stdio session.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bound_flag(p, default=DEFAULT_BOUND_CONSTANT):
        p.add_argument(
            "--bound-constant",
            dest="bound_constant",
            type=int,
            default=default,
            help="the c in the [0, c*n] min-plus value bound",
        )

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("problem", choices=PROBLEMS)
    gen.add_argument("n", type=int)
    gen.add_argument("--dist", dest="distribution", choices=DISTRIBUTIONS, default=None)
    gen.add_argument("--lo", type=int, default=None)
    gen.add_argument("--hi", type=int, default=None)
    gen.add_argument("--density", type=float, default=None)
    gen.add_argument("--inf-prob", dest="inf_prob", type=float, default=None)
    gen.add_argument("--monotone", choices=MONOTONE_CASES, default=None)
    add_bound_flag(gen, default=None)  # bmmp only; InstanceSpec resolves the default
    gen.add_argument("--queries", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out", default=None)
    gen.set_defaults(func=cmd_gen)

    def add_solver_flags(p):
        p.add_argument("--chain", default="naive")
        p.add_argument("--t", type=int, default=None)
        p.add_argument("--delta", type=int, default=None)
        p.add_argument("--hitting", default=None, help="hitting set size or 'full'")
        p.add_argument("--seed", type=int, default=0)
        add_bound_flag(p)

    solve = sub.add_parser("solve", help="answer an instance with a reduction chain")
    solve.add_argument("instance")
    add_solver_flags(solve)
    solve.add_argument("-o", "--out", default=None)
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check answers against the naive solver")
    verify.add_argument("instance")
    verify.add_argument("answers")
    add_bound_flag(verify)
    verify.set_defaults(func=cmd_verify)

    protocol = sub.add_parser("protocol", help="interactive stdio query session")
    add_solver_flags(protocol)
    protocol.set_defaults(func=cmd_protocol)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, formats.ParseError):
            return EXIT_PARSE
        return EXIT_PROTOCOL if isinstance(exc, ProtocolError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
