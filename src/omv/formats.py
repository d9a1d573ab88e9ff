"""Text formats for instances and answers.

Instance files:

    OMV 1
    problem <bool|eq|dom|minwit|minmax|bmmp>
    n <int>
    monotone <rows|cols|query|stream>     (bmmp only)
    <n rows of n space-separated values>
    queries <q>
    <q rows of n space-separated values>

Answer files are q lines of n space-separated values.  Integers, n and q
included, are written -?[0-9]+ (ASCII digits, no sign but a leading minus,
no underscores), and the tokens "inf" and "-inf" stand for the infinity
sentinels wherever the problem permits them.  Printing is canonical
(single spaces, one trailing newline), and parsing a printed file
reproduces the original values exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .core import INF, MONOTONE_CASES, NEG_INF, PROBLEMS, Matrix, Value, Vector

MAGIC = "OMV 1"


class ParseError(ValueError):
    """Malformed instance or answer file."""


@dataclass
class Instance:
    problem: str
    matrix: Matrix
    queries: list[Vector]


def format_value(value: Value) -> str:
    if value == INF:
        return "inf"
    if value == NEG_INF:
        return "-inf"
    return str(value)


def _parse_int(text: str, what: str) -> int:
    """An integer as format_value prints it, -?[0-9]+; anything else, and a
    numeral past the interpreter's int-string digit limit, is malformed."""
    try:
        if re.fullmatch(r"-?[0-9]+", text):
            return int(text)
    except ValueError:
        pass
    raise ParseError(f"bad {what} {text!r}")


def parse_value(token: str) -> Value:
    if token == "inf":
        return INF
    if token == "-inf":
        return NEG_INF
    return _parse_int(token, "value token")


def _format_row(values) -> str:
    return " ".join(format_value(v) for v in values)


def parse_row(line: str, n: int, what: str) -> list[Value]:
    tokens = line.split()
    if len(tokens) != n:
        raise ParseError(f"{what} has {len(tokens)} values, expected {n}")
    return [parse_value(t) for t in tokens]


def print_instance(instance: Instance) -> str:
    lines = [MAGIC, f"problem {instance.problem}", f"n {instance.matrix.n}"]
    if instance.matrix.monotone is not None:
        lines.append(f"monotone {instance.matrix.monotone}")
    lines.extend(_format_row(row) for row in instance.matrix.rows)
    lines.append(f"queries {len(instance.queries)}")
    lines.extend(_format_row(v) for v in instance.queries)
    return "\n".join(lines) + "\n"


def _next_line(read_line: Callable[[], str], what: str) -> str:
    """The next non-blank line, stripped; ``read_line`` gives "" at the end."""
    while True:
        line = read_line()
        if line == "":
            raise ParseError(f"unexpected end of input, expected {what}")
        line = line.strip()
        if line:
            return line


def _parse_keyword(line: str, keyword: str) -> str:
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise ParseError(f"expected '{keyword} <value>', got {line!r}")
    return parts[1]


def read_header_and_matrix(read_line: Callable[[], str]) -> tuple[str, Matrix]:
    """Parse the header and matrix block from a line source.

    ``read_line`` returns one line per call ("" at end of input).  Used by
    both the whole-file parser and the stdio protocol, which must not read
    past the matrix block.
    """

    if _next_line(read_line, "magic header") != MAGIC:
        raise ParseError(f"missing '{MAGIC}' header")
    problem = _parse_keyword(_next_line(read_line, "problem line"), "problem")
    if problem not in PROBLEMS:
        raise ParseError(f"unknown problem {problem!r}")
    n = _parse_int(_parse_keyword(_next_line(read_line, "dimension line"), "n"), "dimension")
    if n < 1:
        raise ParseError("dimension must be positive")

    monotone: Optional[str] = None
    line = _next_line(read_line, "matrix row or monotone line")
    if line.startswith("monotone"):
        monotone = _parse_keyword(line, "monotone")
        if monotone not in MONOTONE_CASES:
            raise ParseError(f"unknown monotone case {monotone!r}")
        if problem != "bmmp":
            raise ParseError("monotone line only applies to bmmp")
        line = _next_line(read_line, "matrix row 1")
    if problem == "bmmp" and monotone is None:
        raise ParseError("bmmp instance requires a monotone line")

    rows = [parse_row(line, n, "matrix row 1")]
    for i in range(2, n + 1):
        rows.append(parse_row(_next_line(read_line, f"matrix row {i}"), n, f"matrix row {i}"))
    tag = "boolean" if problem in ("bool", "minwit") else (
        "bounded" if problem == "bmmp" else "integer"
    )
    return problem, Matrix(rows, tag=tag, monotone=monotone)


def parse_instance(text: str) -> Instance:
    lines = iter(text.splitlines(keepends=True))
    read_line = partial(next, lines, "")
    problem, matrix = read_header_and_matrix(read_line)
    q = _parse_int(_parse_keyword(_next_line(read_line, "queries line"), "queries"), "query count")
    if q < 0:
        raise ParseError("query count must be nonnegative")
    queries = [
        Vector(parse_row(_next_line(read_line, f"query {j + 1}"), matrix.n, f"query {j + 1}"))
        for j in range(q)
    ]
    if any(line.strip() for line in lines):
        raise ParseError("trailing content after the last query")
    return Instance(problem, matrix, queries)


def print_answers(answers: list[Vector]) -> str:
    return "\n".join(_format_row(a) for a in answers) + ("\n" if answers else "")


def parse_answers(text: str, n: int) -> list[Vector]:
    rows = []
    for line in text.splitlines():
        if line.strip():
            rows.append(Vector(parse_row(line, n, f"answer row {len(rows) + 1}")))
    return rows
