import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omv.core import INF, NEG_INF, Matrix, Vector
from omv.formats import (
    Instance,
    ParseError,
    format_value,
    parse_answers,
    parse_instance,
    parse_value,
    print_answers,
    print_instance,
)

SAMPLE = """OMV 1
problem minmax
n 2
3 inf
-inf 0
queries 2
1 2
inf -inf
"""


def test_parse_sample_instance():
    instance = parse_instance(SAMPLE)
    assert instance.problem == "minmax"
    assert instance.matrix.rows == [[3, INF], [NEG_INF, 0]]
    assert [q.entries for q in instance.queries] == [[1, 2], [INF, NEG_INF]]


def test_print_then_parse_is_identity():
    instance = parse_instance(SAMPLE)
    assert print_instance(instance) == SAMPLE
    again = parse_instance(print_instance(instance))
    assert again.matrix.rows == instance.matrix.rows


def test_bmmp_monotone_line_round_trip():
    text = "OMV 1\nproblem bmmp\nn 2\nmonotone rows\n1 2\n2 2\nqueries 1\n1 1\n"
    instance = parse_instance(text)
    assert instance.matrix.monotone == "rows"
    assert print_instance(instance) == text


def test_bmmp_requires_monotone_line():
    text = "OMV 1\nproblem bmmp\nn 1\n1\nqueries 0\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_monotone_line_rejected_elsewhere():
    text = "OMV 1\nproblem eq\nn 1\nmonotone rows\n1\nqueries 0\n"
    with pytest.raises(ParseError):
        parse_instance(text)


@pytest.mark.parametrize(
    "mutation",
    [
        "XMV 1",  # bad magic
        "problem nonsense",
        "n zero",
        "n -3",
    ],
)
def test_header_errors(mutation):
    lines = SAMPLE.splitlines()
    for at, line in enumerate(lines):
        if line.split()[0] == mutation.split()[0] or (
            mutation.startswith("XMV") and at == 0
        ):
            lines[at] = mutation
            break
    with pytest.raises(ParseError):
        parse_instance("\n".join(lines) + "\n")


def test_row_arity_and_token_errors():
    with pytest.raises(ParseError):
        parse_instance("OMV 1\nproblem eq\nn 2\n1 2 3\n4 5\nqueries 0\n")
    with pytest.raises(ParseError):
        parse_instance("OMV 1\nproblem eq\nn 1\nhello\nqueries 0\n")
    with pytest.raises(ParseError):
        parse_instance(SAMPLE + "9 9\n")  # trailing content


def test_blank_lines_and_missing_final_newline():
    text = "\n OMV 1\n\nproblem eq\nn 1\n \n7\nqueries 1\n\n3\n\n \n"
    instance = parse_instance(text)
    assert instance.matrix.rows == [[7]]
    assert [v.entries for v in instance.queries] == [[3]]
    assert parse_instance(SAMPLE.rstrip("\n")) == parse_instance(SAMPLE)


def test_truncated_file():
    with pytest.raises(ParseError):
        parse_instance("OMV 1\nproblem eq\nn 2\n1 2\n")


def test_value_tokens():
    assert parse_value("inf") == INF
    assert parse_value("-inf") == NEG_INF
    assert parse_value("-12") == -12
    assert format_value(INF) == "inf"
    assert format_value(NEG_INF) == "-inf"
    assert format_value(0) == "0"
    with pytest.raises(ParseError):
        parse_value("1.5")


MALFORMED_INTEGERS = ["1_0", "+3", "\uff14", "1.0", "0x1"]  # \uff14: full-width 4


@pytest.mark.parametrize("token", MALFORMED_INTEGERS)
def test_integers_are_ascii_digits_with_an_optional_minus(token):
    # as a value, as n and as the query count
    sites = [
        (f"OMV 1\nproblem eq\nn 1\n{token}\nqueries 0\n", f"bad value token {token!r}"),
        (f"OMV 1\nproblem eq\nn {token}\n1\nqueries 0\n", f"bad dimension {token!r}"),
        (f"OMV 1\nproblem eq\nn 1\n1\nqueries {token}\n", f"bad query count {token!r}"),
    ]
    for text, message in sites:
        with pytest.raises(ParseError) as error:
            parse_instance(text)
        assert str(error.value) == message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_numeral_past_the_int_digit_limit_is_a_parse_error():
    token = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError, match="bad value token"):
        parse_value(token)


def test_integer_grammar_keeps_what_it_allowed():
    assert [parse_value(t) for t in ("-0", "007", "inf", "-inf")] == [0, 7, INF, NEG_INF]
    instance = parse_instance("OMV 1\nproblem dom\nn 01\n-0\nqueries 001\n-inf\n")
    assert instance.matrix.rows == [[0]]
    assert [v.entries for v in instance.queries] == [[NEG_INF]]


def test_boolean_round_trip():
    text = "OMV 1\nproblem bool\nn 2\n1 0\n0 1\nqueries 1\n1 1\n"
    instance = parse_instance(text)
    assert instance.matrix.tag == "boolean"
    assert print_instance(instance) == text


def test_answers_round_trip():
    answers = [Vector([1, INF]), Vector([NEG_INF, 0])]
    text = print_answers(answers)
    assert text == "1 inf\n-inf 0\n"
    back = parse_answers(text, 2)
    assert [a.entries for a in back] == [a.entries for a in answers]
    with pytest.raises(ParseError):
        parse_answers("1 2 3\n", 2)


values = st.one_of(st.integers(-(2**40), 2**40), st.just(INF), st.just(NEG_INF))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4), st.data())
def test_round_trip_property(n, q, data):
    rows = [
        [data.draw(values) for _ in range(n)] for _ in range(n)
    ]
    queries = [Vector([data.draw(values) for _ in range(n)]) for _ in range(q)]
    instance = Instance("minmax", Matrix(rows), queries)
    back = parse_instance(print_instance(instance))
    assert back.matrix.rows == rows
    assert [v.entries for v in back.queries] == [v.entries for v in queries]
    # canonical text is a fixed point of print(parse(.))
    assert print_instance(back) == print_instance(instance)
