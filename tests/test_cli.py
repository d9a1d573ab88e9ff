import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import omv
from omv.cli import build_parser, main
from omv.formats import parse_answers, parse_instance
from omv.harness import InstanceSpec

# child processes import the same omv as this one, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(omv.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_is_reproducible(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["gen", "bool", "4", "--seed", "7", "-o", str(a)]) == 0
    assert main(["gen", "bool", "4", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert parse_instance(a.read_text()).problem == "bool"


def test_gen_parser_sets_every_instance_knob():
    # cmd_gen builds its InstanceSpec from the parsed flags by field name
    args = build_parser().parse_args(["gen", "eq", "3"])
    assert {field.name for field in fields(InstanceSpec)} <= set(vars(args))


def test_gen_bmmp_rows_case(tmp_path):
    out = tmp_path / "inst.txt"
    assert main(["gen", "bmmp", "8", "--monotone", "rows", "-o", str(out)]) == 0
    instance = parse_instance(out.read_text())
    for row in instance.matrix.rows:
        assert all(row[k] <= row[k + 1] for k in range(7))


def test_gen_bmmp_without_case_fails(capsys):
    code, _, err = run_cli(["gen", "bmmp", "4"], capsys)
    assert code == 3
    assert "monotone" in err


def test_solve_chain_matches_naive(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    main(["gen", "eq", "8", "--seed", "3", "-o", str(inst)])
    a = tmp_path / "naive.txt"
    b = tmp_path / "chain.txt"
    code, _, err = run_cli(["solve", str(inst), "--chain", "naive", "-o", str(a)], capsys)
    assert code == 0
    code, _, err = run_cli(
        ["solve", str(inst), "--chain", "eq<-bool,naive", "-o", str(b)], capsys
    )
    assert code == 0
    assert "counters:" in err
    assert a.read_text() == b.read_text()


def test_solve_then_verify_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    ans = tmp_path / "ans.txt"
    main(["gen", "minwit", "6", "--seed", "5", "-o", str(inst)])
    assert main(["solve", str(inst), "-o", str(ans)]) == 0
    assert "inf" in ans.read_text()  # witnesses missing somewhere
    code, out, _ = run_cli(["verify", str(inst), str(ans)], capsys)
    assert code == 0 and "ok" in out


def test_verify_flags_single_flip(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    ans = tmp_path / "ans.txt"
    main(["gen", "bool", "5", "--seed", "8", "-o", str(inst)])
    main(["solve", str(inst), "-o", str(ans)])
    lines = ans.read_text().splitlines()
    row = lines[2].split()
    row[3] = "1" if row[3] == "0" else "0"
    lines[2] = " ".join(row)
    ans.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(["verify", str(inst), str(ans)], capsys)
    assert code == 1
    assert "query 3 row 4" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not an instance\n")
    code, _, err = run_cli(["solve", str(bad)], capsys)
    assert code == 2 and "error" in err


def test_malformed_integer_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("OMV 1\nproblem eq\nn 2\n1_0 +3\n\uff14 0\nqueries 0\n")
    code, out, err = run_cli(["solve", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err == "error: bad value token '1_0'\n"


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("OMV 1\nproblem bool\nn 2\n0 2\n0 1\nqueries 1\n1 1\n")
    code, _, err = run_cli(["solve", str(bad)], capsys)
    assert code == 3 and "error" in err


def test_incompatible_chain_exit_code(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    main(["gen", "bool", "4", "--seed", "2", "-o", str(inst)])
    code, _, err = run_cli(["solve", str(inst), "--chain", "eq<-bool"], capsys)
    assert code == 3


def test_answer_shape_mismatch_is_a_parse_error(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    ans = tmp_path / "ans.txt"
    main(["gen", "bool", "4", "--seed", "2", "-o", str(inst)])
    ans.write_text("0 0 0 0\n")  # one row instead of four
    code, _, _ = run_cli(["verify", str(inst), str(ans)], capsys)
    assert code == 2


def test_forced_hit_solve_is_seed_independent(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    main(
        ["gen", "bmmp", "8", "--monotone", "query", "--seed", "4", "--bound-constant", "1",
         "-o", str(inst)]
    )
    outs = []
    for seed in ("1", "99"):
        out = tmp_path / f"ans{seed}.txt"
        code = main(
            [
                "solve",
                str(inst),
                "--chain",
                "bmmp<-eq",
                "--hitting",
                "full",
                "--seed",
                seed,
                "--bound-constant",
                "1",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "gen_args,chain,knob",
    [
        (["bmmp", "6", "--monotone", "rows"], "bmmp<-eq", "--delta=-1"),
        (["bmmp", "6", "--monotone", "rows"], "bmmp<-eq", "--delta=0"),
        (["bmmp", "6", "--monotone", "rows"], "bmmp<-eq", "--hitting=-3"),
        (["minmax", "6"], "minmax<-dom", "--t=0"),
        (["minmax", "6"], "minmax<-dom", "--t=-1"),
        (["eq", "6"], "naive", "--bound-constant=-1"),
    ],
)
def test_invalid_solver_knob_is_a_validation_error(tmp_path, capsys, gen_args, chain, knob):
    inst = tmp_path / "inst.txt"
    assert main(["gen", *gen_args, "-o", str(inst)]) == 0
    code, out, err = run_cli(["solve", str(inst), "--chain", chain, knob], capsys)
    assert code == 3
    assert out == "" and "must be" in err


@pytest.mark.parametrize(
    "knob",
    ["--queries=-2", "--density=2", "--density=-0.5", "--inf-prob=1.5"],
)
def test_out_of_range_gen_knob_is_a_validation_error(tmp_path, capsys, knob):
    inst = tmp_path / "inst.txt"
    problem = "dom" if knob.startswith("--inf-prob") else "bool"
    code, out, err = run_cli(["gen", problem, "4", knob, "-o", str(inst)], capsys)
    assert code == 3
    assert out == "" and "must be" in err
    assert not inst.exists()


@pytest.mark.parametrize(
    "gen_args",
    [
        ["bool", "4", "--monotone", "rows"],
        ["minmax", "4", "--monotone", "query"],
        ["bmmp", "4", "--monotone", "rows", "--inf-prob", "0.5"],
        ["bool", "4", "--inf-prob", "0.5"],
        ["minwit", "4", "--inf-prob", "0.1"],
        ["bool", "3", "--inf-prob", "0"],
        ["eq", "3", "--density", "0.3"],
        ["bool", "3", "--dist", "skewed"],
        ["bmmp", "3", "--monotone", "rows", "--lo", "2", "--hi", "9"],
        ["minwit", "3", "--hi", "7"],
        ["eq", "3", "--bound-constant", "-5"],
        ["bool", "3", "--bound-constant", "7"],
    ],
)
def test_gen_knob_that_does_not_apply_is_a_validation_error(tmp_path, capsys, gen_args):
    inst = tmp_path / "inst.txt"
    code, out, err = run_cli(["gen", *gen_args, "-o", str(inst)], capsys)
    assert code == 3
    assert out == "" and "error" in err
    assert not inst.exists()


@pytest.mark.parametrize(
    "gen_args, message",
    [
        (["eq", "0"], "instance dimension must be positive"),
        (["bmmp", "3", "--monotone", "rows", "--bound-constant", "-1"], "negative value bound"),
    ],
)
def test_gen_names_an_impossible_instance(tmp_path, capsys, gen_args, message):
    inst = tmp_path / "inst.txt"
    code, out, err = run_cli(["gen", *gen_args, "-o", str(inst)], capsys)
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert not inst.exists()


@pytest.mark.parametrize(
    "text, code, message",
    [
        (
            "OMV 1\nproblem eq extra\nn 1\n1\nqueries 0\n",
            2,
            "expected 'problem <value>', got 'problem eq extra'",
        ),
        (
            "OMV 1\nproblem bmmp\nn 1\nmonotone diagonal\n1\nqueries 0\n",
            2,
            "unknown monotone case 'diagonal'",
        ),
        ("OMV 1\nproblem eq\nn 1\n1\nqueries -1\n", 2, "query count must be nonnegative"),
        (
            "OMV 1\nproblem bool\nn 2\n1 2\n0 1\nqueries 0\n",
            3,
            "invalid matrix: boolean entry must be 0 or 1 at (1,2)",
        ),
    ],
    ids=["keyword-line", "monotone-case", "query-count", "boolean-entry"],
)
def test_solve_names_a_bad_instance_file(tmp_path, capsys, text, code, message):
    inst = tmp_path / "inst.txt"
    inst.write_text(text)
    got, out, err = run_cli(["solve", str(inst)], capsys)
    assert (got, out, err) == (code, "", f"error: {message}\n")


def test_non_integer_hitting_size_is_named(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    assert main(["gen", "bmmp", "4", "--monotone", "rows", "-o", str(inst)]) == 0
    code, out, err = run_cli(["solve", str(inst), "--chain", "bmmp<-eq", "--hitting", "abc"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: hitting set size must be 'full' or an int >= 0, got 'abc'\n"


def _protocol(input_text, *args):
    return subprocess.run(
        [sys.executable, "-m", "omv.cli", "protocol", *args],
        input=input_text,
        capture_output=True,
        text=True,
        timeout=120,
        env=CHILD_ENV,
    )


def test_protocol_matches_solve(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    ans = tmp_path / "ans.txt"
    main(["gen", "dom", "6", "--seed", "11", "-o", str(inst)])
    main(["solve", str(inst), "--chain", "dom<-eq,eq<-bool,naive", "-o", str(ans)])
    result = _protocol(inst.read_text(), "--chain", "dom<-eq,eq<-bool,naive")
    assert result.returncode == 0, result.stderr
    # the protocol stream contains exactly the same answers, line by line
    instance = parse_instance(inst.read_text())
    got = parse_answers(result.stdout, instance.matrix.n)
    want = parse_answers(ans.read_text(), instance.matrix.n)
    assert [g.entries for g in got] == [w.entries for w in want]


def test_protocol_interactive_one_answer_per_query(tmp_path):
    header = "OMV 1\nproblem bool\nn 2\n1 0\n1 1\n"
    process = subprocess.Popen(
        [sys.executable, "-m", "omv.cli", "protocol"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    )
    try:
        process.stdin.write(header)
        process.stdin.flush()
        # adaptively derive the second query from the first answer
        process.stdin.write("0 1\n")
        process.stdin.flush()
        first = process.stdout.readline().strip()
        assert first == "0 1"
        second_query = "1 0" if first == "0 1" else "1 1"
        process.stdin.write(second_query + "\n")
        process.stdin.flush()
        assert process.stdout.readline().strip() == "1 1"
    finally:
        process.stdin.close()
        process.wait(timeout=60)
        process.stdout.close()
        process.stderr.close()
    assert process.returncode == 0


def test_protocol_wrong_length_is_protocol_error():
    text = "OMV 1\nproblem bool\nn 2\n1 0\n1 1\n0 1 1\n"
    result = _protocol(text)
    assert result.returncode == 4
    assert "error" in result.stderr
    assert "query has 3 values, expected 2" in result.stderr


def test_protocol_bad_token_is_protocol_error():
    text = "OMV 1\nproblem bool\nn 2\n1 0\n1 1\n0 x\n"
    result = _protocol(text)
    assert result.returncode == 4
    assert result.stderr == "error: bad value token 'x'\n"


def test_protocol_malformed_integer_is_protocol_error():
    text = "OMV 1\nproblem eq\nn 2\n1 0\n1 1\n0 1_0\n"
    result = _protocol(text)
    assert result.returncode == 4
    assert result.stderr == "error: bad value token '1_0'\n"


def test_protocol_falling_stream_coordinate_is_protocol_error():
    # with delta = 2, 5 and 4 round to the same value; the raw fall still counts
    text = "OMV 1\nproblem bmmp\nn 2\nmonotone stream\n0 1\n2 3\n5 1\n4 1\n"
    result = _protocol(text, "--chain", "bmmp<-eq,naive", "--delta", "2", "--hitting", "full")
    assert result.returncode == 4
    assert result.stdout.splitlines() == ["2 4"]
    assert "stream coordinate fell from 5 to 4 at column 1" in result.stderr


FALLING_STREAM = "OMV 1\nproblem bmmp\nn 2\nmonotone stream\n0 1\n1 2\nqueries 2\n3 3\n1 3\n"


@pytest.mark.parametrize(
    "command, chain, code",
    [
        ("solve", "naive", 3),
        ("solve", "bmmp<-eq,eq<-bool", 3),
        ("verify", None, 3),
        ("protocol", "naive", 4),
        ("protocol", "bmmp<-eq,eq<-bool", 4),
    ],
)
def test_falling_stream_is_rejected_whatever_the_chain(tmp_path, capsys, command, chain, code):
    # query 2 lowers coordinate 1 from 3 to 1; the answers are right, so
    # only the stream-order check can reject the instance
    if command == "protocol":
        result = _protocol(FALLING_STREAM, "--chain", chain)
        got, out, err = result.returncode, result.stdout, result.stderr
        assert out.splitlines() == ["3 4"]  # query 1 is answered before query 2 is read
    else:
        inst = tmp_path / "inst.txt"
        ans = tmp_path / "ans.txt"
        inst.write_text(FALLING_STREAM)
        ans.write_text("3 4\n1 2\n")
        args = [str(ans)] if command == "verify" else ["--chain", chain]
        got, out, err = run_cli([command, str(inst), *args], capsys)
    assert got == code
    assert "stream coordinate fell from 3 to 1 at column 1" in err


def test_solve_one_by_one_bmmp_at_bound_constant_zero(tmp_path, capsys):
    # cap = floor(0 * 1 / 1) = 0 < n: the row is oversize, yet the auto
    # |R| = ceil(3 * ln 1) = 0 would leave no column to hit it
    inst = tmp_path / "inst.txt"
    ans = tmp_path / "ans.txt"
    gen = ["gen", "bmmp", "1", "--monotone", "rows", "--bound-constant", "0", "-o", str(inst)]
    assert main(gen) == 0
    chain = ["--chain", "bmmp<-eq,eq<-bool", "--bound-constant", "0"]
    assert main(["solve", str(inst), *chain, "-o", str(ans)]) == 0
    assert ans.read_text() == "0\n"
    code, out, _ = run_cli(["verify", str(inst), str(ans), "--bound-constant", "0"], capsys)
    assert code == 0 and "ok" in out


TIES = Path(__file__).parent / "data" / "ties.txt"


@pytest.mark.parametrize(
    "chain",
    [
        "bmmp<-eq,naive",
        "bmmp<-eq,eq<-bool",
        "bmmp<-eq,eq<-bool,bool<-minwit,minwit<-minmax,minmax<-dom,dom<-eq,eq<-bool",
    ],
)
def test_solve_ties_instance_at_bound_constant_one(tmp_path, capsys, chain):
    # 0/1 entries at c = 1 and n = 8: delta = 2 and cap = 4 < n, so every
    # row is oversize and step two asks the stacked hitting instance; the
    # auto |R| is every column, so the answers are exact.  The head books
    # |R| * (3 * delta - 1) = 40 inner queries on each of the 5 queries.
    ans = tmp_path / "ans.txt"
    code, _, err = run_cli(
        ["solve", str(TIES), "--bound-constant", "1", "--chain", chain, "-o", str(ans)], capsys
    )
    assert code == 0 and "counters: inner_queries=200 " in err
    code, out, _ = run_cli(["verify", str(TIES), str(ans), "--bound-constant", "1"], capsys)
    assert code == 0 and "ok" in out


def test_verify_takes_the_bound_constant(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    ans = tmp_path / "ans.txt"
    code = main(
        ["gen", "bmmp", "6", "--monotone", "rows", "--bound-constant", "8", "--seed", "3",
         "-o", str(inst)]
    )
    assert code == 0
    instance = parse_instance(inst.read_text())
    assert max(max(row) for row in instance.matrix.rows) > 4 * 6  # beyond the default c
    assert main(["solve", str(inst), "--bound-constant", "8", "-o", str(ans)]) == 0
    code, out, _ = run_cli(["verify", str(inst), str(ans), "--bound-constant", "8"], capsys)
    assert code == 0 and "ok" in out
    # the default c = 4 rejects the same instance
    code, _, err = run_cli(["verify", str(inst), str(ans)], capsys)
    assert code == 3 and "outside [0, 4*n]" in err
