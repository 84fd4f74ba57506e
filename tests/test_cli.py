import json
import sys
import time
from pathlib import Path

import pytest

import cyclo.cli as cli
from cyclo.cli import run, to_json
from cyclo.errors import InternalInvariantError

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    (["poly", "1"], "poly_1.txt"),
    (["poly", "12"], "poly_12.txt"),
    (["disc", "3", "2"], "disc_3_2.txt"),
    (["bernoulli", "12"], "bernoulli_12.txt"),
    (["pairs", "37"], "pairs_37.txt"),
    (["regular", "--upto", "100", "--quiet"], "regular_100_quiet.txt"),
    (["regular", "--upto", "100", "--json"], "regular_100.json"),
    (["elt", "norm", "5:[1,1,0,0]"], "elt_norm.txt"),
    (["factor", "3", "1", "1"], "factor_3_1_1.txt"),
    (["unit-decompose", "5", "5:[1,1,0,0]"], "unit_decompose_5.txt"),
    (["case1", "5", "--bound", "20", "--json"], "case1_5_b20.json"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES, ids=[g for _, g in GOLDEN_CASES])
def test_golden_outputs(capsys, argv, golden):
    assert run(argv) == 0
    out = capsys.readouterr()
    assert out.out == (GOLDEN / golden).read_text()
    assert out.err == ""


JSON_COMMANDS = [
    ["poly", "7", "--json"],
    ["disc", "2", "3", "--json"],
    ["bernoulli", "0", "--json"],
    ["regular", "--upto", "40", "--json"],
    ["pairs", "59", "--json"],
    ["elt", "add", "5:[1,1]", "5:[0,0,1]", "--json"],
    ["elt", "mul", "4:[1,1]", "4:[1,1]", "--json"],
    ["elt", "inv", "5:[1,1,0,0]", "--json"],
    ["elt", "trace", "5:[0,1,0,0]", "--json"],
    ["elt", "conj", "5:[1,1,0,0]", "--json"],
    ["elt", "is-real", "5:[0,1,0,0]", "--json"],
    ["elt", "is-unit", "5:[1,1,0,0]", "--json"],
    ["unit-decompose", "7", "7:[1,1,0,0,0,0]", "--json"],
    ["factor", "5", "2", "1", "--json"],
    ["case1", "3", "--bound", "10", "--json"],
    ["case1", "37", "--bound", "5", "--skip-regularity", "--json"],
    ["case1", "5", "--bound", "10", "--no-filter", "--json"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=[" ".join(a) for a in JSON_COMMANDS])
def test_json_is_single_object_and_roundtrips(capsys, argv):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    line = out[:-1]
    parsed = json.loads(line)
    assert to_json(parsed) == line  # byte-identical re-serialization
    assert parsed["exact"] is True
    assert set(parsed) == {"command", "inputs", "result", "exact"}


def test_envelope_echoes_canonicalized_inputs(capsys):
    run(["elt", "conj", "5:[0,0,0,0,1]", "--json"])
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["inputs"]["a"] == "5:[-1,-1,-1,-1]"
    assert parsed["result"]["element"] == "5:[0,1,0,0]"


def test_element_literal_roundtrip_through_cli(capsys):
    run(["elt", "conj", "5:[1,1,0,0]", "--quiet"])
    first = capsys.readouterr().out.strip()
    run(["elt", "conj", first, "--quiet"])
    second = capsys.readouterr().out.strip()
    assert second == "5:[1,1,0,0]"


def test_quiet_mode_is_terse(capsys):
    run(["regular", "--upto", "10", "--quiet"])
    assert capsys.readouterr().out == "irregular: none\n"
    run(["bernoulli", "2", "--quiet"])
    assert capsys.readouterr().out == "1/6\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["nosuchcommand"],
        [],
        ["poly"],
        ["poly", "x"],
        ["elt", "norm", "5:[1,0.5]"],
        ["elt", "norm", "banana"],
        ["elt", "add", "5:[1]"],
        ["elt", "norm", "5:[1]", "5:[1]"],
        ["case1", "5"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err != ""


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["case1", "37", "--bound", "5"], "irregular"),
        (["case1", "2", "--bound", "5"], "odd prime"),
        (["disc", "6", "1"], "prime"),
        (["pairs", "4"], "prime"),
        (["elt", "inv", "5:[0]"], "division by zero"),
        (["elt", "is-unit", "5:[1/2]"], "not an algebraic integer"),
        (["unit-decompose", "7", "5:[1,1,0,0]"], "conductor mismatch"),
        (["unit-decompose", "5", "5:[1,-1,0,0]"], "not a unit"),
        (["bernoulli", "-2"], ">= 0"),
        (["regular", "--upto", "1"], ">= 2"),
        (["poly", str(2**1100)], "conductor must be an integer in 1..100000"),
        (["elt", "norm", "100003:[1]"], "conductor must be an integer in 1..100000"),
        (["elt", "add", "5:[1]", f"{10**30}:[1]"], "conductor must be an integer in 1..100000"),
        (["unit-decompose", "7", f"{2**1100}:[1,1]"], "conductor must be an integer in 1..100000"),
        (["disc", "7", "9"], "conductor p^k must be an integer in 1..100000"),
        (["disc", "2", "100000000"], "conductor p^k must be an integer in 1..100000"),
        (["disc", str(2**127 - 1), "1"], "conductor p^k must be an integer in 1..100000"),
        (["factor", "2305843009213693951", "1", "1"], "conductor must be an integer in 1..100000"),
        (["case1", "5", "--bound", "100000000", "--skip-regularity"], "bound must be in 0..10000"),
        (["case1", "5", "--bound", "10001"], "bound must be in 0..10000"),
        (["case1", str(2**127 - 1), "--bound", "2"], "would exceed"),
    ],
)
def test_domain_errors_exit_2(capsys, argv, fragment):
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert fragment in out.err


def test_oversized_inputs_are_refused_before_work(capsys):
    # each ran for more than 30 s, or ended in a MemoryError, before its size check
    argvs = [
        ["disc", "7", "9"],
        ["disc", "2", "100000000"],
        ["factor", "2305843009213693951", "1", "1"],
        ["case1", "5", "--bound", "100000000", "--skip-regularity"],
    ]
    start = time.monotonic()
    assert [run(argv) for argv in argvs] == [2] * len(argvs)
    assert time.monotonic() - start < 5
    capsys.readouterr()


def test_results_past_the_int_digit_limit_print(capsys):
    p = 16007  # the norm of 1 + 2 zeta_p is (2^p + 1) / 3, 4819 digits
    limit = sys.get_int_max_str_digits()
    assert run(["elt", "norm", f"{p}:[1,2]", "--quiet"]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    sys.set_int_max_str_digits(0)
    try:
        expected = str((2**p + 1) // 3)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > limit and out == expected + "\n"


def test_literals_keep_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert run(["elt", "norm", "5:[" + "7" * (limit + 1) + "]"]) == 1
    assert "invalid parse_literal value" in capsys.readouterr().err
    assert run(["bernoulli", "-2"]) == 2  # the limit is restored after an error too
    assert sys.get_int_max_str_digits() == limit
    capsys.readouterr()


def test_internal_invariant_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalInvariantError("forced for test")

    monkeypatch.setattr(cli, "decompose_unit", broken)
    assert run(["unit-decompose", "5", "5:[1,1,0,0]"]) == 3
    out = capsys.readouterr()
    assert "internal error" in out.err


def test_irregular_error_names_pairs(capsys):
    run(["case1", "37", "--bound", "5"])
    assert "(37, 32)" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
