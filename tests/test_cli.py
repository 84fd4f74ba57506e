import argparse
import contextlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cyclo.cli as cli
from cyclo import ring
from cyclo.cli import run, to_json
from cyclo.errors import InternalInvariantError
from cyclo.ntheory import is_prime
from cyclo.polys import Poly
from cyclo.regularity import bernoulli
from cyclo.ring import CycElt, factor_sum_pth_powers
from oracles import cleared, folded_product, format_scalar

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
    (["elt", "inv", "7:[1,2,0,3,0,-1]"], "elt_inv_7.txt"),
    (["elt", "inv", "9:[1/2,3,-2/3,0,0,1]"], "elt_inv_9_frac.txt"),
    (["elt", "inv", "12:[2,1/3,0,-1]", "--json"], "elt_inv_12_json.txt"),
    (["elt", "add", "7:[1,2/3]", "7:[0,-1,0,5]"], "elt_add_7.txt"),
    (["elt", "mul", "12:[1,2,0,-1]", "12:[0,1/2,3]"], "elt_mul_12.txt"),
    (["elt", "conj", "7:[1,2,0,3]"], "elt_conj_7.txt"),
    (["elt", "trace", "9:[1,2/3,0,0,0,1]"], "elt_trace_9.txt"),
    (["elt", "is-real", "5:[0,1,0,0,1]"], "elt_is_real_5.txt"),
    (["elt", "is-unit", "7:[1,1,1]", "--json"], "elt_is_unit_7_json.txt"),
    (["case1", "5", "--bound", "20", "--no-filter"], "case1_5_b20_nofilter.txt"),
    (["bernoulli", "3499"], "bernoulli_3499.txt"),
    (["pairs", "31", "--json"], "pairs_31_json.txt"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES, ids=[g for _, g in GOLDEN_CASES])
def test_golden_outputs(capsys, argv, golden):
    assert run(argv) == 0
    out = capsys.readouterr()
    assert out.out == (GOLDEN / golden).read_text()
    assert out.err == ""


COMMANDS = ("poly", "disc", "bernoulli", "regular", "pairs", "elt", "unit-decompose", "factor", "case1")
HELP_CASES = [(["--help"], "help.txt"), *(([c, "--help"], f"help_{c}.txt") for c in COMMANDS)]


@pytest.mark.parametrize("argv,golden", HELP_CASES, ids=[g for _, g in HELP_CASES])
def test_help_texts(capsys, monkeypatch, argv, golden):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    assert run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


README = Path(__file__).parent.parent / "README.md"


def _readme_examples():
    """(argv, line) for each `cyclo ...` line of the README's sh blocks: the
    command's arguments, and its comment up to the first double space, which
    is the last line the command prints."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            if line.startswith("cyclo "):
                command, _, comment = line.partition("#")
                examples.append((shlex.split(command)[1:], comment.strip().split("  ")[0]))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_lists_its_examples():
    assert len(README_EXAMPLES) == 10 and all(last for _, last in README_EXAMPLES)


@pytest.mark.parametrize("argv,last", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_readme_examples_print_their_comment(capsys, argv, last):
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == last


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


def _scalar_outputs(capsys, argv):
    """The value that `argv` prints plainly, with --quiet and in --json."""
    outs = []
    for flags in ([], ["--quiet"], ["--json"]):
        assert run(argv + flags) == 0
        outs.append(capsys.readouterr().out)
    return outs[0][:-1], outs[1][:-1], json.loads(outs[2])["result"]["value"]


def test_scalar_text_matches_the_per_coordinate_formatter(capsys):
    # str prints every scalar as the type-by-type formatter did: ints, zero,
    # negatives, reducible p/q, 4000-digit values
    rng = random.Random(18)
    big = 10**3999 + 7
    pool = ["0", "-0", "+5", "-7", "4/2", "-6/4", "3/9", "-22/7", str(big), f"-{big}", f"{big}/{3 * big}", f"-{big}/6"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # norms of 4000-digit coordinates
    try:
        for _ in range(40):
            n = rng.choice((1, 2, 3, 4, 5, 7, 9, 12))
            texts = [rng.choice(pool) if rng.random() < 0.6 else str(rng.randint(-20, 20)) for _ in range(n + 1)]
            raw = [Fraction(t) for t in texts]
            a = CycElt(n, raw)
            den, ints = cleared(a)
            assert str(a) == f"{n}:[" + ",".join(format_scalar(Fraction(c, den)) for c in ints) + "]"
            while raw and not raw[-1]:
                raw.pop()
            assert str(Poly(raw)) == "[" + ",".join(map(format_scalar, raw)) + "]"
            literal = f"{n}:[" + ",".join(texts) + "]"
            for op, value in (("norm", a.norm()), ("trace", a.trace())):
                assert _scalar_outputs(capsys, ["elt", op, literal]) == (format_scalar(value),) * 3
        for m in [0, 1, 2, 3, *rng.sample(range(4, 201), 12)]:
            text = format_scalar(bernoulli(m))
            assert _scalar_outputs(capsys, ["bernoulli", str(m)]) == (f"B_{m} = {text}", text, text)
    finally:
        sys.set_int_max_str_digits(limit)


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


PAIRS_5_JSON = '{"command": "pairs", "exact": true, "inputs": {"p": 5}, "result": {"pairs": []}}\n'
CASE1_5_B10 = "p=5 bound=10 candidates=55 pruned=8 solutions=0\n"

# argv that `run` leaves to argparse, with the exit code, stdout and stderr
# they had when argparse read every argv
ARGPARSE_SPELLINGS = [
    (["pairs", "5", "--js"], 0, PAIRS_5_JSON, ""),
    (["case1", "5", "--bound=10"], 0, CASE1_5_B10, ""),
    (["pairs", "5", "--json", "--json"], 0, PAIRS_5_JSON, ""),
    (["pairs", "--", "5"], 0, "none\n", ""),
    (["case1", "--bound", "10", "5"], 0, CASE1_5_B10, ""),
    (
        ["elt", "norm", "5:[1,1]", "--json", "5:[1]"],
        1,
        "",
        "usage: cyclo [-h] command ...\ncyclo: error: unrecognized arguments: 5:[1]\n",
    ),
    (["pairs", "-3"], 2, "", "error: odd prime >= 5 required\n"),
    (["regular", "--upto", "-1"], 2, "", "error: --upto must be >= 2\n"),
    (["pairs", "5", "-h"], 0, (GOLDEN / "help_pairs.txt").read_text(), ""),
    (
        ["poly"],
        1,
        "",
        "usage: cyclo poly [-h] [--json] [--quiet] n\ncyclo poly: error: the following arguments are required: n\n",
    ),
    (["disc", "3", "2", "1"], 1, "", "usage: cyclo [-h] command ...\ncyclo: error: unrecognized arguments: 1\n"),
    (
        ["poly", "x"],
        1,
        "",
        "usage: cyclo poly [-h] [--json] [--quiet] n\ncyclo poly: error: argument n: invalid int value: 'x'\n",
    ),
    (
        ["case1", "5"],
        1,
        "",
        "usage: cyclo case1 [-h] [--json] [--quiet] --bound BOUND [--no-filter]\n"
        "                   [--skip-regularity]\n"
        "                   p\n"
        "cyclo case1: error: the following arguments are required: --bound\n",
    ),
]


@pytest.mark.parametrize("argv,code,out,err", ARGPARSE_SPELLINGS, ids=[" ".join(a) for a, *_ in ARGPARSE_SPELLINGS])
def test_argparse_reads_other_spellings_as_before(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._read(argv) is None
    assert run(argv) == code
    assert capsys.readouterr() == (out, err)


def test_main_reads_sys_argv_on_both_paths(capsys, monkeypatch):
    parser, built = cli.build_parser(), []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or parser)
    for argv, builds in [(["pairs", "37"], 0), (["pairs", "--", "37"], 1)]:
        monkeypatch.setattr(sys, "argv", ["cyclo", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0 and len(built) == builds
        assert capsys.readouterr() == ("(37,32)\n", "")


# elt op -> (the elements it takes, its --json result key, the type of the value)
ELT_SHAPES = {
    "add": (2, "element", str),
    "mul": (2, "element", str),
    "inv": (1, "element", str),
    "norm": (1, "value", str),
    "trace": (1, "value", str),
    "conj": (1, "element", str),
    "is-real": (1, "value", bool),
    "is-unit": (1, "value", bool),
}


@pytest.mark.parametrize("op", ELT_SHAPES)
def test_elt_result_shapes_and_arity_errors(capsys, op):
    count, key, kind = ELT_SHAPES[op]
    literals = ["7:[1,1]", "7:[0,2,0,-1]"]
    expected = "two elements" if count == 2 else "one element"
    for flags in ([], ["--json"], ["--quiet"]):
        assert run(["elt", op, *literals[: 3 - count], *flags]) == 1
        assert capsys.readouterr() == ("", f"usage error: elt {op} takes {expected}\n")
    outs = []
    for flags in ([], ["--quiet"], ["--json"]):
        assert run(["elt", op, *literals[:count], *flags]) == 0
        outs.append(capsys.readouterr().out)
    result = json.loads(outs[2])["result"]
    assert list(result) == [key] and type(result[key]) is kind
    text = ("true" if result[key] else "false") if kind is bool else result[key]
    assert outs[0] == outs[1] == text + "\n"


# N(A) a single power c^phi(n), or over a denominator m^phi(n), of megabits:
# `1009:[<4300 nines>]` took about 2 s, `3001:[<4300 nines>]` and p/q
# elements with a 4001-digit m did not finish in 20 s before it was counted
_M = 10**4000 + 7
LARGE_POWER_NORMS = [
    "1009:[" + "9" * 4300 + "]",
    "3001:[" + "9" * 4300 + "]",
    f"1009:[1/{_M},1/{_M}]",
    f"99991:[1/{_M},1/{_M}]",
]


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
        (["disc", "7", "5"], "oracle takes phi(p^k) <= 2400"),
        (["disc", "5", "5"], "oracle takes phi(p^k) <= 2400"),
        (["bernoulli", "3501"], "index must be <= 3500"),
        (["bernoulli", str(2**127 - 1)], "index must be <= 3500"),
        (["pairs", "3511"], "p must be <= 3503"),
        (["pairs", str(2**127 - 1)], "p must be <= 3503"),
        (["regular", "--upto", "3504"], "--upto must be <= 3503"),
        (["regular", "--upto", str(2**127 - 1)], "--upto must be <= 3503"),
        (["case1", "3511", "--bound", "2"], "p must be <= 3503"),
        (["elt", "inv", "30030:[0,1,2]"], "inverse work estimate exceeds 250000000"),
        (["elt", "inv", "99991:[1,1]"], "inverse work estimate exceeds 250000000"),
        (["elt", "inv", f"997:[1,{10**30}]"], "inverse work estimate exceeds 250000000"),
        (["elt", "norm", "40009:[1,2]"], "norm work estimate exceeds 600000000"),
        (["elt", "is-unit", "40009:[1,2]"], "norm work estimate exceeds 600000000"),
        (["unit-decompose", "40009", "40009:[1,2]"], "norm work estimate exceeds 600000000"),
        # dense at 2003: 1.4 times the limit on the evaluation route (the
        # same literal at 1009, refused on the resultant route, is now served)
        (["elt", "norm", "2003:[" + ",".join(["3", "-7"] * 1001) + "]"], "norm work estimate exceeds"),
        (["factor", "99991", "1", "1"], "factor work estimate exceeds 500000000"),
        (["factor", "109", "9" * 4000, "0"], "factor work estimate exceeds 500000000"),
        (["elt", "mul", "99991:[" + ",".join(["9"] * 9000) + "]", "99991:[" + "-8," * 9000 + "1]"],
         "mul work estimate exceeds 600000000"),
        # fits ring.MAX_FACTOR_WORK; N(x + zeta) exceeds ring.MAX_NORM_WORK
        (["factor", "97", "9" * 4000, "1"], "norm work estimate exceeds 600000000"),
        *((["elt", "norm", literal], "norm work estimate exceeds 600000000") for literal in LARGE_POWER_NORMS),
    ],
)
def test_domain_errors_exit_2(capsys, argv, fragment):
    start = time.monotonic()
    assert run(argv) == 2
    assert time.monotonic() - start < 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and fragment in out.err


def _seeded_literal(n, count, bound):
    rng = random.Random(7)
    return f"{n}:[" + ",".join(str(rng.randint(-bound, bound)) for _ in range(count)) + "]"


def test_oversized_inputs_are_refused_before_work(capsys):
    # each ran for more than 30 s, or ended in a MemoryError, before its size check
    argvs = [
        ["disc", "7", "9"],
        ["disc", "2", "100000000"],
        ["factor", "2305843009213693951", "1", "1"],
        ["case1", "5", "--bound", "100000000", "--skip-regularity"],
        ["disc", "7", "5"],
        ["bernoulli", str(2**127 - 1)],
        ["pairs", str(2**127 - 1)],
        ["regular", "--upto", str(2**127 - 1)],
        ["elt", "inv", "99991:[1,2]"],
        # reducing t / zeta modulo Phi_30030 took 94 s
        ["elt", "inv", "30030:[0,1,2]"],
        # the first pseudo-remainder of Phi_99991 by 1 + 2X holds 1.25 GB
        ["elt", "norm", "99991:[1,2]"],
        ["unit-decompose", "99991", "99991:[1,2]"],
        # 99991 factors of 99990 coordinates each
        ["factor", "99991", "1", "1"],
        # two dense 10000-coordinate literals: 12.1 s by the loop, still refused
        ["elt", "mul", _seeded_literal(99991, 10000, 9), _seeded_literal(99991, 10000, 9)],
    ]
    start = time.monotonic()
    assert [run(argv) for argv in argvs] == [2] * len(argvs)
    assert time.monotonic() - start < 5
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["elt", "inv", "1409:[1,2]", "--quiet"],
        ["unit-decompose", "1409", "1409:[1,2,2,1]", "--quiet"],
        # (1 - zeta^704) / (1 - zeta) = 1 + zeta + ... + zeta^703, a run of 704 ones
        ["unit-decompose", "1409", "1409:[" + ",".join(["1"] * 704) + "]", "--quiet"],
        # refused by the limit the inverse had before it went through the resultant
        ["elt", "inv", "1423:[1,2]", "--quiet"],
        ["elt", "inv", "6006:[1,2]", "--quiet"],
        # just inside ring.MAX_INVERSE_WORK: dense with 194-bit coordinates
        # (3.1 s), and a block of 84 places on the Phi_n route (4.6 s), the
        # shape that took the most time per unit of the estimate
        ["elt", "inv", _seeded_literal(101, 100, 2**194), "--quiet"],
        ["elt", "inv", _seeded_literal(1423, 84, 9), "--quiet"],
    ],
)
def test_commands_at_the_inverse_cap_end_within_budget(capsys, argv):
    start = time.monotonic()
    assert run(argv) == 0
    assert time.monotonic() - start < 10
    n = argv[2].split(":")[0]
    assert capsys.readouterr().out.startswith((f"{n}:[", f"x={n}:["))


@pytest.mark.parametrize(
    "literal,want",
    [
        ("30030:[5/3]", CycElt(30030, Fraction(3, 5))),
        ("30030:[0,0,0,2]", CycElt.zeta(30030, -3) * Fraction(1, 2)),
    ],
)
def test_monomials_invert_at_large_conductors(capsys, literal, want):
    # c * zeta^j is inverted as zeta^-j / c, before the work estimate that
    # refuses every other element of this size
    start = time.monotonic()
    assert run(["elt", "inv", literal]) == 0
    assert time.monotonic() - start < 5
    got = CycElt.parse(capsys.readouterr().out.strip())
    assert got == want and got * CycElt.parse(literal) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # just inside ring.MAX_FACTOR_WORK: the largest p with x = y = 1
        # (2.0-3.0 s), the slowest shape found (4.2-4.7 s, 1.9 s of it the
        # norm) and the largest p with a 4300-digit x (2.8 s); then 4000-digit
        # x = y at 53, refused when a fold checked the factors (27 s), now 1.8 s
        ["factor", "2791", "1", "1", "--quiet"],
        ["factor", "1601", str(2**732 - 1), str(2**40 - 1), "--quiet"],
        ["factor", "97", str(10**4299), "0", "--quiet"],
        ["factor", "53", "9" * 4000, "9" * 4000, "--quiet"],
    ],
)
def test_factor_at_the_work_cap_ends_within_budget(capsys, argv):
    start = time.monotonic()
    assert run(argv) == 0
    assert time.monotonic() - start < 10
    out = capsys.readouterr().out
    assert out.startswith("product=") and out.endswith(" ok\n")


def test_factor_refused_by_the_norm_before_any_factor(monkeypatch, capsys):
    # 4000-digit x at 97 fits ring.MAX_FACTOR_WORK, but N(x + zeta) exceeds
    # ring.MAX_NORM_WORK; `_reduce` also builds x + zeta, so the sentinel
    # sits on the call that builds the factors
    def no_factors(*args):
        raise AssertionError("a factor was built before the norm's work check")

    monkeypatch.setattr(cli, "factor_sum_pth_powers", no_factors)
    start = time.monotonic()
    assert run(["factor", "97", "9" * 4000, "1"]) == 2
    assert time.monotonic() - start < 1
    assert "norm work estimate exceeds 600000000" in capsys.readouterr().err


FACTOR_PRIMES = [p for p in range(3, 48) if is_prime(p)]


def _factor_pairs(p):
    """Seeded (x, y): zeros, x = -y, signs, large values and p/q values."""
    rng = random.Random(p)
    pairs = [(0, 0), (0, 5), (-7, 0), (3, -3), (-4, 4), (-2, -9), (1, 1)]
    pairs += [(rng.randint(-(10**30), 10**30), rng.randint(-(10**30), 10**30)) for _ in range(3)]
    a, b, c = (Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3))
    return pairs + [(a, b), (c, rng.randint(-9, 9)), (Fraction(5, 3), Fraction(-5, 3))]


@pytest.mark.parametrize("p", FACTOR_PRIMES)
def test_factor_check_agrees_with_the_fold(monkeypatch, p):
    # the closed-form and norm check accepts the library's factors, as the
    # fold does, and with one coordinate changed both reject them (x + y != 0);
    # p/q values reach the check through the library
    rng = random.Random(-p)
    for x, y in _factor_pairs(p):
        args = argparse.Namespace(p=p, x=x, y=y)
        factors = factor_sum_pth_powers(x, y, p)
        _, result, _, _ = cli._cmd_factor(args)
        assert result["factors"] == [str(f) for f in factors]
        assert folded_product(factors) == x**p + y**p == Fraction(result["product"])
        assert folded_product(factors[1:]) == CycElt(p, (x, y)).norm()
        if x + y == 0:
            continue  # factor 0 is zero, so the fold cannot see a change elsewhere
        k, j = rng.randrange(p), rng.randrange(p - 1)
        bad = list(factors)
        bad[k] = bad[k] + CycElt.zeta(p, j)
        monkeypatch.setattr(cli, "factor_sum_pth_powers", lambda *_: bad)
        with pytest.raises(InternalInvariantError, match=f"factor {k} "):
            cli._cmd_factor(args)
        assert folded_product(bad) != x**p + y**p
        monkeypatch.undo()


@pytest.mark.parametrize(
    "k,fragment",
    [(0, "factor 0 "), (3, "factor 3 "), (6, "factor 6 "), (None, "6 factors, not 7")],
)
def test_factor_with_a_wrong_coordinate_exits_3(monkeypatch, capsys, k, fragment):
    def corrupted(x, y, p):
        factors = factor_sum_pth_powers(x, y, p)
        if k is None:
            return factors[:-1]
        coeffs = list(factors[k].coeffs)
        coeffs[k % (p - 1)] += 1
        return factors[:k] + [CycElt(p, coeffs)] + factors[k + 1 :]

    monkeypatch.setattr(cli, "factor_sum_pth_powers", corrupted)
    assert run(["factor", "7", "2", "-5"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err.startswith("internal error: ") and fragment in out.err


def test_factor_with_a_broken_norm_identity_exits_3(monkeypatch, capsys):
    norm = CycElt.norm
    monkeypatch.setattr(CycElt, "norm", lambda self: norm(self) + 1)
    assert run(["factor", "7", "2", "-5"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert out.err == "internal error: (x + y) * N(x + zeta y) is not x^p + y^p\n"


def test_norm_at_the_norm_cap_ends_within_budget(capsys):
    # a block of d/8 small coordinates at 1381, the slowest shape when the
    # resultant was the only route (0.93 of ring.MAX_NORM_WORK, 6.9 s); it
    # now takes the evaluation, at 0.15 of the limit (0.5 s)
    start = time.monotonic()
    assert run(["elt", "norm", _seeded_literal(1381, 172, 7), "--quiet"]) == 0
    assert time.monotonic() - start < 10
    assert capsys.readouterr().out.strip().lstrip("-").isdigit()


def _unit_literal(p, factors, seed):
    """A product of cyclotomic units 1 + zeta + ... + zeta^(j-1) of Z[zeta_p]."""
    rng = random.Random(seed)
    u = CycElt(p, 1)
    for _ in range(factors):
        u = u * CycElt(p, [1] * rng.randint(2, p - 1))
    return str(u)


def _norm_route(text):
    """(evaluate, work / MAX_NORM_WORK) for the route that `norm` takes."""
    a = CycElt.parse(text)
    _, ints = cleared(a)
    _, window, s, real = ring._window(a.n, ints)
    evaluate, work = ring._norm_route(a.n, len(ints), window, real, s)
    return evaluate, work / ring.MAX_NORM_WORK


@pytest.mark.parametrize(
    "argv, evaluate, share",
    [
        # just inside ring.MAX_NORM_WORK on each route: a block of d/52 at
        # 3169, which keeps the resultant (3.1-3.3 s), and a dense element at
        # 1759 (2.4 s)
        (["elt", "norm", _seeded_literal(3169, 60, 9)], False, 0.96),
        (["elt", "is-unit", _seeded_literal(1759, 1758, 9)], True, 0.98),
        # refused on the resultant route; 0.5 s by evaluation
        (["elt", "norm", "1009:[" + ",".join(["3", "-7"] * 504) + "]"], True, 0.18),
        # a product of ten cyclotomic units, at 0.91 of the limit; the
        # decomposition takes two norms (4.0 s)
        (["unit-decompose", "587", _unit_literal(587, 10, 587)], True, 0.90),
    ],
)
def test_norm_routes_at_the_norm_cap_end_within_budget(capsys, argv, evaluate, share):
    got_evaluate, got_share = _norm_route(argv[-1])
    assert got_evaluate == evaluate and share <= got_share <= 1
    start = time.monotonic()
    assert run(argv + ["--quiet"]) == 0
    assert time.monotonic() - start < 10
    out = capsys.readouterr().out
    assert out.startswith("x=587:[") if argv[0] == "unit-decompose" else out.strip().lstrip("-").isalnum()


def _fits_mul_work(a, b, limit):
    """Whether ring._check_mul_work accepts a * b under a cap of `limit`: a
    pair that fits `work` and not `work - 1` has that estimate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "MAX_MUL_WORK", limit)
        try:
            ring._check_mul_work(CycElt.parse(a), CycElt.parse(b))
        except ValueError as exc:
            assert str(exc) == f"mul work estimate exceeds {limit}"
            return False
    return True


def test_mul_at_the_work_cap_ends_within_budget(capsys):
    # just inside ring.MAX_MUL_WORK (0.98 of it): 101-bit coordinates, the
    # shape that took the most time per unit of the estimate (4.3-5.0 s)
    a = _seeded_literal(99991, 4950, 2**100)
    cap = ring.MAX_MUL_WORK
    assert _fits_mul_work(a, a, cap) and not _fits_mul_work(a, a, int(0.95 * cap))
    start = time.monotonic()
    assert run(["elt", "mul", a, a, "--quiet"]) == 0
    assert time.monotonic() - start < 10
    assert capsys.readouterr().out.startswith("99991:[")


def test_mul_work_of_p_q_literals():
    # the words of a coordinate are those of its reduced numerator plus the
    # lcm of the denominators: (2^57 + 1)/5 over lcm 30 is 58 + 5 bits, one
    # word, where the cleared numerator (2^57 + 1) * 6 would make it two
    pairs = [
        ("9:[1/2,3,-2/3,0,0,1]", "9:[0,1]", 84),
        ("7:[1/3,144115188075855873/5,0,-7/2]", "7:[0,1]", 63),
        ("7:[1/3,144115188075855873/5,0,-7/2]", "7:[1180591620717411303421/9,1,1/6]", 198),
    ]
    for a, b, work in pairs:
        assert _fits_mul_work(a, b, work) and not _fits_mul_work(a, b, work - 1)


def test_bernoulli_at_the_index_cap_ends_within_budget():
    # a fresh interpreter, so that the Bernoulli table is built from B_0
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "cyclo.cli", "bernoulli", "3500", "--quiet"], env=env, capture_output=True, text=True
    )
    assert time.monotonic() - start < 10
    assert done.returncode == 0 and done.stderr == ""
    numerator, _, denominator = done.stdout.strip().partition("/")
    assert numerator.lstrip("-").isdigit() and denominator.isdigit()


@pytest.mark.parametrize(
    "argv, prefix",
    [
        # 1 + zeta near the conductor cap; its real part x = zeta^-m (1 + zeta)
        # is sparse, with support half-way up the power basis
        (["unit-decompose", "99991", "99991:[1,1]", "--quiet"], "x=99991:["),
        (["elt", "norm", "99991:[1,1]", "--quiet"], "1\n"),
        (["elt", "is-unit", "99991:[1,1]", "--quiet"], "true\n"),
        # zeta^33330 (1 + zeta): 144-175 s on a 2-vCPU Xeon VM when e was
        # found by scanning the rotations of the conjugate, 0.5 s by lookup
        (["unit-decompose", "99991", "99991:[" + "0," * 33330 + "1,1]", "--quiet"], "x=99991:["),
    ],
)
def test_sparse_units_at_the_conductor_cap_end_within_budget(capsys, argv, prefix):
    start = time.monotonic()
    assert run(argv) == 0
    assert time.monotonic() - start < 10
    assert capsys.readouterr().out.startswith(prefix)


@pytest.mark.parametrize(
    "argv, prefix",
    [
        # zeta^-1 at composite conductors with n - phi(n) large: the
        # reduction of a length-n vector (6-7 s each by fold-and-divide)
        (["elt", "conj", "30030:[0,1]", "--quiet"], "30030:[1,-1,0,0,-1,1,-2,1,-1,0,-1,0,-1,0,0,-2,2,-3"),
        (["elt", "conj", "60060:[0,1]", "--quiet"], "60060:[0,1,0,-1,0,0,0,0,0,-1,0,1,0,-2,0,1,0,-1,0,0"),
        (["elt", "conj", "90090:[0,1]", "--quiet"], "90090:[0,0,1,0,0,-1,0,0,0,0,0,0,0,0,-1,0,0,1,0,0,-"),
        (["elt", "is-real", "30030:[0,1]", "--quiet"], "false\n"),
        (["elt", "is-real", "60060:[0,1]", "--quiet"], "false\n"),
        (["elt", "is-real", "90090:[0,1]", "--quiet"], "false\n"),
    ],
)
def test_conjugates_at_composite_conductors_end_within_budget(capsys, argv, prefix):
    start = time.monotonic()
    assert run(argv) == 0
    assert time.monotonic() - start < 10
    assert capsys.readouterr().out.startswith(prefix)


@pytest.mark.parametrize(
    "argv, prefix",
    [
        # the bound cap; 3571 is the largest prime whose powers pass MAX_POWER_BITS there
        (["case1", "3", "--bound", "10000"], "p=3 bound=10000 candidates=50005000 "),
        (["case1", "5", "--bound", "10000", "--skip-regularity"], "p=5 bound=10000 "),
        (["case1", "3571", "--bound", "10000", "--skip-regularity"], "p=3571 bound=10000 "),
    ],
)
def test_case1_at_the_bound_cap_ends_within_budget(capsys, argv, prefix):
    start = time.monotonic()
    assert run(argv) == 0
    assert time.monotonic() - start < 10
    out = capsys.readouterr().out
    assert out.startswith(prefix) and out.endswith(" solutions=0\n")


@pytest.mark.parametrize(
    "argv",
    [
        # the two slowest p^k with 1200 <= phi(p^k) <= MAX_DISC_PHI (1458 and
        # 2058), and the largest prime at the cap
        ["disc", "3", "7", "--quiet"],
        ["disc", "7", "4", "--quiet"],
        ["disc", "2399", "1", "--quiet"],
    ],
)
def test_disc_at_the_phi_cap_ends_within_budget(capsys, argv):
    start = time.monotonic()
    assert run(argv) == 0
    assert time.monotonic() - start < 10
    out = capsys.readouterr().out
    assert out.startswith("formula=-") and out.endswith(" agree=true\n")


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


# success, usage errors (exit 1) and domain errors (exit 2), interleaved
MIXED_ARGVS = [
    ["bernoulli", "12"],
    ["poly", "x"],
    ["pairs", "37", "--json"],
    ["disc", "7", "5"],
    ["nosuchcommand"],
    ["regular", "--upto", "40", "--quiet"],
    ["bernoulli", "-2"],
    ["--help"],
    ["elt", "norm", "5:[1,1,0,0]"],
    ["case1", "5"],
    ["elt", "inv", "5:[0]"],
    ["case1", "5", "--bound", "10", "--json"],
]


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_shared_parser_answers_like_a_fresh_one():
    fresh = []
    for argv in MIXED_ARGVS:
        cli.build_parser.cache_clear()
        fresh.append(_run_captured(argv))
    assert {code for code, _, _ in fresh} == {0, 1, 2}
    for _ in range(2):
        assert [_run_captured(argv) for argv in MIXED_ARGVS] == fresh


def test_shared_parser_is_thread_safe():
    argvs = [argv for argv, _ in GOLDEN_CASES] + JSON_COMMANDS
    serial = [cli.build_parser().parse_args(argv) for argv in argvs]
    results = [None] * 4
    start = threading.Barrier(len(results), timeout=30)

    def work(slot):
        start.wait()
        results[slot] = [cli.build_parser().parse_args(argv) for argv in argvs * 5]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial * 5] * len(results)
