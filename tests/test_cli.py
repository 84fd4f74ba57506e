import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
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
        (["elt", "norm", "1009:[" + ",".join(["3", "-7"] * 504) + "]"], "norm work estimate exceeds"),
        (["factor", "99991", "1", "1"], "factor work estimate exceeds 200000000"),
        (["factor", "101", "9" * 4000, "1"], "factor work estimate exceeds 200000000"),
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
    ]
    start = time.monotonic()
    assert [run(argv) for argv in argvs] == [2] * len(argvs)
    assert time.monotonic() - start < 5
    capsys.readouterr()


def _seeded_literal(n, count, bound):
    rng = random.Random(7)
    return f"{n}:[" + ",".join(str(rng.randint(-bound, bound)) for _ in range(count)) + "]"


@pytest.mark.parametrize(
    "argv",
    [
        ["elt", "inv", "1409:[1,2]", "--quiet"],
        ["unit-decompose", "1409", "1409:[1,2,2,1]", "--quiet"],
        # (1 - zeta^704) / (1 - zeta): many rotations agree on long runs
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
    "argv",
    [
        # just inside ring.MAX_FACTOR_WORK: the slowest measured shape
        # (5.7 s), and the largest p with x = y = 1 (3.0 s)
        ["factor", "83", str(2**2048 - 1), str(2**2048 - 1), "--quiet"],
        ["factor", "1213", "1", "1", "--quiet"],
    ],
)
def test_factor_at_the_work_cap_ends_within_budget(capsys, argv):
    start = time.monotonic()
    assert run(argv) == 0
    assert time.monotonic() - start < 10
    out = capsys.readouterr().out
    assert out.startswith("product=") and out.endswith(" ok\n")


def test_norm_at_the_norm_cap_ends_within_budget(capsys):
    # just inside ring.MAX_NORM_WORK (0.93 of it): a block of d/8 small
    # coordinates at 1381, the slowest shape when the limit was set (6.9 s;
    # the block in +-5 sits at 0.99 of it and took 5.3 s)
    start = time.monotonic()
    assert run(["elt", "norm", _seeded_literal(1381, 172, 7), "--quiet"]) == 0
    assert time.monotonic() - start < 10
    assert capsys.readouterr().out.strip().lstrip("-").isdigit()


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
