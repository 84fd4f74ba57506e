"""Property test of the CLI exit-code contract over generated argv.

Arguments come from the CLI grammar with small bounds, mixed with
out-of-range, malformed and oversized values: every run must exit 0, 1 or
2 without an exception escaping `run`, and `--json` on success must print
exactly one JSON object.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cyclo.cli import run  # noqa: E402

HUGE = [10**9, 2**127 - 1, 10**30]
JUNK = ["", "x", "-1", "1.5", "2**3", "[1]", "5:[1,", "5:[1/0]", "--bound"]


def ints(lo, hi):
    return st.one_of(st.integers(lo, hi), st.sampled_from(HUGE)).map(str)


def tokens(lo, hi):
    return st.one_of(ints(lo, hi), st.sampled_from(JUNK))


scalar = st.one_of(
    st.integers(-4, 4).map(str),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-4, 4), st.integers(1, 5)),
)
literal = st.one_of(
    st.builds(
        lambda n, cs: f"{n}:[{','.join(cs)}]",
        st.one_of(st.integers(-2, 24), st.sampled_from([100003, 10**30])),
        st.lists(scalar, max_size=6),
    ),
    st.sampled_from(JUNK),
)

commands = st.one_of(
    st.tuples(st.just("poly"), tokens(-2, 60)),
    st.tuples(st.just("disc"), tokens(-3, 12), tokens(-1, 2)),
    st.tuples(st.just("bernoulli"), tokens(-3, 80)),
    st.tuples(st.just("regular"), st.just("--upto"), tokens(-1, 60)),
    st.tuples(st.just("pairs"), tokens(-3, 80)),
    st.tuples(
        st.just("elt"),
        st.sampled_from(["add", "mul", "inv", "norm", "trace", "conj", "is-real", "is-unit", "nope"]),
        literal,
    ),
    st.tuples(st.just("elt"), st.sampled_from(["add", "mul", "norm"]), literal, literal),
    st.tuples(st.just("unit-decompose"), tokens(-2, 13), literal),
    st.tuples(st.just("factor"), tokens(-2, 13), tokens(-9, 9), tokens(-9, 9)),
    st.tuples(
        st.just("case1"),
        tokens(-2, 40),
        st.just("--bound"),
        st.one_of(ints(-2, 25), st.sampled_from(["10001", "100000000"])),
    ),
).map(list)

argvs = st.builds(
    lambda cmd, flags: cmd + flags,
    commands,
    st.lists(st.sampled_from(["--json", "--quiet", "--no-filter", "--skip-regularity"]), max_size=2, unique=True),
)


@settings(max_examples=300, deadline=None)
@given(argvs)
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == "" and err.getvalue() != ""
    elif "--json" in argv:
        text = out.getvalue()
        assert text.endswith("\n") and text.count("\n") == 1
        assert isinstance(json.loads(text), dict)
