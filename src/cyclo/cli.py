"""Command-line front end over the whole library.

Every subcommand takes `--json` (exactly one machine-readable JSON object
on stdout) and `--quiet` (essential output only).  Exit codes: 0 success,
1 usage error, 2 domain error (bad but well-formed input, e.g. an irregular
prime in the case1 pipeline, or an input past a limit: MAX_CONDUCTOR (polys),
MAX_BOUND (fermat), MAX_INDEX (regularity), MAX_DISC_PHI (here), or a work
estimate above a `ring` cap, MAX_INVERSE_WORK, MAX_NORM_WORK (for the route
the norm takes), MAX_MUL_WORK or MAX_FACTOR_WORK, each checked before the
work it bounds; `factor` checks its own limit, then the norm's for
N(x + zeta y)), 3 internal invariant violation (a verified postcondition
failed, such as a `factor` coordinate off its closed form; never caused by
user input).

Rationals never appear as floats: scalar values serialize as strings like
`-691/2730`, elements as `n:[c0,c1,...]`, polynomials as `[c0,c1,...]`.

One table, `_COMMANDS`, defines the grammar.  An argv of the plain shape
(exact command name, its positionals, then exact option names, none twice)
is read straight from it; argparse is built from it only for every other
argv: help, usage errors and the other spellings argparse accepts.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from dataclasses import asdict
from functools import cache, partial

from .regularity import MAX_INDEX, bernoulli, irregular_pairs, is_regular_prime
from .errors import InternalInvariantError
from .fermat import case_i_search, check_regular_and_search
from .ntheory import is_prime, totient
from .polys import cyclotomic_poly, discr_prime_pow, discriminant
from .ring import CycElt, _check_factor_work, _check_mul_work, decompose_unit, factor_sum_pth_powers
from .ring import parse_literal

__all__ = ["main", "run", "to_json"]

# Largest field degree phi(p^k) that `disc` checks against the resultant
# oracle.  On a 2-vCPU Xeon VM with Python 3.11 the slowest accepted case,
# p^k = 7^4 (phi 2058), took 1.6 s and 3^7 (phi 1458) 1.6 s; 5^5 (phi 2500)
# took 5.8 s and 7^5 (phi 14406) did not finish within 60 s.
MAX_DISC_PHI = 2400

def to_json(envelope: dict) -> str:
    """Canonical JSON form; re-serializing a parse of this is byte-identical."""
    return json.dumps(envelope, sort_keys=True)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_bool(b):
    return "true" if b else "false"


def _fmt_pairs(pairs):
    return " ".join(f"({p},{k})" for p, k in pairs) if pairs else "none"


# -- handlers: each returns (inputs, result, lines, quiet_line) -------------


def _cmd_poly(args):
    f = cyclotomic_poly(args.n)
    s = str(f)
    return {"n": args.n}, {"degree": f.degree, "coefficients": s}, [s], s


def _cmd_disc(args):
    formula = discr_prime_pow(args.p, args.k)
    if totient(args.p**args.k) > MAX_DISC_PHI:
        raise ValueError(f"the discriminant oracle takes phi(p^k) <= {MAX_DISC_PHI}")
    oracle = discriminant(cyclotomic_poly(args.p**args.k))
    agree = formula == oracle
    line = f"formula={formula} oracle={oracle} agree={_fmt_bool(agree)}"
    result = {"formula": str(formula), "oracle": str(oracle), "agree": agree}
    return {"p": args.p, "k": args.k}, result, [line], line


def _cmd_bernoulli(args):
    s = str(bernoulli(args.m))
    return {"m": args.m}, {"value": s}, [f"B_{args.m} = {s}"], s


def _cmd_regular(args):
    if args.upto < 2:
        raise ValueError("--upto must be >= 2")
    if args.upto - 3 > MAX_INDEX:
        raise ValueError(f"--upto must be <= {MAX_INDEX + 3} (the criterion reads B_(p-3))")
    verdicts = [is_regular_prime(p) for p in range(2, args.upto + 1) if is_prime(p)]
    irregular = [r.p for r in verdicts if not r.regular]
    lines = [
        f"{r.p} {'regular' if r.regular else 'irregular ' + _fmt_pairs(r.pairs)}"
        for r in verdicts
    ]
    summary = "irregular: " + (" ".join(str(p) for p in irregular) if irregular else "none")
    lines.append(summary)
    result = {"upto": args.upto, "irregular": irregular, "verdicts": list(map(asdict, verdicts))}
    return {"upto": args.upto}, result, lines, summary


def _cmd_pairs(args):
    pairs = irregular_pairs(args.p)
    line = _fmt_pairs(pairs)
    return {"p": args.p}, {"pairs": pairs}, [line], line


# elt op -> (its function of the elements, how many elements it takes)
_ELT_OPS = {
    "add": (operator.add, 2),
    "mul": (lambda a, b: _check_mul_work(a, b) * b, 2),
    "inv": (CycElt.inverse, 1),
    "norm": (CycElt.norm, 1),
    "trace": (CycElt.trace, 1),
    "conj": (CycElt.conj, 1),
    "is-real": (CycElt.is_real, 1),
    "is-unit": (CycElt.is_unit, 1),
}


def _cmd_elt(args):
    """The result is keyed by the op's return type: `element` for an element,
    `value` for a scalar (as text) or a flag."""
    op, (fn, arity) = args.op, _ELT_OPS[args.op]
    if (args.b is not None) + 1 != arity:
        raise _UsageError(f"elt {op} takes {'two elements' if arity == 2 else 'one element'}")
    elts = [CycElt(*literal) for literal in (args.a, args.b)[:arity]]
    inputs = {"op": op, **dict(zip("ab", map(str, elts)))}
    value = fn(*elts)
    s = _fmt_bool(value) if isinstance(value, bool) else str(value)
    key = "element" if isinstance(value, CycElt) else "value"
    return inputs, {key: value if isinstance(value, bool) else s}, [s], s


def _cmd_unit_decompose(args):
    u = CycElt(*args.elt)
    if args.p != u.n:
        raise ValueError("conductor mismatch")
    dec = decompose_unit(u)
    line = f"x={dec.x} m={dec.m}"
    return (
        {"p": args.p, "u": str(u)},
        {"x": str(dec.x), "m": dec.m},
        [line],
        line,
    )


def _cmd_factor(args):
    """The factors of x^p + y^p, checked with no product of them: each against
    its closed form, then (x + y) * N(x + zeta y), as factors 1 .. p-1 are the
    conjugates of x + zeta y.  Both limits are checked before any factor."""
    p, x, y = args.p, args.x, args.y
    norm = CycElt(_check_factor_work(x, y, p), (x, y)).norm()
    factors = factor_sum_pth_powers(x, y, p)
    if len(factors) != p:
        raise InternalInvariantError(f"{len(factors)} factors, not {p}")
    zeros = (0,) * (p - 2)
    ends = {0: (x + y, *zeros), p - 1: (x - y, *(-y,) * (p - 2))}  # zeta^(p-1) = -1 - ... - zeta^(p-2)
    for i, f in enumerate(factors):
        if f.coeffs != (ends.get(i) or (x, *zeros[: i - 1], y, *zeros[i:])):
            raise InternalInvariantError(f"factor {i} is not x + zeta^{i} y")
    value = x**p + y**p
    if (x + y) * norm != value:
        raise InternalInvariantError("(x + y) * N(x + zeta y) is not x^p + y^p")
    strs, digits = [str(f) for f in factors], str(value)
    result = {"factors": strs, "product": digits, "product_ok": True}
    return {"p": p, "x": x, "y": y}, result, [*strs, f"product={digits} ok"], f"product={digits} ok"


def _cmd_case1(args):
    use_filter = not args.no_filter
    if args.skip_regularity:
        report = case_i_search(args.p, args.bound, use_filter=use_filter)
    else:
        report = check_regular_and_search(args.p, args.bound, use_filter=use_filter)
    summary = (
        f"p={report.p} bound={report.bound} candidates={report.candidates_examined} "
        f"pruned={report.pruned_by_filter} solutions={len(report.solutions)}"
    )
    lines = [summary] + [f"solution: {x}^p + {y}^p = {z}^p" for x, y, z in report.solutions]
    result = {**asdict(report), "filtered": use_filter, "regularity_checked": not args.skip_regularity}
    inputs = {
        "p": args.p,
        "bound": args.bound,
        "no_filter": args.no_filter,
        "skip_regularity": args.skip_regularity,
    }
    return inputs, result, lines, summary


_INT, _LITERAL, _FLAG = {"type": int}, {"type": parse_literal}, {"action": "store_true"}

# command -> (its handler, its help, its arguments as (name, `add_argument` options))
_COMMANDS = {
    "poly": (_cmd_poly, "n-th cyclotomic polynomial", [("n", _INT)]),
    "disc": (_cmd_disc, "prime-power field discriminant, formula vs oracle", [("p", _INT), ("k", _INT)]),
    "bernoulli": (_cmd_bernoulli, "exact Bernoulli number B_m", [("m", _INT)]),
    "regular": (_cmd_regular, "regularity verdicts for primes up to a bound", [("--upto", {**_INT, "required": True})]),
    "pairs": (_cmd_pairs, "irregular pairs of an odd prime >= 5", [("p", _INT)]),
    "elt": (
        _cmd_elt,
        "element arithmetic on n:[c0,c1,...] literals",
        [("op", {"choices": _ELT_OPS}), ("a", _LITERAL), ("b", {**_LITERAL, "nargs": "?"})],
    ),
    "unit-decompose": (_cmd_unit_decompose, "split a unit as real * zeta^m", [("p", _INT), ("elt", _LITERAL)]),
    "factor": (_cmd_factor, "factor x^p + y^p into (x + zeta^i y)", [("p", _INT), ("x", _INT), ("y", _INT)]),
    "case1": (
        _cmd_case1,
        "exhaustive Case I search up to a bound",
        [("p", _INT), ("--bound", {**_INT, "required": True}), ("--no-filter", _FLAG), ("--skip-regularity", _FLAG)],
    ),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `cyclo` parser, built on the first call and shared after it
    (parsing does not change it)."""
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object on stdout")
    common.add_argument("--quiet", action="store_true", help="essential output only")

    column = partial(argparse.HelpFormatter, max_help_position=18)  # the help column 3.10-3.12 pick; 3.13 widens it
    parser = _Parser(prog="cyclo", description=__doc__.splitlines()[0], formatter_class=column)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, (handler, summary, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=summary)
        for argument, options in arguments:
            p.add_argument(argument, **options)
        p.set_defaults(handler=handler)

    return parser


def _read(argv):
    """The Namespace `build_parser().parse_args(argv)` makes, read straight
    from `_COMMANDS` when argv is an exact command name, its positionals,
    then exact option names, each at most once, with one value not beginning
    with `-` after --upto and --bound.  Any other argv, or a failed `type` or
    `choices` check, gives None, and argparse reads it."""
    try:
        handler, _, arguments = _COMMANDS[argv[0]]
        values = {"command": argv[0], "handler": handler}
        options = {"--json": _FLAG, "--quiet": _FLAG}
        words = list(argv[1:])

        def take(dest, spec):
            if not words or words[0].startswith("-"):
                return False
            value = values[dest] = spec.get("type", str)(words.pop(0))
            if value not in spec.get("choices", (value,)):
                raise ValueError(value)
            return True

        for name, spec in arguments:
            if name.startswith("-"):
                options[name] = spec
            elif not take(name, spec):
                if spec.get("nargs") != "?":
                    return None
                values[name] = None
        while words:
            name = words.pop(0)
            spec = options.pop(name)  # a repeated or unknown option is a KeyError
            dest = name[2:].replace("-", "_")
            if "action" in spec:
                values[dest] = True
            elif not take(dest, spec):
                return None
        for name, spec in options.items():  # the options not given
            if "action" not in spec:
                return None
            values[name[2:].replace("-", "_")] = False
        return argparse.Namespace(**values)
    except Exception:  # argparse reports it, or raises it, as it always has
        return None


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    # Results such as discriminants run past Python's int-to-str digit limit;
    # it is lifted only after argv is parsed, so literals keep the default.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        inputs, result, lines, quiet_line = args.handler(args)
        if args.json:
            print(to_json({"command": args.command, "inputs": inputs, "result": result, "exact": True}))
        elif args.quiet:
            print(quiet_line)
        else:
            for line in lines:
                print(line)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digit_limit)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
