"""Command-line front end over the whole library.

Every subcommand takes `--json` (exactly one machine-readable JSON object
on stdout) and `--quiet` (essential output only).  Exit codes: 0 success,
1 usage error, 2 domain error (bad but well-formed input, e.g. an
irregular prime in the case1 pipeline, a conductor above MAX_CONDUCTOR, a
bound above MAX_BOUND, a Bernoulli index above MAX_INDEX, a `disc` field
degree above MAX_DISC_PHI, an `elt inv` whose resultant and output work
exceed MAX_INVERSE_WORK, a norm, unit test or unit decomposition whose
resultant work exceeds MAX_NORM_WORK, both estimates from the same resultant
pair and checked before any resultant or product, or a `factor` whose
factors and verifying product exceed MAX_FACTOR_WORK, checked before any
factor is built), 3
internal invariant violation (a verified postcondition failed; never
caused by user input).

Rationals never appear as floats: scalar values serialize as strings like
`-691/2730`, elements as `n:[c0,c1,...]`, polynomials as `[c0,c1,...]`.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, reduce

from .regularity import MAX_INDEX, bernoulli, irregular_pairs, is_regular_prime
from .errors import InternalInvariantError
from .fermat import case_i_search, check_regular_and_search
from .ntheory import is_prime, totient
from .polys import cyclotomic_poly, discr_prime_pow, discriminant, format_scalar, poly_to_str
from .ring import CycElt, decompose_unit, factor_sum_pth_powers, parse_literal

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
    s = poly_to_str(f)
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
    s = format_scalar(bernoulli(args.m))
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
    result = {
        "upto": args.upto,
        "irregular": irregular,
        "verdicts": [
            {"p": r.p, "regular": r.regular, "pairs": [list(pair) for pair in r.pairs]}
            for r in verdicts
        ],
    }
    return {"upto": args.upto}, result, lines, summary


def _cmd_pairs(args):
    pairs = irregular_pairs(args.p)
    line = _fmt_pairs(pairs)
    return {"p": args.p}, {"pairs": [list(pair) for pair in pairs]}, [line], line


def _cmd_elt(args):
    op = args.op
    binary = op in ("add", "mul")
    if binary and args.b is None:
        raise _UsageError(f"elt {op} takes two elements")
    if not binary and args.b is not None:
        raise _UsageError(f"elt {op} takes one element")
    a = CycElt(*args.a)
    b = None if args.b is None else CycElt(*args.b)
    inputs = {"op": op, "a": str(a)}
    if b is not None:
        inputs["b"] = str(b)
    if op == "add":
        value = a + b
    elif op == "mul":
        value = a * b
    elif op == "inv":
        value = a.inverse()
    elif op == "conj":
        value = a.conj()
    elif op == "norm":
        s = format_scalar(a.norm())
        return inputs, {"value": s}, [s], s
    elif op == "trace":
        s = format_scalar(a.trace())
        return inputs, {"value": s}, [s], s
    elif op == "is-real":
        flag = a.is_real()
        return inputs, {"value": flag}, [_fmt_bool(flag)], _fmt_bool(flag)
    else:  # is-unit
        flag = a.is_unit()
        return inputs, {"value": flag}, [_fmt_bool(flag)], _fmt_bool(flag)
    s = str(value)
    return inputs, {"element": s}, [s], s


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
    factors = factor_sum_pth_powers(args.x, args.y, args.p)
    product = reduce(lambda u, v: u * v, factors)
    expected = args.x**args.p + args.y**args.p
    if product.as_scalar() != expected:
        raise InternalInvariantError("factor product does not equal x^p + y^p")
    lines = [str(f) for f in factors]
    summary = f"product={expected} ok"
    lines.append(summary)
    result = {
        "factors": [str(f) for f in factors],
        "product": str(expected),
        "product_ok": True,
    }
    return {"p": args.p, "x": args.x, "y": args.y}, result, lines, summary


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
    result = {
        "p": report.p,
        "bound": report.bound,
        "filtered": use_filter,
        "regularity_checked": not args.skip_regularity,
        "candidates_examined": report.candidates_examined,
        "pruned_by_filter": report.pruned_by_filter,
        "solutions": [list(t) for t in report.solutions],
    }
    inputs = {
        "p": args.p,
        "bound": args.bound,
        "no_filter": args.no_filter,
        "skip_regularity": args.skip_regularity,
    }
    return inputs, result, lines, summary


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `cyclo` parser, built on the first call and shared after it
    (parsing does not change it)."""
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object on stdout")
    common.add_argument("--quiet", action="store_true", help="essential output only")

    parser = _Parser(prog="cyclo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("poly", parents=[common], help="n-th cyclotomic polynomial")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("disc", parents=[common], help="prime-power field discriminant, formula vs oracle")
    p.add_argument("p", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_disc)

    p = sub.add_parser("bernoulli", parents=[common], help="exact Bernoulli number B_m")
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_bernoulli)

    p = sub.add_parser("regular", parents=[common], help="regularity verdicts for primes up to a bound")
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(handler=_cmd_regular)

    p = sub.add_parser("pairs", parents=[common], help="irregular pairs of an odd prime >= 5")
    p.add_argument("p", type=int)
    p.set_defaults(handler=_cmd_pairs)

    p = sub.add_parser("elt", parents=[common], help="element arithmetic on n:[c0,c1,...] literals")
    p.add_argument("op", choices=["add", "mul", "inv", "norm", "trace", "conj", "is-real", "is-unit"])
    p.add_argument("a", type=parse_literal)
    p.add_argument("b", type=parse_literal, nargs="?", default=None)
    p.set_defaults(handler=_cmd_elt)

    p = sub.add_parser("unit-decompose", parents=[common], help="split a unit as real * zeta^m")
    p.add_argument("p", type=int)
    p.add_argument("elt", type=parse_literal)
    p.set_defaults(handler=_cmd_unit_decompose)

    p = sub.add_parser("factor", parents=[common], help="factor x^p + y^p into (x + zeta^i y)")
    p.add_argument("p", type=int)
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("case1", parents=[common], help="exhaustive Case I search up to a bound")
    p.add_argument("p", type=int)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--no-filter", action="store_true")
    p.add_argument("--skip-regularity", action="store_true")
    p.set_defaults(handler=_cmd_case1)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
