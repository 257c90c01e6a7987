"""Command-line front end.

Subcommands: ``bounds`` (certified enclosure of a double integral), ``chain``
(both five-term inequality chains), ``converge`` (gap decay over a dyadic
sweep of the partition size), ``verify`` (the random-instance property
suite). Output formats: human, json, csv; json and csv are byte-stable for
identical invocations.

Exit codes: 0 ok, 1 property violation, 2 usage or expression parse error,
3 convexity gate or positivity rejection, 4 evaluation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

from .catalog import NAMED_FUNCTIONS, resolve_function
from .convexity import GATE_SAMPLES, GATE_TOL, ConvexityRejection, check_coordinate_convexity
from .errors import DomainError, EvaluationError, PreconditionError
from .expr import ParseError
from .oracle import DEFAULT_GRID, reference_integral_2d
from .rect import Rect, discrete_enclosure, five_term_chains
from .schemes import NestedDiscrete, Quadrature
from .verify import run_verification

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_GATE = 3
EXIT_EVAL = 4

#: How ``main`` reports a failure: the first entry whose class matches gives
#: the exit code and the stderr prefix, so a subclass comes before its base.
FAILURES = (
    (ParseError, EXIT_USAGE, "expression error"),
    (DomainError, EXIT_USAGE, "error"),
    (ConvexityRejection, EXIT_GATE, "convexity gate"),
    (PreconditionError, EXIT_GATE, "precondition"),
    (EvaluationError, EXIT_EVAL, "evaluation error"),
)


class _Parser(argparse.ArgumentParser):
    """Takes negative numbers in exponent notation, such as ``-1.5e-05``, for
    values; argparse's own pattern knows only ``-1`` and ``-1.5``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _f17(v: float) -> str:
    return format(v, ".17g")


def _add_common(p: argparse.ArgumentParser, needs_fn: bool = True) -> None:
    if needs_fn:
        p.add_argument("--f", "--function", dest="function", required=True,
                       metavar="EXPR",
                       help="expression in x and y, or a named entry: "
                            + ", ".join(NAMED_FUNCTIONS))
        p.add_argument("--rect", nargs=4, type=float, required=True,
                       metavar=("A", "B", "C", "D"),
                       help="integration rectangle [A,B] x [C,D]")
        p.add_argument("--skip-convexity-check", action="store_true",
                       help="bypass the sampling convexity gate")
        p.add_argument("--gate-samples", type=int, default=GATE_SAMPLES)
        p.add_argument("--gate-tol", type=float, default=GATE_TOL)
        p.add_argument("--m", type=int, default=NestedDiscrete.m,
                       help="inner subintervals per partition cell "
                            "(chain: --scheme nested only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", choices=("human", "json", "csv"), default="human")


def _add_scheme(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=("nested", "quadrature"), default="nested",
                   help="how 1-D integrals in chain terms are resolved; 'nested' "
                        "keeps every ordering certified, 'quadrature' is diagnostic")
    p.add_argument("--quad-tol", type=float, default=Quadrature.tol)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="hh-bounds",
        description="Certified enclosures and inequality chains for double "
                    "integrals of coordinate-convex functions. Note: unary "
                    "minus binds looser than '^', so -x^2 means -(x^2).")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="certified lower/upper enclosure")
    _add_common(b)
    b.add_argument("--n", type=int, default=4, help="partition cells per axis")
    b.add_argument("--grid", type=int, default=DEFAULT_GRID, help="oracle grid")
    b.set_defaults(handler=cmd_bounds)

    c = sub.add_parser("chain", help="five-term inequality chains")
    _add_common(c)
    _add_scheme(c)
    c.add_argument("--grid", type=int, default=DEFAULT_GRID,
                   help="oracle grid of the mean term")
    c.set_defaults(handler=cmd_chain)

    g = sub.add_parser("converge", help="enclosure gap decay over a dyadic n sweep")
    _add_common(g)
    g.add_argument("--n", required=True, metavar="LO:HI",
                   help="dyadic sweep LO, 2*LO, ... up to HI (or a single n)")
    g.set_defaults(handler=cmd_converge)

    v = sub.add_parser("verify", help="random-instance property suite")
    _add_common(v, needs_fn=False)
    v.add_argument("--cases", type=int, default=200)
    v.set_defaults(handler=cmd_verify)
    return p


def _prepare(args) -> tuple:
    rect = Rect(*args.rect)
    fn = resolve_function(args.function, rect)
    if not args.skip_convexity_check:
        rep = check_coordinate_convexity(fn, rect, args.gate_samples,
                                         args.gate_tol, args.seed)
        if not rep.passed:
            raise ConvexityRejection(rep, f"function {args.function!r}")
    return rect, fn


def _scheme(args):
    if args.scheme == "nested":
        return NestedDiscrete(args.m)
    return Quadrature(args.quad_tol)


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _print_csv(header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    sys.stdout.write(buf.getvalue())


def cmd_bounds(args) -> int:
    rect, fn = _prepare(args)
    bp = discrete_enclosure(fn, rect, args.n, args.m)
    oracle = reference_integral_2d(fn, rect, args.grid)
    payload = {
        "function": args.function,
        "rect": list(args.rect),
        "n": args.n,
        "m": args.m,
        "lower": bp.lower,
        "upper": bp.upper,
        "gap": bp.gap,
        "oracle": oracle.value,
        "oracle_error": oracle.error_estimate,
    }
    if args.output == "json":
        _print_json(payload)
    elif args.output == "csv":
        header = list(payload)
        row = [payload["function"], " ".join(_f17(v) for v in args.rect),
               args.n, args.m] + [_f17(payload[k]) for k in header[4:]]
        _print_csv(header, [row])
    else:
        print(f"function: {args.function}")
        print(f"rect: [{args.rect[0]:g}, {args.rect[1]:g}] x [{args.rect[2]:g}, {args.rect[3]:g}]")
        print(f"n={args.n} m={args.m} evaluations={bp.evals}")
        print(f"lower  = {_f17(bp.lower)}")
        print(f"upper  = {_f17(bp.upper)}")
        print(f"gap    = {_f17(bp.gap)}")
        print(f"oracle = {_f17(oracle.value)} (error estimate {_f17(oracle.error_estimate)})")
    return EXIT_OK


def _chain_payload(report) -> dict:
    return {
        "terms": [{"name": n, "value": v} for n, v in report.terms],
        "orderings": [{"i": o.i, "j": o.j, "satisfied": o.satisfied, "slack": o.slack}
                      for o in report.orderings],
        "tolerance": report.tolerance,
    }


def _chain_human(label: str, report) -> None:
    print(f"{label} chain (tolerance {_f17(report.tolerance)}):")
    for name, value in report.terms:
        print(f"  {name:<22} {_f17(value)}")
    for o in report.orderings:
        verdict = "ok" if o.satisfied else "VIOLATED"
        print(f"  term{o.i} <= term{o.j}: {verdict} (slack {_f17(o.slack)})")


def cmd_chain(args) -> int:
    rect, fn = _prepare(args)
    scheme = _scheme(args)  # a bad --m or --quad-tol is reported before a bad --grid
    integral = reference_integral_2d(fn, rect, args.grid).value
    classic, refined = five_term_chains(fn, rect, scheme, integral=integral)
    scheme_label = (f"nested:{args.m}" if args.scheme == "nested"
                    else f"quadrature:{args.quad_tol:g} (diagnostic, not certified)")
    if args.output == "json":
        _print_json({
            "function": args.function,
            "rect": list(args.rect),
            "scheme": scheme_label,
            "classic": _chain_payload(classic),
            "refined": _chain_payload(refined),
        })
    elif args.output == "csv":
        rows = []
        for label, rep in (("classic", classic), ("refined", refined)):
            for name, value in rep.terms:
                rows.append([label, name, _f17(value)])
        _print_csv(["chain", "term", "value"], rows)
    else:
        print(f"function: {args.function}   scheme: {scheme_label}")
        _chain_human("classic", classic)
        _chain_human("refined", refined)
        ok = classic.all_satisfied and refined.all_satisfied
        print("all orderings satisfied" if ok else "ORDERING VIOLATIONS PRESENT")
    return EXIT_OK


def _parse_n_range(text: str) -> list[int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise DomainError(f"--n expects an integer or LO:HI, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise DomainError(f"invalid n range {text!r}")
    ns = []
    n = lo
    while n <= hi:
        ns.append(n)
        n *= 2
    return ns


def cmd_converge(args) -> int:
    rect, fn = _prepare(args)
    ns = _parse_n_range(args.n)
    rows = []
    prev_gap = None
    for n in ns:
        bp = discrete_enclosure(fn, rect, n, args.m)
        ratio = bp.gap / prev_gap if prev_gap else None
        rows.append({"n": n, "lower": bp.lower, "upper": bp.upper,
                     "gap": bp.gap, "ratio": ratio})
        prev_gap = bp.gap
    if args.output == "json":
        _print_json({"function": args.function, "rect": list(args.rect),
                     "m": args.m, "rows": rows})
    elif args.output == "csv":
        out = [[r["n"], _f17(r["lower"]), _f17(r["upper"]), _f17(r["gap"]),
                "" if r["ratio"] is None else _f17(r["ratio"])] for r in rows]
        _print_csv(["n", "lower", "upper", "gap", "ratio"], out)
    else:
        print(f"function: {args.function}   m={args.m}")
        print(f"{'n':>6} {'lower':>24} {'upper':>24} {'gap':>24} {'ratio':>10}")
        for r in rows:
            ratio = "" if r["ratio"] is None else f"{r['ratio']:.4f}"
            print(f"{r['n']:>6} {_f17(r['lower']):>24} {_f17(r['upper']):>24} "
                  f"{_f17(r['gap']):>24} {ratio:>10}")
    return EXIT_OK


def cmd_verify(args) -> int:
    summary = run_verification(args.cases, args.seed)
    payload = {
        "command": "verify",
        "cases": summary.cases,
        "seed": summary.seed,
        "all_pass": summary.all_pass,
        "equality_cases": summary.equality_cases,
        "skipped_oracle_checks": summary.skipped_oracle_checks,
        "properties": [
            {
                "name": p.name,
                "checked": p.checked,
                "violations": p.violations,
                "worst_slack": None if math.isinf(p.worst_slack) else p.worst_slack,
                "first_failure": p.first_failure,
            }
            for p in summary.properties
        ],
    }
    if args.output == "json":
        _print_json(payload)
    elif args.output == "csv":
        rows = [[p.name, p.checked, p.violations,
                 "" if math.isinf(p.worst_slack) else _f17(p.worst_slack)]
                for p in summary.properties]
        _print_csv(["property", "checked", "violations", "worst_slack"], rows)
    else:
        print(f"verify: cases={summary.cases} seed={summary.seed}")
        for p in summary.properties:
            ws = "n/a" if math.isinf(p.worst_slack) else _f17(p.worst_slack)
            print(f"  {p.name:<24} checked={p.checked:<5} violations={p.violations:<3} "
                  f"worst_slack={ws}")
            if p.first_failure:
                print(f"    first failure: {p.first_failure}")
        print(f"equality cases (n=1 gap ~ 0): {summary.equality_cases}")
        print(f"oracle-too-coarse skips: {summary.skipped_oracle_checks}")
        print("ALL PROPERTIES PASS" if summary.all_pass else "PROPERTY VIOLATIONS FOUND")
    return EXIT_OK if summary.all_pass else EXIT_VIOLATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in FAILURES
                            if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
