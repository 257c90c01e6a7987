"""Command-line front end.

Subcommands: ``bounds`` (certified enclosure of a double integral), ``chain``
(both five-term inequality chains), ``converge`` (gap decay over a dyadic
sweep of the partition size), ``verify`` (the random-instance property
suite). Output formats: human, json, csv; json and csv are byte-stable for
identical invocations. Each command states its result once in all three
forms, and ``_emit`` is the one place that reads ``--output`` and writes a
command's output. The convexity gate runs with its library defaults.

Exit codes: 0 ok, 1 property violation, 2 usage, parse or size error (past
``bounds1d.MAX_POINTS``, or a rectangle too small to weight), 3 gate or
positivity rejection, 4 evaluation error.
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
from .convexity import ConvexityRejection, check_coordinate_convexity
from .errors import DomainError, EvaluationError, PreconditionError
from .expr import ParseError
from .oracle import DEFAULT_GRID, reference_integral_2d
from .rect import Rect, discrete_enclosure, enclosure_points, five_term_chains
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
    """Takes any argument that starts with a single ``-`` and is no option
    for a value: a negative number in exponent notation, such as
    ``-1.5e-05``, and an expression such as ``-x+y^2``. argparse's own
    pattern knows only ``-1`` and ``-1.5``. An option, such as ``-h``, is
    matched before this pattern is tried, and no option is added after it
    is set but those starting with ``--``, which it does not match."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-]")


def _f17(v: float | None) -> str:
    """``v`` to 17 significant digits, and None as the empty string."""
    return "" if v is None else format(v, ".17g")


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
                       help="bypass the convexity gate")
        p.add_argument("--m", type=int, default=NestedDiscrete.m,
                       help="inner subintervals per partition cell "
                            "(chain: --scheme nested only)")
    p.add_argument("--output", choices=("human", "json", "csv"), default="human")


def _add_scheme(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=("nested", "quadrature"), default="nested",
                   help="how 1-D integrals in chain terms are resolved; 'nested' "
                        "uses one-sided rules, 'quadrature' is diagnostic")
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
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(handler=cmd_verify)
    return p


def _prepare(args) -> tuple:
    rect = Rect(*args.rect)
    fn = resolve_function(args.function, rect)
    if not args.skip_convexity_check:
        rep = check_coordinate_convexity(fn, rect)
        if not rep.passed:
            raise ConvexityRejection(rep, f"function {args.function!r}")
    return rect, fn


def _emit(output: str, payload, header, rows, lines) -> None:
    """Write a command's result in the ``--output`` form, with one write:
    ``payload`` as indented JSON, ``header`` and ``rows`` as CSV, or
    ``lines`` as text. Each handler states its result in all three forms."""
    if output == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif output == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        text = buf.getvalue()
    else:
        text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)


def cmd_bounds(args) -> int:
    rect, fn = _prepare(args)
    bp = discrete_enclosure(fn, rect, args.n, args.m)
    oracle = reference_integral_2d(fn, rect, args.grid)
    values = {"lower": bp.lower, "upper": bp.upper, "gap": bp.gap,
              "oracle": oracle.value, "oracle_error": oracle.error_estimate}
    payload = {"function": args.function, "rect": list(args.rect), "n": args.n, "m": args.m,
               **values}
    a, b, c, d = args.rect
    _emit(args.output, payload, list(payload),
          [[args.function, " ".join(map(_f17, args.rect)), args.n, args.m,
            *map(_f17, values.values())]],
          [f"function: {args.function}",
           f"rect: [{a:g}, {b:g}] x [{c:g}, {d:g}]",
           f"n={args.n} m={args.m} evaluations={bp.evals}",
           *(f"{k:<6} = {_f17(values[k])}" for k in ("lower", "upper", "gap")),
           f"oracle = {_f17(oracle.value)} (error estimate {_f17(oracle.error_estimate)})"])
    return EXIT_OK


def _chain_payload(report) -> dict:
    return {
        "terms": [{"name": n, "value": v} for n, v in report.terms],
        "orderings": [{"i": o.i, "j": o.j, "satisfied": o.satisfied, "slack": o.slack}
                      for o in report.orderings],
        "tolerance": report.tolerance,
    }


def _chain_lines(label: str, report) -> list[str]:
    return [f"{label} chain (tolerance {_f17(report.tolerance)}):",
            *(f"  {name:<22} {_f17(value)}" for name, value in report.terms),
            *(f"  term{o.i} <= term{o.j}: {'ok' if o.satisfied else 'VIOLATED'} "
              f"(slack {_f17(o.slack)})" for o in report.orderings)]


def cmd_chain(args) -> int:
    rect, fn = _prepare(args)
    # a bad --m or --quad-tol is reported before a bad --grid
    scheme = NestedDiscrete(args.m) if args.scheme == "nested" else Quadrature(args.quad_tol)
    integral = reference_integral_2d(fn, rect, args.grid).value
    chains = dict(zip(("classic", "refined"),
                      five_term_chains(fn, rect, scheme, integral=integral)))
    scheme_label = (f"nested:{args.m}" if args.scheme == "nested"
                    else f"quadrature:{args.quad_tol:g} (diagnostic, not certified)")
    ok = all(rep.all_satisfied for rep in chains.values())
    _emit(args.output,
          {"function": args.function, "rect": list(args.rect), "scheme": scheme_label,
           **{label: _chain_payload(rep) for label, rep in chains.items()}},
          ["chain", "term", "value"],
          [[label, name, _f17(value)] for label, rep in chains.items()
           for name, value in rep.terms],
          [f"function: {args.function}   scheme: {scheme_label}",
           *(line for label, rep in chains.items() for line in _chain_lines(label, rep)),
           "all orderings satisfied" if ok else "ORDERING VIOLATIONS PRESENT"])
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
    enclosure_points(ns[-1], args.m)  # a sweep past the budget fails before its first row
    rows, prev_gap = [], None
    lines = [f"function: {args.function}   m={args.m}",
             f"{'n':>6} {'lower':>24} {'upper':>24} {'gap':>24} {'ratio':>10}"]
    for n in ns:
        bp = discrete_enclosure(fn, rect, n, args.m)
        ratio = bp.gap / prev_gap if prev_gap else None
        rows.append({"n": n, "lower": bp.lower, "upper": bp.upper, "gap": bp.gap, "ratio": ratio})
        lines.append(f"{n:>6} {_f17(bp.lower):>24} {_f17(bp.upper):>24} {_f17(bp.gap):>24} "
                     f"{'' if ratio is None else format(ratio, '.4f'):>10}")
        prev_gap = bp.gap
    _emit(args.output,
          {"function": args.function, "rect": list(args.rect), "m": args.m, "rows": rows},
          list(rows[0]), [[r["n"], *map(_f17, list(r.values())[1:])] for r in rows], lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    summary = run_verification(args.cases, args.seed)
    props = [(p, None if math.isinf(p.worst_slack) else p.worst_slack)
             for p in summary.properties]
    lines = [f"verify: cases={summary.cases} seed={summary.seed}"]
    for p, worst in props:
        lines.append(f"  {p.name:<24} checked={p.checked:<5} violations={p.violations:<3} "
                     f"worst_slack={_f17(worst) or 'n/a'}")
        if p.first_failure:
            lines.append(f"    first failure: {p.first_failure}")
    lines += [f"equality cases (n=1 gap ~ 0): {summary.equality_cases}",
              f"oracle-too-coarse skips: {summary.skipped_oracle_checks}",
              "ALL PROPERTIES PASS" if summary.all_pass else "PROPERTY VIOLATIONS FOUND"]
    payload = {
        "command": "verify",
        "cases": summary.cases,
        "seed": summary.seed,
        "all_pass": summary.all_pass,
        "equality_cases": summary.equality_cases,
        "skipped_oracle_checks": summary.skipped_oracle_checks,
        "properties": [{"name": p.name, "checked": p.checked, "violations": p.violations,
                        "worst_slack": worst, "first_failure": p.first_failure}
                       for p, worst in props],
    }
    _emit(args.output, payload, ["property", "checked", "violations", "worst_slack"],
          [[p.name, p.checked, p.violations, _f17(worst)] for p, worst in props], lines)
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
