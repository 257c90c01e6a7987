"""The benchmark's four workloads: seeded op streams and their checks.

A workload is an endless stream of rounds; a round is a fixed list of op
kinds (shuffled where the mix is large) with freshly drawn inputs. The
harness always runs whole rounds, so the mix of kinds in a run does not
depend on where the clock stopped.

Each op has a ``call`` (the timed part: one CLI command run in-process, or
one library solve) and a ``check`` that judges the result against the
closed-form integrals of ``family`` and returns a ``Verdict``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import family

#: Roundoff allowance for certified bounds, relative to the integral's scale.
BOUND_TOL = 1e-12
#: Chain orderings use the package's own convention, 1e-9 * max(1, |value|).
CHAIN_TOL = 1e-9
#: The Simpson oracle must land within ORACLE_REL * scale + ORACLE_EST * its
#: own error estimate of the exact integral (kinks make the estimate low).
ORACLE_REL = 1e-5
ORACLE_EST = 100.0

#: verify: cases per command.
VERIFY_CASES = 8
#: cli-expr: kinds in one round of 16; one input in 16 has large magnitude.
#: The six nested chains sit at ranks 6-11 of 16 by latency, so the median
#: lies inside one kind rather than on the edge between two. The k-th op of
#: a kind in round r has 1 + (k + r) % 3 product terms: latency grows with
#: the terms, so a fixed share of each keeps the median from drifting with
#: the seed.
CLI_ROUND = (("bounds",) * 5 + ("chain",) * 6 + ("chain-quad",) * 2
             + ("converge",) * 2 + ("big",))
#: fine-enclosure: relative gap to reach, inner subintervals, largest n tried.
SOLVE_TARGET = 2e-5
SOLVE_M = 16
SOLVE_MAX_N = 1024
#: fine-enclosure: the constant term makes mean(f) this multiple of the
#: corner-minus-center spread, so the target falls near n=128 for most inputs.
SOLVE_SPREAD = 3.0
#: ... but at least this multiple of the mean size of its parts (scale/area).
#: A nearly bilinear member has almost no spread; with a kink close to an
#: edge its integral then came out near 0, and no n up to SOLVE_MAX_N met a
#: relative target (rect (-0.134, 1.859, -1.027, 0.218), seed 225722214).
SOLVE_FLOOR = 0.1
#: scalar-eval: enclosure size and oracle grid of the library ops, and the
#: oracle grid and converge range of the CLI ops. Each op stays well under a
#: second, so a run holds many ops and probes; see speed.py.
SCALAR_N = 16
SCALAR_GRID = 256
SCALAR_CLI = {"converge": ["--n", "1:16"], "bounds": ["--grid", "256"],
              "chain": ["--grid", "256"]}

#: Exit code and stderr prefixes of the CLI's convexity gate.
EXIT_GATE = 3
GATE_PREFIXES = ("convexity gate:", "precondition:")

WORKLOADS = ("verify", "cli-expr", "fine-enclosure", "scalar-eval")


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Verdict:
    """status of one op.

    "ok": a checked result. "refused": the convexity gate turned away a
    large-magnitude input (exit 3), the package's known limit on such valid
    inputs; no other input may be refused. "failed": any other error exit or
    exception, or a solve that misses its gap target. "wrong": an output
    that fails its check.
    """

    status: str
    message: str = ""


OK = Verdict("ok")


@dataclass
class Op:
    kind: str
    seed: int
    describe: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]


def run_cli(pkg, argv: list[str]) -> CliResult:
    """Run one CLI command in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def output_bytes(result) -> str:
    """Canonical text of an op's result, for traced/untraced comparison."""
    if isinstance(result, CliResult):
        return f"{result.code}\n{result.stdout}\n{result.stderr}"
    return repr(result)


def _rect_args(rect) -> list[str]:
    """Rectangle endpoints as exact positional decimals.

    argparse takes ``-1.5e-05`` for an option, not a negative number, so
    exponent notation is never used.
    """
    return [np.format_float_positional(float(v), unique=True, trim="-") for v in rect]


def _cli_json(res: CliResult) -> tuple[dict | None, Verdict]:
    if res.code != 0:
        return None, Verdict("failed", f"exit {res.code}: {res.stderr.strip()[:300]}")
    try:
        return json.loads(res.stdout), OK
    except ValueError as exc:
        return None, Verdict("wrong", f"unparsable json output: {exc}")


def _bracket(lower: float, upper: float, exact: float, scale: float, what: str) -> Verdict:
    tol = BOUND_TOL * max(1.0, scale)
    if lower <= exact + tol and exact <= upper + tol:
        return OK
    return Verdict("wrong", f"{what}: [{lower!r}, {upper!r}] misses exact {exact!r}")


def _oracle_close(value: float, estimate: float, exact: float, scale: float) -> Verdict:
    if abs(value - exact) <= ORACLE_REL * max(1.0, scale) + ORACLE_EST * estimate:
        return OK
    return Verdict("wrong", f"oracle {value!r} (estimate {estimate!r}) vs exact {exact!r}")


# -- checks of CLI outputs -------------------------------------------------------


def refusable(check: Callable[[CliResult], Verdict]) -> Callable[[CliResult], Verdict]:
    """``check``, except that the gate's exit 3 is a refusal, not a failure."""

    def wrapped(res: CliResult) -> Verdict:
        if res.code == EXIT_GATE and res.stderr.startswith(GATE_PREFIXES):
            return Verdict("refused", f"exit {res.code}: {res.stderr.strip()[:300]}")
        return check(res)

    return wrapped


def check_bounds(exact: float, scale: float) -> Callable[[CliResult], Verdict]:
    def check(res: CliResult) -> Verdict:
        p, v = _cli_json(res)
        if p is None:
            return v
        v = _bracket(p["lower"], p["upper"], exact, scale, "enclosure")
        if v is not OK:
            return v
        return _oracle_close(p["oracle"], p["oracle_error"], exact, scale)

    return check


def check_chain(exact: float, scale: float, area: float) -> Callable[[CliResult], Verdict]:
    mean = exact / area

    def check(res: CliResult) -> Verdict:
        p, v = _cli_json(res)
        if p is None:
            return v
        tol = CHAIN_TOL * max(1.0, abs(mean), scale / area)
        for label in ("classic", "refined"):
            chain = p[label]
            bad = [o for o in chain["orderings"] if not o["satisfied"]]
            if bad:
                return Verdict("wrong", f"{label} chain ordering violated: {bad[0]}")
            t2, t4 = chain["terms"][1]["value"], chain["terms"][3]["value"]
            if not (t2 <= mean + tol and mean <= t4 + tol):
                return Verdict("wrong", f"{label} chain: term2={t2!r} <= mean={mean!r} "
                                        f"<= term4={t4!r} fails")
            if abs(chain["terms"][2]["value"] - mean) > ORACLE_REL * max(1.0, scale / area):
                return Verdict("wrong", f"{label} chain mean term {chain['terms'][2]['value']!r} "
                                        f"vs exact mean {mean!r}")
        return OK

    return check


def check_converge(exact: float, scale: float, ns: list[int]) -> Callable[[CliResult], Verdict]:
    def check(res: CliResult) -> Verdict:
        p, v = _cli_json(res)
        if p is None:
            return v
        if [r["n"] for r in p["rows"]] != ns:
            return Verdict("wrong", f"converge rows {[r['n'] for r in p['rows']]} != {ns}")
        for r in p["rows"]:
            v = _bracket(r["lower"], r["upper"], exact, scale, f"n={r['n']}")
            if v is not OK:
                return v
        return OK

    return check


def check_verify(cases: int, seed: int) -> Callable[[CliResult], Verdict]:
    def check(res: CliResult) -> Verdict:
        if res.code == 1:
            return Verdict("wrong", f"verify found violations: {res.stdout[:300]}")
        p, v = _cli_json(res)
        if p is None:
            return v
        if not p["all_pass"] or p["cases"] != cases or p["seed"] != seed:
            return Verdict("wrong", f"verify payload: all_pass={p['all_pass']} "
                                    f"cases={p['cases']} seed={p['seed']}")
        return OK

    return check


def oracle_skip_counts(res: CliResult) -> tuple[int, int]:
    """(skipped, checked) enclosure checks of one verify command."""
    p = json.loads(res.stdout)
    checked = next(q["checked"] for q in p["properties"] if q["name"] == "enclosure_soundness")
    return p["skipped_oracle_checks"], checked


# -- op streams -----------------------------------------------------------------


def _cli_op(pkg, kind: str, seed: int, inst: family.Instance, extra: list[str],
            src: str | None = None, big: bool = False) -> Op:
    """One CLI command on ``inst``; ``src`` overrides its expression text.

    The gate may refuse a ``big`` (large-magnitude) input; see ``refusable``.
    """
    src = inst.source() if src is None else src
    a, b, c, d = inst.rect
    exact, scale = inst.exact(), inst.scale()
    command = "chain" if kind.startswith("chain") else kind
    argv = [command, "--f", src, "--rect", *_rect_args(inst.rect), "--output", "json", *extra]
    if command == "chain":
        check = check_chain(exact, scale, (b - a) * (d - c))
    elif command == "converge":
        lo, hi = (int(v) for v in extra[extra.index("--n") + 1].split(":"))
        check = check_converge(exact, scale, [n for n in (2 ** k for k in range(31))
                                              if lo <= n <= hi])
    else:
        check = check_bounds(exact, scale)
    if big:
        check = refusable(check)
    return Op(command, seed, "hh-bounds " + " ".join(argv),
              lambda: run_cli(pkg, argv), check)


def verify_rounds(pkg, seed: int) -> Iterator[list[Op]]:
    i = 0
    while True:
        s = seed * 100_000 + i
        argv = ["verify", "--cases", str(VERIFY_CASES), "--seed", str(s), "--output", "json"]
        yield [Op("verify", s, "hh-bounds " + " ".join(argv),
                  lambda argv=argv: run_cli(pkg, argv), check_verify(VERIFY_CASES, s))]
        i += 1


def cli_expr_rounds(pkg, seed: int) -> Iterator[list[Op]]:
    block = 0
    while True:
        rng = np.random.default_rng([seed, block])
        kinds = list(CLI_ROUND[1:])
        rng.shuffle(kinds)
        kinds.insert(0, CLI_ROUND[0])  # a plain bounds first: the same warm-up every seed
        ops, seen = [], {}
        for kind in kinds:
            op_seed = int(rng.integers(2**31))
            op_rng = np.random.default_rng(op_seed)
            terms = 1 + (seen.get(kind, 0) + block) % 3
            seen[kind] = seen.get(kind, 0) + 1
            big = kind == "big"
            if big:
                variant = "offset" if op_rng.uniform() < 0.5 else "exp"
                inst = family.draw_instance(op_rng, big=variant, terms=terms)
                kind = "bounds" if op_rng.uniform() < 0.5 else "chain"
            else:
                inst = family.draw_instance(op_rng, terms=terms)
            extra = {"chain-quad": ["--scheme", "quadrature"],
                     "converge": ["--n", "1:64"]}.get(kind, [])
            ops.append(_cli_op(pkg, kind, op_seed, inst, extra, big=big))
        yield ops
        block += 1


def _solve_instance(rng: np.random.Generator, terms: int) -> family.Instance:
    """A family member whose mean is SOLVE_SPREAD times its corner-minus-center
    spread, or SOLVE_FLOOR times scale/area if that is larger."""
    while True:
        inst = family.draw_instance(rng)
        if len(inst.terms) >= terms:
            break
    inst = dataclasses.replace(inst, terms=inst.terms[:terms])
    a, b, c, d = inst.rect
    area = (b - a) * (d - c)
    f = inst.scalar_eval
    spread = (f(a, c) + f(a, d) + f(b, c) + f(b, d)) / 4.0 - f(0.5 * (a + b), 0.5 * (c + d))
    mean = max(SOLVE_SPREAD * spread, SOLVE_FLOOR * inst.scale() / area)
    return dataclasses.replace(inst, beta=inst.beta + mean - inst.exact() / area)


def solve_to_gap(pkg, inst: family.Instance, gate_seed: int):
    """Gate once, then double n until the relative gap meets SOLVE_TARGET.

    Returns ("refused", report) or ("solved", [(n, lower, upper), ...]).
    """
    rect = pkg.Rect(*inst.rect)
    fn = pkg.catalog.resolve_function(inst.source(), rect)
    rep = pkg.check_coordinate_convexity(fn, rect, 10_000, 1e-10, gate_seed)
    if not rep.passed:
        return ("refused", rep)
    levels = []
    n = 1
    while n <= SOLVE_MAX_N:
        bp = pkg.discrete_enclosure(fn, rect, n, SOLVE_M)
        levels.append((n, bp.lower, bp.upper))
        if bp.gap <= SOLVE_TARGET * max(abs(bp.lower), abs(bp.upper)):
            break
        n *= 2
    return ("solved", levels)


def check_solve(exact: float, scale: float) -> Callable[[tuple], Verdict]:
    def check(res) -> Verdict:
        status, detail = res
        if status == "refused":
            return Verdict("failed", f"convexity gate: worst slack {detail.max_violation!r}")
        for n, lower, upper in detail:
            v = _bracket(lower, upper, exact, scale, f"n={n}")
            if v is not OK:
                return v
        n, lower, upper = detail[-1]
        if upper - lower > SOLVE_TARGET * max(abs(lower), abs(upper)):
            return Verdict("failed", f"gap target not met by n={n}")
        return OK

    return check


def fine_enclosure_rounds(pkg, seed: int) -> Iterator[list[Op]]:
    block = 0
    while True:
        rng = np.random.default_rng([seed, block])
        ops = []
        for terms in (1, 2, 3):
            op_seed = int(rng.integers(2**31))
            inst = _solve_instance(np.random.default_rng(op_seed), terms)
            ops.append(Op("solve", op_seed,
                          f"solve --f {inst.source()!r} --rect {inst.rect!r}",
                          lambda inst=inst, s=op_seed: solve_to_gap(pkg, inst, s),
                          check_solve(inst.exact(), inst.scale())))
        yield ops
        block += 1


def scalar_eval_rounds(pkg, seed: int, wrap_eval=None) -> Iterator[list[Op]]:
    """Library ops with a math-based callback, then CLI ops on a constant.

    Five kinds per round; by latency the constant ``converge`` is the middle
    one, so the median reports the CLI's scalar fallback.
    """
    block = 0
    while True:
        rng = np.random.default_rng([seed, block])
        seeds = [int(s) for s in rng.integers(2**31, size=5)]
        enc = family.draw_scalar_instance(np.random.default_rng(seeds[0]))
        orc = family.draw_scalar_instance(np.random.default_rng(seeds[1]))
        ops = []
        for op_seed, inst, kind in ((seeds[0], enc, "enclosure"), (seeds[1], orc, "oracle")):
            def call(inst=inst, kind=kind):
                ev = inst.scalar_eval if wrap_eval is None else wrap_eval(inst.scalar_eval)
                fn = pkg.Fn2D(eval=ev)
                rect = pkg.Rect(*inst.rect)
                if kind == "enclosure":
                    return pkg.discrete_enclosure(fn, rect, SCALAR_N, 16)
                return pkg.reference_integral_2d(fn, rect, SCALAR_GRID)

            if kind == "enclosure":
                def check(bp, inst=inst):
                    return _bracket(bp.lower, bp.upper, inst.exact(), inst.scale(), "enclosure")
            else:
                def check(o, inst=inst):
                    return _oracle_close(o.value, o.error_estimate, inst.exact(), inst.scale())
            ops.append(Op(kind, op_seed, f"{kind} scalar callback {inst!r}", call, check))
        for op_seed, command in zip(seeds[2:], SCALAR_CLI):
            value, rect = family.draw_constant(np.random.default_rng(op_seed))
            const = family.Instance(rect, value, 0.0, 0.0, ())
            ops.append(_cli_op(pkg, command, op_seed, const, SCALAR_CLI[command],
                               src=repr(value)))
        yield ops
        block += 1


def rounds(name: str, pkg, seed: int, wrap_eval=None) -> Iterator[list[Op]]:
    if name == "verify":
        return verify_rounds(pkg, seed)
    if name == "cli-expr":
        return cli_expr_rounds(pkg, seed)
    if name == "fine-enclosure":
        return fine_enclosure_rounds(pkg, seed)
    if name == "scalar-eval":
        return scalar_eval_rounds(pkg, seed, wrap_eval)
    raise ValueError(f"unknown workload {name!r}")


def verdict_of(op: Op, result, error: BaseException | None) -> Verdict:
    if error is not None:
        return Verdict("failed", f"{type(error).__name__}: {error}")
    try:
        return op.check(result)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return Verdict("wrong", f"malformed result: {type(exc).__name__}: {exc}")
