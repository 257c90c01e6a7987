"""Library values checked against goldens in tests/data/.

Every bound, both chains and the n=1 assembly are recorded as ``float.hex``
strings for eight random coordinate-convex functions under three inner
schemes. A second file records both chains and adaptive Simpson under
``Quadrature(1e-10)`` for scalar-only callbacks built on ``math``, which
are evaluated one point per call. A third pins the convexity gate's reports
(worst slack, verdict, sample count and witness), two gate evaluation
errors, and the values and positive flags of the random convex generators.

The files are the reference as recorded, and stay so. Each bound is a
weighted sum of point values, which the package adds in its own order: a
recorded value may move by at most 1e-15 times the sum of the magnitudes of
its weighted points, the same sum taken over |f|, and every count, key,
verdict and gate report stays identical. An oracle's error estimate is the
difference of two such sums over 15, so it may move by their two
allowances over 15. A generated function's value may only rise, by at most
1e-15 times its magnitude: a linear atom p*t + q on [lo, hi] has its
intercept q raised, in closed form, to at least the least float at or above
the exact -min(p*lo, p*hi), so that the atom is nonnegative in exact
rationals. A change meant to alter the numbers adds a new golden file beside
these.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import hh_bounds.rect
from hh_bounds import (EvaluationError, Fn2D, Interval, NestedDiscrete, Quadrature, Rect,
                       assemble_classic_terms, boundary_bound, centerline_bound,
                       classic_chain, discrete_enclosure, partition_chain,
                       positive_upper, refined_chain)
from hh_bounds.catalog import resolve_function
from hh_bounds.convexity import (check_coordinate_convexity, random_convex_1d,
                                 random_coordinate_convex)
from hh_bounds.expr import eval_ast, parse
from hh_bounds.oracle import reference_integral_2d
from hh_bounds.schemes import adaptive_simpson

GOLDEN = Path(__file__).resolve().parent / "data" / "library_goldens.json"
SCALAR_GOLDEN = GOLDEN.with_name("quadrature_scalar_goldens.json")
CONVEXITY_GOLDEN = GOLDEN.with_name("convexity_goldens.json")

RECT = Rect(-0.4, 1.3, -0.2, 1.1)
SCHEMES = {"nested16": NestedDiscrete(16), "nested3": NestedDiscrete(3),
           "quad": Quadrature(1e-9)}
NS = (1, 2, 5)


def _magnitude(f: Fn2D) -> Fn2D:
    """|f|, whose bounds are the sums of the magnitudes of f's weighted points."""
    return dataclasses.replace(f, eval=lambda x, y: np.abs(f.eval(x, y)))


def records(wrap=lambda f: f) -> dict[str, list[str]]:
    out = {}
    for seed in range(8):
        f = wrap(random_coordinate_convex(seed, RECT, 1 + seed % 4))
        oracle = reference_integral_2d(f, RECT, 256)
        out[f"seed={seed} oracle"] = [oracle.value, oracle.error_estimate]
        integral = oracle.value
        for label, scheme in SCHEMES.items():
            key = f"seed={seed} {label}"
            for n in NS:
                if isinstance(scheme, NestedDiscrete):
                    bp = discrete_enclosure(f, RECT, n, scheme.m)
                    out[f"{key} discrete_enclosure n={n}"] = [bp.lower, bp.upper]
                out[f"{key} centerline_bound n={n}"] = centerline_bound(f, RECT, n, scheme)
                out[f"{key} boundary_bound n={n}"] = boundary_bound(f, RECT, n, scheme)
                if f.positive:
                    out[f"{key} positive_upper n={n}"] = [positive_upper(f, RECT, n, scheme)]
                out[f"{key} partition_chain n={n}"] = partition_chain(
                    f, RECT, n, scheme, integral=integral).values
            out[f"{key} classic_chain"] = classic_chain(f, RECT, scheme,
                                                        integral=integral).values
            out[f"{key} refined_chain"] = refined_chain(f, RECT, scheme,
                                                        integral=integral).values
            out[f"{key} assemble_classic_terms"] = assemble_classic_terms(
                f, RECT, scheme, integral=integral)
    return {k: [float(v).hex() for v in vals] for k, vals in out.items()}


#: Coordinate-convex functions that only accept Python floats (``math``).
SCALAR_FUNCTIONS = {
    "exp_kink": lambda x, y: math.exp(0.7 * x + 0.3 * y) + abs(x - 0.2) * (1.0 + y * y),
    "hypot": lambda x, y: math.hypot(x - 0.3, y - 0.6) + x * y,
}
SCALAR_RECTS = {"rect": RECT, "unit": Rect(0.0, 1.0, 0.0, 1.0)}


def scalar_records(wrap=lambda f: f) -> dict[str, list[str]]:
    out = {}
    scheme = Quadrature(1e-10)
    for name, ev in SCALAR_FUNCTIONS.items():
        f = wrap(Fn2D(eval=ev))
        for label, r in SCALAR_RECTS.items():
            key = f"{name} {label}"
            integral = reference_integral_2d(f, r, 64).value
            out[f"{key} classic_chain"] = classic_chain(f, r, scheme, integral=integral).values
            out[f"{key} refined_chain"] = refined_chain(f, r, scheme, integral=integral).values
            out[f"{key} adaptive_simpson"] = [adaptive_simpson(f.restrict_x(r.b), r.c, r.d,
                                                               scheme.tol)]
    return {k: [float(v).hex() for v in vals] for k, vals in out.items()}


#: Gate inputs: a concave one, a saddle, zero slack up to roundoff, a
#: passing run that still reports a witness, and a steep function whose
#: slack falls far below 0 by roundoff alone, within its allowance.
GATE_EXPRESSIONS = ("0-x^2", "-(x-0.5)^2+y^2", "x*y", "-1e-12*x^2+y", "exp(50*x)")
UNIT = SCALAR_RECTS["unit"]


def _report(rep) -> list[str]:
    w = rep.witness
    tail = ["None"] if w is None else [w.x.hex(), w.y.hex(), w.lam.hex(), w.axis]
    return [rep.max_violation.hex(), str(rep.passed), str(rep.samples), *tail]


def _gate_error(f: Fn2D, r: Rect) -> list[str]:
    try:
        check_coordinate_convexity(f, r, samples=500, seed=4)
    except EvaluationError as exc:
        return [str(exc), repr(None if exc.where is None else [v.hex() for v in exc.where])]
    return ["no error"]


def _every_third_call():
    """A callback that is 1 on every third call and 0 otherwise, which makes
    every slack of the gate -1: the witness is then decided by tie-breaking."""
    calls = []

    def ev(x, y):
        calls.append(None)
        return np.full(np.broadcast(x, y).shape, float(len(calls) % 3 == 0))
    return ev


def convexity_records() -> dict[str, list[str]]:
    out = {}
    # the generated instances carry an expression tree; without it the gate
    # samples them, so these records pin the sampler. Parsed functions are
    # stripped of a tree alike, so that their records pin it too
    for seed in range(8):
        f = dataclasses.replace(random_coordinate_convex(seed, RECT, 1 + seed % 4), expr=None)
        out[f"random seed={seed}"] = _report(check_coordinate_convexity(f, RECT, seed=seed))
    for src in GATE_EXPRESSIONS:
        for label, r in SCALAR_RECTS.items():
            f = dataclasses.replace(resolve_function(src, r), expr=None)
            out[f"expr {src} {label}"] = _report(check_coordinate_convexity(f, r, seed=1))
    f = dataclasses.replace(random_coordinate_convex(3, RECT, 2), expr=None)
    out["samples=1"] = _report(check_coordinate_convexity(f, RECT, samples=1, seed=5))
    out["samples=1 concave"] = _report(check_coordinate_convexity(
        dataclasses.replace(resolve_function("0-x^2-y^2", UNIT), expr=None), UNIT, samples=1,
        seed=5))
    for name, ev in SCALAR_FUNCTIONS.items():
        out[f"scalar {name}"] = _report(check_coordinate_convexity(
            Fn2D(eval=ev), RECT, samples=300, seed=2))
    out["ties"] = _report(check_coordinate_convexity(Fn2D(eval=_every_third_call()), UNIT,
                                                     samples=50, seed=3))
    out["error callback"] = _gate_error(Fn2D(eval=lambda x, y: np.sqrt(x - 0.3) + y), UNIT)
    ast = parse("1/(x-0.5)^0.5+y")
    out["error expr"] = _gate_error(Fn2D(eval=lambda x, y: eval_ast(ast, x, y)), UNIT)
    xs, ys = np.meshgrid(np.linspace(RECT.a, RECT.b, 7), np.linspace(RECT.c, RECT.d, 5))
    ts = np.linspace(-0.7, 1.6, 17)
    for seed in range(20):
        f = random_coordinate_convex(seed, RECT, seed % 5)
        out[f"generated 2d seed={seed}"] = [str(f.positive), *map(float.hex, f.eval(xs, ys).flat)]
        for ensure in (False, True):
            g = random_convex_1d(seed, Interval(-0.7, 1.6), seed % 5, ensure_positive=ensure)
            out[f"generated 1d seed={seed} ensure_positive={ensure}"] = [
                str(g.positive), *map(float.hex, np.broadcast_to(g.eval(ts), ts.shape))]
    return out


def test_generated_gate_inputs_are_proved():
    # the generated inputs of convexity_records, with their trees: the gate
    # proves each of them and samples nothing
    inputs = [(random_coordinate_convex(seed, RECT, 1 + seed % 4), {"seed": seed})
              for seed in range(8)]
    inputs.append((random_coordinate_convex(3, RECT, 2), {"samples": 1, "seed": 5}))
    for f, kwargs in inputs:
        assert _report(check_coordinate_convexity(f, RECT, **kwargs)) == [
            "inf", "True", "0", "None"], kwargs


def _check(path: Path, got: dict[str, list[str]], moves=None) -> None:
    """``got`` against the golden file at ``path``: the same keys and counts,
    and each value the same, or, where ``moves`` is given, each float within
    ``moves(key, i, old, new)``."""
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert list(got) == list(golden)
    assert [len(v) for v in got.values()] == [len(v) for v in golden.values()]
    mismatched = [(k, i, old, new) for k in golden
                  for i, (old, new) in enumerate(zip(golden[k], got[k]))
                  if old != new and not (moves and _is_float(old) and _is_float(new)
                                         and moves(k, i, float.fromhex(old), float.fromhex(new)))]
    assert not mismatched, mismatched[:5]


def _is_float(text: str) -> bool:
    return text.startswith(("0x", "-0x"))


def _within_magnitude(magnitudes: dict[str, list[str]]):
    """A move of at most 1e-15 times the value at |f| recorded under the same key."""
    return lambda k, i, old, new: abs(new - old) <= 1e-15 * abs(float.fromhex(magnitudes[k][i]))


def _oracle_or_magnitude(magnitudes: dict[str, list[str]]):
    """:func:`_within_magnitude`, but for an oracle's estimate |full - half| / 15:
    a move of at most 1e-15 times the sum of both Simpson sums at |f|, over 15.
    At |f| the record holds the full sum and the estimate, and the half-grid
    sum is at most the full sum plus 15 times the estimate."""
    within = _within_magnitude(magnitudes)

    def moves(k, i, old, new):
        if not (k.endswith(" oracle") and i == 1):
            return within(k, i, old, new)
        full, estimate = (float.fromhex(v) for v in magnitudes[k])
        return abs(new - old) <= 1e-15 * (2.0 * full + 15.0 * estimate) / 15.0
    return moves


def test_library_values_match_goldens():
    _check(GOLDEN, records(), _oracle_or_magnitude(records(_magnitude)))


def _sum_py312(values, start=0):
    """``sum`` of floats as CPython 3.12 computes it: Neumaier summation."""
    values = list(values)
    if not values:
        return start
    total, comp = start + values[0], 0.0
    for v in values[1:]:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_library_values_do_not_depend_on_builtin_sum(monkeypatch):
    # Python 3.12 changed how sum() adds floats; the values must not follow it
    want = records()
    monkeypatch.setattr(hh_bounds.rect, "sum", _sum_py312, raising=False)
    assert records() == want


def test_scalar_quadrature_values_match_goldens():
    _check(SCALAR_GOLDEN, scalar_records(), _within_magnitude(scalar_records(_magnitude)))


def _generated_rise(k: str, i: int, old: float, new: float) -> bool:
    return k.startswith("generated ") and old <= new <= old + 1e-15 * max(1.0, abs(old))


def test_convexity_values_match_goldens():
    _check(CONVEXITY_GOLDEN, convexity_records(), _generated_rise)
