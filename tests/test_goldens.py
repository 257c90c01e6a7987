"""Library values pinned bit for bit to goldens in tests/data/.

Every bound, both chains and the n=1 assembly are recorded as ``float.hex``
strings for eight random coordinate-convex functions under three inner
schemes, so a refactor of the evaluation or summation code cannot move a
single bit unnoticed. A second file pins both chains and adaptive Simpson
under ``Quadrature(1e-10)`` for scalar-only callbacks built on ``math``,
which are evaluated one point per call. A third pins the convexity gate's
reports (worst slack, verdict, sample count and witness), two gate
evaluation errors, and the values and positive flags of the random convex
generators. ``python tests/test_goldens.py`` rewrites all three golden files
from the current code; do so only for a change meant to alter the numbers,
and say so.
"""

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


def records() -> dict[str, list[str]]:
    out = {}
    for seed in range(8):
        f = random_coordinate_convex(seed, RECT, 1 + seed % 4)
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


def scalar_records() -> dict[str, list[str]]:
    out = {}
    scheme = Quadrature(1e-10)
    for name, ev in SCALAR_FUNCTIONS.items():
        f = Fn2D(eval=ev)
        for label, r in SCALAR_RECTS.items():
            key = f"{name} {label}"
            integral = reference_integral_2d(f, r, 64).value
            out[f"{key} classic_chain"] = classic_chain(f, r, scheme, integral=integral).values
            out[f"{key} refined_chain"] = refined_chain(f, r, scheme, integral=integral).values
            out[f"{key} adaptive_simpson"] = [adaptive_simpson(f.restrict_x(r.b), r.c, r.d,
                                                               scheme.tol)]
    return {k: [float(v).hex() for v in vals] for k, vals in out.items()}


#: Gate inputs: a concave one, a saddle, zero slack up to roundoff, a
#: passing run that still reports a witness, and a scale-driven rejection.
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
    for seed in range(8):
        f = random_coordinate_convex(seed, RECT, 1 + seed % 4)
        out[f"random seed={seed}"] = _report(check_coordinate_convexity(f, RECT, seed=seed))
    for src in GATE_EXPRESSIONS:
        for label, r in SCALAR_RECTS.items():
            f = resolve_function(src, r)
            out[f"expr {src} {label}"] = _report(check_coordinate_convexity(f, r, seed=1))
    f = random_coordinate_convex(3, RECT, 2)
    out["samples=1"] = _report(check_coordinate_convexity(f, RECT, samples=1, seed=5))
    out["samples=1 concave"] = _report(check_coordinate_convexity(
        resolve_function("0-x^2-y^2", UNIT), UNIT, samples=1, seed=5))
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


def _check(path: Path, got: dict[str, list[str]]) -> None:
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert list(got) == list(golden)
    mismatched = [k for k in golden if got[k] != golden[k]]
    assert not mismatched, mismatched[:5]


def test_library_values_match_goldens():
    _check(GOLDEN, records())


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
    monkeypatch.setattr(hh_bounds.rect, "sum", _sum_py312, raising=False)
    _check(GOLDEN, records())


def test_scalar_quadrature_values_match_goldens():
    _check(SCALAR_GOLDEN, scalar_records())


def test_convexity_values_match_goldens():
    _check(CONVEXITY_GOLDEN, convexity_records())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=1) + "\n", encoding="utf-8")
    SCALAR_GOLDEN.write_text(json.dumps(scalar_records(), indent=1) + "\n", encoding="utf-8")
    CONVEXITY_GOLDEN.write_text(json.dumps(convexity_records(), indent=1) + "\n",
                                encoding="utf-8")
