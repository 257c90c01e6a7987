"""Tensor sums of separable expressions, summed by their factors.

A parsed expression whose tree :func:`expr.separated` writes as signed
products of one-variable factors is summed by :func:`bounds1d.line_sums`
from its factors' values, in the oracle and in a plan's large line
requests. The same tree wrapped in a lambda is a black box, which takes the
grid path, so every check here compares the two. Values may move by
rounding only: per weighted point, 2*gamma_N times the sum of the
magnitudes of the tree's terms, plus 2*N*eta times the sum over the terms of
the product of max(1, |factor|) for products that underflow. Both are added
up through the grid path itself, with the weights of the sum they bound.
Failures stay those of the grid path, point and message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import hh_bounds.oracle
import hh_bounds.rect
from hh_bounds import EvaluationError, Fn2D, NestedDiscrete, Rect, expr
from hh_bounds.bounds1d import line_blocks, line_sums
from hh_bounds.convexity import random_coordinate_convex
from hh_bounds.expr import Evaluator, eval_ast, parse, separated
from hh_bounds.oracle import reference_integral_2d
from hh_bounds.rect import PACK_POINTS, PointPlan, _declare_partition_sums

from expr_corpus import CORPUS

RECT = Rect(0.3, 1.7, 0.2, 1.3)
U = 2.0 ** -53  # unit roundoff
ETA = 2.0 ** -1074  # the smallest subnormal


def _family_sums(seed: int, count: int) -> list[str]:
    """Sums of signed products of one-variable atoms, as the benchmark's
    family writes them, with subtractions, negations and constant factors."""
    rng = np.random.default_rng(seed)

    def num():
        return repr(float(rng.uniform(-2.0, 2.0)))

    def atom(v):
        return [f"{v}^2", f"abs({v}-{num()})", f"exp({num()}*{v})", f"({num()}*{v}+{num()})",
                v][int(rng.integers(0, 5))]

    out = []
    for _ in range(count):
        src = f"{num()}+({num()})*x-({num()})*y"
        for _ in range(int(rng.integers(1, 5))):
            term = [f"({num()})", atom("x"), atom("y"), atom("x")][:int(rng.integers(2, 5))]
            rng.shuffle(term)
            src += ("+", "-")[int(rng.integers(0, 2))] + "*".join(term)
        out.append(src if rng.uniform() < 0.7 else f"-({src})")
    return out


SOURCES = sorted({src for src, tree in CORPUS if separated(tree) is not None}
                 | set(_family_sums(3, 12))
                 | {"x*y*1e-320*1e300", "1e300+x^2", "x^2*y-x^2*y+1", "-x*y*(-0.0)+x"})


def _grid(tree) -> Fn2D:
    """``tree`` as a black box: the grid path."""
    ev = Evaluator(tree)
    return Fn2D(eval=lambda x, y: ev(x, y))


def _no_grid(*args):
    raise AssertionError("a separable tree was evaluated on the grid")


def _sizes(tree) -> tuple[Fn2D, Fn2D]:
    """Per point, the sum over the terms of the product of |factor| and of
    max(1, |factor|): the magnitudes rounding and underflow are bounded by."""
    factors, terms = separated(tree)

    def by_terms(lift):
        def fn(x, y):
            values = [lift(np.abs(eval_ast(node, x, y))) for _, node in factors]
            out = sum(math.prod(values[i] for i in idx) for _, idx in terms)
            return np.broadcast_to(out, np.broadcast(x, y).shape)
        return Fn2D(eval=fn)

    return by_terms(lambda v: v), by_terms(lambda v: np.maximum(1.0, v))


def _allowance(tree, points: int, weigh) -> float:
    """The most a sum over about ``points`` values a line or axis may move:
    ``weigh(fn)`` adds up a magnitude with the sum's weights."""
    nodes, todo = 0, [tree]
    while todo:
        node = todo.pop()
        nodes += 1
        todo += expr._children(node)
    n = 4 * points + 3 * nodes + 16
    gamma = n * U / (1.0 - n * U)
    magnitude, ceiling = _sizes(tree)
    return 2.0 * gamma * weigh(magnitude) + 2.0 * n * ETA * weigh(ceiling)


@pytest.mark.parametrize("src", SOURCES)
@pytest.mark.parametrize("along", "xy")
def test_line_sums_match_the_grid(src, along):
    tree = parse(src)
    rng = np.random.default_rng(len(src))
    lo, hi = (RECT.a, RECT.b) if along == "x" else (RECT.c, RECT.d)
    olo, ohi = (RECT.c, RECT.d) if along == "x" else (RECT.a, RECT.b)
    pts, at = np.linspace(lo, hi, 129), np.linspace(olo, ohi, 37)
    weights = rng.uniform(-1.0, 1.0, (pts.size, 3))
    got = line_sums(Evaluator(tree), along, at, pts, weights)
    want = np.concatenate([block @ weights for block in
                           line_blocks(_grid(tree).eval, along, at, pts)])

    def weigh(fn):
        return np.concatenate([block for block in line_blocks(fn.eval, along, at, pts)]
                              ) @ np.abs(weights)

    assert got.shape == want.shape
    assert (np.abs(got - want) <= _allowance(tree, pts.size, weigh)).all()


@pytest.mark.parametrize("src", SOURCES)
def test_oracle_matches_the_grid(src, monkeypatch):
    tree = parse(src)
    with monkeypatch.context() as patch:
        patch.setattr(hh_bounds.oracle, "line_blocks", _no_grid)
        got = reference_integral_2d(Fn2D(eval=Evaluator(tree)), RECT, 128)
    want = reference_integral_2d(_grid(tree), RECT, 128)
    allow = {g: _allowance(tree, g + 1, lambda fn: reference_integral_2d(fn, RECT, g).value)
             for g in (64, 128)}
    assert abs(got.value - want.value) <= allow[128]
    assert abs(got.error_estimate - want.error_estimate) <= (allow[64] + allow[128]) / 15.0


def _partition_sums(f: Fn2D, n: int, m: int) -> list[float]:
    plan = PointPlan()
    lower, upper = _declare_partition_sums(plan, n, NestedDiscrete(m))
    values = plan.resolve(f, RECT)
    return [values[lower], values[upper]]


@pytest.mark.parametrize("src", SOURCES)
def test_large_line_requests_match_the_grid(src, monkeypatch):
    # every line request of (16, 16) has at least PACK_POINTS points
    n, m = 16, 16
    assert n * (n * m) >= PACK_POINTS
    tree = parse(src)
    with monkeypatch.context() as patch:
        patch.setattr(hh_bounds.rect, "line_blocks", _no_grid)
        got = _partition_sums(Fn2D(eval=Evaluator(tree)), n, m)
    want = _partition_sums(_grid(tree), n, m)
    allow = _allowance(tree, n * m + 1, lambda fn: np.array(_partition_sums(fn, n, m)))
    assert (np.abs(np.subtract(got, want)) <= allow).all()


#: A factor that fails on the rectangle, and two products that overflow
#: though each factor is finite: the grid fails, so the factors are not summed.
FAILING = ["(0.8-x)^0.5*y+1", "(1e200*x)*(1e200*y)*exp(-800*x)", "1e300*x*y*1e10"]
UNIT = Rect(0.0, 1.0, 0.0, 1.0)


def _failure(run) -> tuple[str, tuple | None]:
    with pytest.raises(EvaluationError) as exc:
        run()
    return str(exc.value), exc.value.where


@pytest.mark.parametrize("src", FAILING)
def test_failures_are_those_of_the_grid(src):
    tree = parse(src)
    assert separated(tree) is not None
    pts = np.linspace(0.0, 1.0, 65)
    assert line_sums(Evaluator(tree), "y", pts, pts, np.ones((65, 1))) is None
    for run in (lambda f: reference_integral_2d(f, UNIT, 64),
                lambda f: _plan().resolve(f, UNIT)):
        got = _failure(lambda: run(Fn2D(eval=Evaluator(tree))))
        assert got == _failure(lambda: run(_grid(tree)))
        assert got[1] is not None


def _plan() -> PointPlan:
    plan = PointPlan()
    _declare_partition_sums(plan, 16, NestedDiscrete(16))
    return plan


def _counted(monkeypatch) -> dict:
    """Count the points evaluated through ``expr.eval_ast``, as a tracer does."""
    seen = {"points": 0}
    original = expr.eval_ast

    def counting(node, x, y):
        out = original(node, x, y)
        seen["points"] += int(np.size(out))
        return out

    monkeypatch.setattr(expr, "eval_ast", counting)
    return seen


def test_factors_are_evaluated_through_eval_ast_once_per_sum(monkeypatch):
    # x, y, the constant 3, x^2 (twice in the tree) and exp(y): one
    # evaluation of each, at the 65 nodes of its axis, a constant at one point
    tree = parse("x*y*3+x^2*exp(y)-x^2")
    seen = _counted(monkeypatch)
    reference_integral_2d(Fn2D(eval=Evaluator(tree)), UNIT, 64)
    assert seen["points"] == 4 * 65 + 1


@pytest.mark.parametrize("src", ["exp(x+y)", "(x+y)^2", "max(x,y)", "x*y/3"])
def test_a_non_separable_tree_takes_the_grid_path(src, monkeypatch):
    tree = parse(src)
    assert separated(tree) is None
    pts = np.linspace(0.0, 1.0, 65)
    assert line_sums(Evaluator(tree), "y", pts, pts, np.ones((65, 1))) is None
    seen = _counted(monkeypatch)
    reference_integral_2d(Fn2D(eval=Evaluator(tree)), UNIT, 64)
    assert seen["points"] == 65 * 65


def test_black_boxes_take_the_grid_path():
    pts = np.linspace(0.0, 1.0, 65)
    generated = random_coordinate_convex(0, UNIT, 2)
    for f in (_grid(parse("x*y")), generated, Fn2D(eval=lambda x, y: x * y)):
        assert line_sums(f.eval, "y", pts, pts, np.ones((65, 1))) is None
