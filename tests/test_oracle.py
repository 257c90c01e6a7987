import math
import tracemalloc

import numpy as np
import pytest

from hh_bounds import DomainError, EvaluationError, Fn1D, Fn2D, Interval, Rect
from hh_bounds.bounds1d import evaluate
from hh_bounds.catalog import resolve_function
from hh_bounds.convexity import random_coordinate_convex
from hh_bounds.expr import eval_ast, parse
from hh_bounds.oracle import reference_integral_1d, reference_integral_2d
from hh_bounds.rect import BLOCK_POINTS

from conftest import counting_fn2d

UNIT = Interval(0.0, 1.0)
UNIT2 = Rect(0.0, 1.0, 0.0, 1.0)


def test_grid_must_be_power_of_two_64():
    for bad in (32, 63, 100, 1000):
        with pytest.raises(DomainError):
            reference_integral_1d(Fn1D(eval=lambda t: t), UNIT, bad)


def test_oversized_grid_fails_before_evaluating():
    f, count = counting_fn2d(lambda x, y: x * y)
    with pytest.raises(DomainError, match="needs 268468225 points, more than the cap"):
        reference_integral_2d(f, UNIT2, 16384)
    assert count["n"] == 0


@pytest.mark.parametrize("oracle, domain, grid", [
    # without the check: 2.2500000000065966e-08, 2.9e-12 relative high
    (reference_integral_2d, Rect(0.0, 1.5e-154, 0.0, 1.5e-154), 64),
    # without the check: 7.4e-11 relative off, with an estimate of 5.1e-22
    (reference_integral_1d, Interval(0.0, 1e-310), 1024),
])
def test_subnormal_weights_fail_before_evaluating(oracle, domain, grid):
    count = {"n": 0}

    def ev(*args):
        count["n"] += 1
        return np.full(np.broadcast(*args).shape, 1e300)

    with pytest.raises(DomainError, match="too small for the oracle: its weights, down to"):
        oracle(ev, domain, grid)
    assert count["n"] == 0


def test_normal_weights_on_a_tiny_rectangle_are_exact():
    # hx*hy/9 is about 2.7e-305 here, a normal float
    r = Rect(0.0, 1e-150, 0.0, 1e-150)
    res = reference_integral_2d(lambda x, y: 2.0 + 0.0 * x * y, r, 64)
    assert res.value == pytest.approx(2.0 * r.area, rel=1e-15)


def test_square_exact():
    res = reference_integral_1d(Fn1D(eval=lambda t: t * t), UNIT, 64)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert res.error_estimate <= 1e-12


def test_exp_1d():
    res = reference_integral_1d(Fn1D(eval=np.exp), UNIT, 1024)
    assert res.value == pytest.approx(math.e - 1.0, abs=1e-10)


def test_constant_exact():
    res = reference_integral_1d(Fn1D(eval=lambda t: 2.5 + 0.0 * t), Interval(-1.0, 3.0), 64)
    assert res.value == pytest.approx(10.0, rel=1e-14)
    assert res.error_estimate <= 1e-13


def test_xy_2d():
    res = reference_integral_2d(Fn2D(eval=lambda x, y: x * y), UNIT2, 64)
    assert res.value == pytest.approx(0.25, abs=1e-12)


def test_sumsq_2d():
    res = reference_integral_2d(Fn2D(eval=lambda x, y: x * x + y * y), UNIT2, 64)
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_expsum_2d():
    res = reference_integral_2d(Fn2D(eval=lambda x, y: np.exp(x + y)), UNIT2, 1024)
    assert res.value == pytest.approx((math.e - 1.0) ** 2, abs=1e-9)


def test_scalar_only_callback_2d():
    res = reference_integral_2d(Fn2D(eval=lambda x, y: math.exp(x) * y), UNIT2, 64)
    assert res.value == pytest.approx((math.e - 1.0) * 0.5, abs=1e-8)


def test_self_consistency_on_smooth():
    fn = Fn2D(eval=lambda x, y: np.exp(x + y) + x * x * y)
    r = Rect(-0.5, 1.0, 0.2, 1.4)
    coarse = reference_integral_2d(fn, r, 256)
    fine = reference_integral_2d(fn, r, 512)
    assert abs(fine.value - coarse.value) <= 16.0 * coarse.error_estimate + 1e-15


def test_self_consistency_on_generated():
    r = Rect(-0.4, 1.3, -0.2, 1.1)
    for seed in (1, 5, 9):
        fn = random_coordinate_convex(seed, r, 3)
        coarse = reference_integral_1d(Fn1D(eval=fn.restrict_y(0.3)), r.x_interval, 512)
        fine = reference_integral_1d(Fn1D(eval=fn.restrict_y(0.3)), r.x_interval, 1024)
        assert abs(fine.value - coarse.value) <= 16.0 * coarse.error_estimate + 1e-15


# -- nested dyadic levels ---------------------------------------------------------


def _full_grid_simpson(fn, r, grid):
    xs = np.linspace(r.a, r.b, grid + 1)
    ys = np.linspace(r.c, r.d, grid + 1)
    F = fn(xs[:, None], ys[None, :])
    w = np.ones(grid + 1)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    hx, hy = (r.b - r.a) / grid, (r.d - r.c) / grid
    return hx * hy / 9.0 * float(w @ F @ w)


def _recording(fn):
    """Callback that records every (x, y) point it is asked for."""
    points = []

    def ev(x, y):
        out = fn(x, y)  # a scalar-only callback raises here on arrays
        bx, by = np.broadcast_arrays(x, y)
        points.extend(zip(bx.ravel().tolist(), by.ravel().tolist()))
        return out

    return ev, points


@pytest.mark.parametrize("grid", [64, 1024])
def test_explicit_grid_is_full_grid_simpson_up_to_rounding(grid):
    # the oracle adds its weighted points in another order than one w @ F @ w,
    # so the two may differ by rounding: at most 1e-15 times the sum at |f|
    r = Rect(-0.3, 1.7, 0.1, 0.9)
    fn = lambda x, y: np.exp(x + y) + np.abs(x - 0.4) * y * y  # noqa: E731
    res = reference_integral_2d(Fn2D(eval=fn), r, grid)
    assert res.grid == grid
    magnitude = _full_grid_simpson(lambda x, y: np.abs(fn(x, y)), r, grid)
    assert abs(res.value - _full_grid_simpson(fn, r, grid)) <= 1e-15 * magnitude


@pytest.mark.parametrize("target", [1e-4, 1e-8, 1e-11, 0.0])
def test_each_point_evaluated_once(target):
    r = Rect(-0.5, 1.0, 0.2, 1.4)
    ev, points = _recording(lambda x, y: np.exp(x * y) + x * x)
    res = reference_integral_2d(ev, r, 512, target)
    g = res.grid
    assert len(points) == (g + 1) ** 2
    assert len(set(points)) == len(points)
    s = 512 // g
    xs = np.linspace(r.a, r.b, 513)[::s]
    ys = np.linspace(r.c, r.d, 513)[::s]
    assert set(points) == {(x, y) for x in xs.tolist() for y in ys.tolist()}


def test_estimate_meets_target_below_grid():
    r = Rect(-0.4, 1.3, -0.2, 1.1)
    stops = set()
    for seed in range(6):
        fn = random_coordinate_convex(seed, r, 3)
        for target in (1e-3, 1e-6, 1e-9):
            res = reference_integral_2d(fn, r, 1024, target)
            stops.add(res.grid)
            if res.grid < 1024:
                assert res.error_estimate <= target
    assert min(stops) < 1024


def test_target_zero_reaches_grid_and_matches_explicit():
    fn = Fn2D(eval=lambda x, y: np.exp(x + y))
    r = Rect(0.0, 1.0, -1.0, 0.5)
    explicit = reference_integral_2d(fn, r, 256)
    nested = reference_integral_2d(fn, r, 256, target=0.0)
    assert nested == explicit
    assert nested.grid == 256


def test_scalar_only_callback_through_levels():
    ev, points = _recording(lambda x, y: math.exp(x) * y)
    res = reference_integral_2d(ev, UNIT2, 256, target=1e-12)
    assert res.grid > 64
    assert len(points) == (res.grid + 1) ** 2
    assert res.value == pytest.approx((math.e - 1.0) * 0.5, abs=1e-10)


def test_non_finite_at_later_level_names_its_point():
    # x0 is a node of level 128 but not of level 64
    x0 = float(np.linspace(0.0, 1.0, 1025)[8])

    def fn(x, y):
        return np.where(x == x0, np.nan, np.exp(x) + 0.0 * y)

    coarse = reference_integral_2d(fn, UNIT2, 1024, target=1.0)
    assert coarse.grid == 64
    with pytest.raises(EvaluationError) as info:
        reference_integral_2d(fn, UNIT2, 1024, target=0.0)
    assert info.value.where == (x0, 0.0)


@pytest.mark.parametrize("src", ["1.7e308+0*x", "0-1.7e308+0*x"])
@pytest.mark.parametrize("target", [None, 0.0])
def test_overflowing_sum_names_the_value_as_a_float(src, target):
    # every value is finite and the sums overflow, to an infinity of their
    # sign: the message prints it as Python does, never nan or np.float64(inf)
    f = resolve_function(src, UNIT2)
    with pytest.raises(EvaluationError) as info:
        reference_integral_2d(f, UNIT2, 1024, target)
    sign = "-" if src.startswith("0-") else ""
    assert str(info.value) == f"oracle value is not finite: {sign}inf"


@pytest.mark.parametrize("target", [None, 0.0])
def test_memory_does_not_grow_with_the_grid(target):
    # each row block is reduced as it is evaluated: no array of a level's
    # 2049^2 values (33.6 MB) is kept, on the explicit grid or the ladder
    f = Fn2D(eval=lambda x, y: np.exp(x + y))
    tracemalloc.start()
    try:
        res = reference_integral_2d(f, UNIT2, 2048, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.grid == 2048
    assert peak < 4e6


# -- row blocks -------------------------------------------------------------------


@pytest.mark.parametrize("target", [None, 0.0])
def test_default_grid_in_row_blocks_each_point_once(target):
    r = Rect(-0.3, 1.7, 0.1, 0.9)
    sizes, seen = [], []

    def ev(x, y):
        bx, by = np.broadcast_arrays(x, y)
        sizes.append(bx.size)
        seen.append((bx + 1j * by).ravel())  # exact: the parts are stored, not added
        return np.exp(x + y)

    res = reference_integral_2d(ev, r, 1024, target)
    assert res.grid == 1024
    assert max(sizes) <= BLOCK_POINTS
    xs = np.linspace(r.a, r.b, 1025)
    ys = np.linspace(r.c, r.d, 1025)
    grid = (xs[:, None] + 1j * ys[None, :]).ravel()
    assert np.array_equal(np.sort(np.concatenate(seen)), np.sort(grid))


def test_nan_in_a_late_block_names_the_unblocked_point():
    # One unblocked evaluation of the grid names its first NaN in row-major
    # order by construction; row blocks must name the same point.
    xs = np.linspace(0.0, 1.0, 1025)
    marks = [(xs[900], 0.25), (xs[900], 0.75), (xs[950], 0.0)]

    def fn(x, y):
        hit = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for mx, my in marks:
            hit |= (x == mx) & (y == my)
        return np.where(hit, np.nan, np.exp(x) + y * y)

    with pytest.raises(EvaluationError) as unblocked:
        evaluate(fn, xs[:, None], xs[None, :])
    with pytest.raises(EvaluationError) as blocked:
        reference_integral_2d(fn, UNIT2, 1024)
    assert blocked.value.where == unblocked.value.where == (float(xs[900]), 0.25)


def test_expression_failing_past_the_first_block_names_its_first_point():
    node = parse("(0.8-x)^0.5+y")
    sizes = []

    def ev(x, y):
        sizes.append(np.broadcast(x, y).size)
        return eval_ast(node, x, y)

    with pytest.raises(EvaluationError, match="evaluation failed at") as info:
        reference_integral_2d(ev, UNIT2, 1024)
    # x = 820/1024 is the first node past 0.8; its row is in the 14th block
    assert info.value.where == (0.80078125, 0.0)
    assert max(sizes) <= BLOCK_POINTS


def test_scalar_only_callback_in_two_blocks_is_bitwise_one_block():
    array_calls = []

    def ev(x, y):
        if np.ndim(x) or np.ndim(y):
            array_calls.append(np.broadcast(x, y).shape)
        return math.exp(x) * y

    r = Rect(-0.5, 1.0, 0.2, 1.4)
    res = reference_integral_2d(ev, r, 256)
    # 257 rows of 257 points: 255 rows, then 2
    assert array_calls == [(255, 257), (2, 257)]
    assert res.value == _full_grid_simpson(lambda x, y: evaluate(ev, x, y), r, 256)
