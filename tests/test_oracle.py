import math

import numpy as np
import pytest

from hh_bounds import DomainError, EvaluationError, Fn1D, Fn2D, Interval, Rect
from hh_bounds.convexity import random_coordinate_convex
from hh_bounds.oracle import reference_integral_1d, reference_integral_2d

UNIT = Interval(0.0, 1.0)
UNIT2 = Rect(0.0, 1.0, 0.0, 1.0)


def test_grid_must_be_power_of_two_64():
    for bad in (32, 63, 100, 1000):
        with pytest.raises(DomainError):
            reference_integral_1d(Fn1D(eval=lambda t: t), UNIT, bad)


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
def test_explicit_grid_is_bitwise_full_grid_simpson(grid):
    r = Rect(-0.3, 1.7, 0.1, 0.9)
    fn = lambda x, y: np.exp(x + y) + np.abs(x - 0.4) * y * y  # noqa: E731
    res = reference_integral_2d(Fn2D(eval=fn), r, grid)
    assert res.grid == grid
    assert res.value == _full_grid_simpson(fn, r, grid)


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
