import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hh_bounds import (BoundPair, DomainError, EvaluationError, Fn1D, Fn2D, Interval,
                       Partition1D, PreconditionError, Rect,
                       check_coordinate_convexity, deficit_upper,
                       integral_enclosure, machine_tol, midpoint_lower,
                       spot_minimum, trapezoid_upper)
import hh_bounds.schemes
from hh_bounds.convexity import random_convex_1d
from hh_bounds.oracle import reference_integral_1d, reference_integral_2d
from hh_bounds.schemes import adaptive_simpson

from conftest import counting_fn1d

UNIT = Interval(0.0, 1.0)
SQUARE = Fn1D(eval=lambda t: t * t)
IDENT = Fn1D(eval=lambda t: t + 0.0)


class TestIntervalPartition:
    def test_interval_rejects_degenerate(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)

    def test_partition_nodes_hit_endpoints_exactly(self):
        iv = Interval(0.1, 0.7)
        for n in (1, 3, 7, 100):
            xs = Partition1D(iv, n).nodes()
            assert xs[0] == iv.lo and xs[-1] == iv.hi
            assert np.all(np.diff(xs) > 0)

    def test_partition_rejects_bad_n(self):
        with pytest.raises(DomainError):
            Partition1D(UNIT, 0)

    def test_midpoints_average_nodes(self):
        p = Partition1D(Interval(-1.0, 2.0), 4)
        xs, ms = p.nodes(), p.midpoints()
        assert np.allclose(ms, 0.5 * (xs[:-1] + xs[1:]), rtol=0, atol=0)


class TestMidpointTrapezoid:
    def test_midpoint_affine_exact(self):
        assert midpoint_lower(IDENT, UNIT, 3) == pytest.approx(0.5, abs=1e-15)

    def test_midpoint_square(self):
        assert midpoint_lower(SQUARE, UNIT, 1) == pytest.approx(0.25, abs=1e-15)
        assert midpoint_lower(SQUARE, UNIT, 2) == pytest.approx(0.3125, abs=1e-15)

    def test_trapezoid_affine_exact(self):
        assert trapezoid_upper(IDENT, UNIT, 5) == pytest.approx(0.5, abs=1e-15)

    def test_trapezoid_square(self):
        assert trapezoid_upper(SQUARE, UNIT, 1) == pytest.approx(0.5, abs=1e-15)
        assert trapezoid_upper(SQUARE, UNIT, 2) == pytest.approx(0.375, abs=1e-15)

    def test_enclosure_square(self):
        bp = integral_enclosure(SQUARE, UNIT, 2)
        assert (bp.lower, bp.upper) == (pytest.approx(0.3125), pytest.approx(0.375))
        assert bp.lower <= 1.0 / 3.0 <= bp.upper

    def test_enclosure_constant(self):
        const = Fn1D(eval=lambda t: 3.0 + 0.0 * t)
        bp = integral_enclosure(const, Interval(-2.0, 3.0), 7)
        assert bp.lower == pytest.approx(15.0, rel=1e-14)
        assert bp.upper == pytest.approx(15.0, rel=1e-14)

    def test_enclosure_kink_symmetric(self):
        kink = Fn1D(eval=lambda t: np.abs(t - 0.5))
        bp = integral_enclosure(kink, UNIT, 2)
        assert bp.lower == pytest.approx(0.25, abs=1e-15)
        assert bp.upper == pytest.approx(0.25, abs=1e-15)

    def test_evaluation_error_carries_node(self):
        bad = Fn1D(eval=lambda t: np.where(t > 0.6, np.nan, t))
        with pytest.raises(EvaluationError) as exc:
            trapezoid_upper(bad, UNIT, 4)
        assert exc.value.where is not None
        assert exc.value.where[0] > 0.6

    def test_scalar_only_callback_falls_back(self):
        fn = Fn1D(eval=lambda t: math.exp(t))
        assert midpoint_lower(fn, UNIT, 8) < math.e - 1.0 < trapezoid_upper(fn, UNIT, 8)

    def test_eval_count_is_2n_plus_1(self):
        for n in (1, 2, 5, 16):
            fn, count = counting_fn1d(lambda t: t * t)
            bp = integral_enclosure(fn, UNIT, n)
            assert bp.evals == 2 * n + 1
            assert count["n"] == 2 * n + 1

    def test_boundpair_rejects_disorder(self):
        with pytest.raises(PreconditionError):
            BoundPair(lower=1.0, upper=0.5, n=1, evals=3)


#: A scalar-only callback that fails (math domain error) wherever x <= 0.
LOG = Fn2D(eval=lambda x, y: math.log(x) + y)
LOG_RECT = Rect(-1.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("entry", [
    lambda: reference_integral_2d(LOG, LOG_RECT, 64),
    lambda: reference_integral_1d(LOG.restrict_y(0.5), LOG_RECT.x_interval, 64),
    lambda: spot_minimum(LOG, LOG_RECT),
    lambda: check_coordinate_convexity(LOG, LOG_RECT, samples=100),
], ids=["oracle_2d", "oracle_1d", "spot_minimum", "convexity"])
def test_scalar_callback_failure_is_evaluation_error(entry):
    with pytest.raises(EvaluationError) as exc:
        entry()
    assert exc.value.where is not None
    assert exc.value.where[0] <= 0.0


def _kinked(t):
    return np.abs(t - 0.3) + t * t


class TestAdaptiveSimpson:
    def test_one_call_per_level(self):
        calls = []

        def ev(t):
            calls.append(np.array(t, dtype=float).ravel())
            return _kinked(t)

        value = adaptive_simpson(ev, 0.0, 1.0, 1e-10)
        assert value == pytest.approx(0.49 / 2 + 0.09 / 2 + 1.0 / 3.0, abs=1e-9)
        points = np.concatenate(calls)
        assert points.size >= 100
        # every point is k / 2**e on [0, 1]; the finest, 2**-(depth + 2), are
        # the quarter points of the deepest subintervals
        finest = max(math.frexp(float(t).as_integer_ratio()[1])[1] - 1 for t in points)
        assert len(calls) <= finest

    def test_scalar_only_callback(self):
        ndims = []

        def ev(t):
            ndims.append(np.ndim(t))
            return math.exp(t)

        assert adaptive_simpson(ev, 0.0, 1.0, 1e-10) == pytest.approx(math.e - 1.0, abs=1e-9)
        # each level is offered as one array, refused, then taken point by point
        assert 1 in ndims and 0 in ndims
        with pytest.raises(EvaluationError) as exc:
            adaptive_simpson(math.log, -1.0, 1.0, 1e-9)
        assert exc.value.where is not None and exc.value.where[0] <= 0.0

    @pytest.mark.parametrize("fn, lo, hi, tol", [
        (_kinked, 0.0, 1.0, 1e-12),
        (lambda t: np.cos(40.0 * t), 0.0, 1.0, 1e-10),
        (lambda t: np.sqrt(np.abs(t)), -1.3, 2.1, 1e-10),
    ])
    def test_level_width_does_not_change_result(self, fn, lo, hi, tol, monkeypatch):
        sizes = []

        def ev(t):
            sizes.append(np.size(t))
            return fn(t)

        wide = adaptive_simpson(ev, lo, hi, tol)
        assert max(sizes) > 2
        monkeypatch.setattr(hh_bounds.schemes, "_LEVEL_NODES", 1)
        sizes.clear()
        narrow = adaptive_simpson(ev, lo, hi, tol)
        assert narrow.hex() == wide.hex()
        # the ends and the midpoint, then one subinterval's quarter points
        assert sizes[0] == 3 and set(sizes[1:]) == {2}


class TestDeficitUpper:
    def test_square_values(self):
        sq = Fn1D(eval=lambda t: t * t, positive=True)
        v = deficit_upper(sq, UNIT, 1.0, 1)
        assert v == pytest.approx(0.5, abs=1e-15)
        assert 1.0 / 3.0 - 1.0 <= v
        v2 = deficit_upper(sq, UNIT, 0.0, 2)
        assert v2 == pytest.approx(0.375, abs=1e-15)
        assert 1.0 / 3.0 - 0.0 <= v2

    def test_constant(self):
        const = Fn1D(eval=lambda t: 1.0 + 0.0 * t, positive=True)
        v = deficit_upper(const, Interval(0.0, 2.0), 1.3, 1)
        assert v == pytest.approx(2.0, rel=1e-14)
        assert 2.0 - 2.0 * 1.0 <= v

    def test_requires_positive_flag(self):
        with pytest.raises(PreconditionError):
            deficit_upper(SQUARE, UNIT, 0.5, 1)

    def test_requires_t_inside(self):
        sq = Fn1D(eval=lambda t: t * t, positive=True)
        with pytest.raises(DomainError):
            deficit_upper(sq, UNIT, 1.5, 1)

    def test_value_independent_of_t(self):
        sq = Fn1D(eval=lambda t: t * t + 1.0, positive=True)
        vals = {deficit_upper(sq, UNIT, t, 3) for t in (0.0, 0.25, 1.0)}
        assert len(vals) == 1


def _interval(lo, width):
    return Interval(lo, lo + width)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), lo=st.floats(-2.0, 1.0), width=st.floats(0.5, 2.5),
       atoms=st.integers(0, 4), n=st.integers(1, 16))
def test_enclosure_contains_oracle(seed, lo, width, atoms, n):
    iv = _interval(lo, width)
    fn = random_convex_1d(seed, iv, atoms)
    bp = integral_enclosure(fn, iv, n)
    oracle = reference_integral_1d(fn, iv, 1024)
    assume(oracle.error_estimate <= 1e-3 * bp.gap + 1e-12)
    tol = 1e-9 * max(1.0, abs(oracle.value))
    assert bp.lower - tol <= oracle.value <= bp.upper + tol


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), lo=st.floats(-2.0, 1.0), width=st.floats(0.5, 2.5),
       atoms=st.integers(0, 4), n=st.integers(1, 8))
def test_dyadic_refinement_monotone(seed, lo, width, atoms, n):
    iv = _interval(lo, width)
    fn = random_convex_1d(seed, iv, atoms)
    lo_n = midpoint_lower(fn, iv, n)
    lo_2n = midpoint_lower(fn, iv, 2 * n)
    up_n = trapezoid_upper(fn, iv, n)
    up_2n = trapezoid_upper(fn, iv, 2 * n)
    assert lo_2n >= lo_n - machine_tol(lo_n, lo_2n)
    assert up_2n <= up_n + machine_tol(up_n, up_2n)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0), n=st.integers(1, 32))
def test_affine_exactness(alpha, beta, n):
    iv = Interval(-0.5, 1.7)
    fn = Fn1D(eval=lambda t: alpha * t + beta)
    exact = alpha * (iv.hi**2 - iv.lo**2) / 2.0 + beta * iv.length
    bp = integral_enclosure(fn, iv, n)
    tol = 1e-12 * max(1.0, abs(exact))
    assert abs(bp.lower - exact) <= tol
    assert abs(bp.upper - exact) <= tol


def test_gap_ratio_quarter_for_smooth():
    fn = Fn1D(eval=np.exp)
    for n in (32, 64, 128):
        gap_n = integral_enclosure(fn, UNIT, n).gap
        gap_2n = integral_enclosure(fn, UNIT, 2 * n).gap
        assert 0.2 <= gap_2n / gap_n <= 0.3
