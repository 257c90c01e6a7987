import math
import os
import platform
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hh_bounds import (BoundPair, DomainError, EvaluationError, Fn1D, Fn2D, Interval,
                       Partition1D, PreconditionError, Rect, boundary_bound,
                       centerline_bound, check_coordinate_convexity, deficit_upper,
                       integral_enclosure, machine_tol, midpoint_lower,
                       positive_upper, spot_minimum, trapezoid_upper)
import hh_bounds.bounds1d
import hh_bounds.schemes
from hh_bounds.bounds1d import MAX_POINTS, SCALAR_CHUNK, Lattice, evaluate, line_blocks
from hh_bounds.convexity import random_convex_1d
from hh_bounds.expr import eval_ast, parse
from hh_bounds.oracle import OracleResult, reference_integral_1d, reference_integral_2d
from hh_bounds.rect import chain_report, discrete_enclosure
from hh_bounds.schemes import adaptive_simpson, simpson_lines

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

    def test_huge_interval_fails_fast_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # k*(hi-lo) overflows at k=2; the pinned last node hides it at n=2
            part = Partition1D(Interval(-8e307, 8e307), 2)
            assert part.nodes().tolist() == [-8e307, 0.0, 8e307]
            with pytest.raises(DomainError, match="non-finite nodes"):
                Partition1D(Interval(-8e307, 8e307), 3)
            with pytest.raises(DomainError, match="half the largest float"):
                Interval(0.0, 1e308)
        part.nodes()[1] = 1.0
        assert part.nodes()[1] == 0.0

    @pytest.mark.parametrize("rule", [
        midpoint_lower, trapezoid_upper, integral_enclosure,
        lambda fn, iv, n: deficit_upper(fn, iv, iv.lo, n)],
        ids=["midpoint_lower", "trapezoid_upper", "integral_enclosure", "deficit_upper"])
    def test_subnormal_step_raises_before_f_is_called(self, rule):
        # without the check, integral_enclosure of the constant 1e300 on
        # [0, 1e-310] at n = 4 gives lower = upper = 1.0000000000000464e-10,
        # 4.9e-14 relative above the exact product
        fn, count = counting_fn1d(lambda t: 1e300 + 0.0 * t, positive=True)
        with pytest.raises(DomainError, match="step, 2.5e-311, falls below the smallest normal"):
            rule(fn, Interval(0.0, 1e-310), 4)
        assert count["n"] == 0
        # a normal step on a short interval keeps the exact value
        iv = Interval(0.0, 1e-300)
        exact = float(Fraction(1e300) * Fraction(iv.hi))
        assert integral_enclosure(fn, iv, 4) == BoundPair(exact, exact, 4, 9)

    def test_lattice_keeps_no_array_per_node(self):
        # a kept plan holds its lattices, which compute each node's k and n
        # when they are needed, not once for good
        lattice = Lattice((1 << 20,))

        def largest_held():
            return max(v.size for v in vars(lattice).values() if isinstance(v, np.ndarray))

        assert largest_held() <= len(lattice.counts) + 1
        assert lattice.nodes(UNIT)[[1, -2]].tolist() == [2.0 ** -20, 1.0 - 2.0 ** -20]
        assert lattice.twins().size == (1 << 20) + 1
        assert largest_held() <= len(lattice.counts) + 1

    def test_twins_group_nodes_built_alike(self):
        # node k of n cells is computed as k*(hi-lo)/n: two nodes share their
        # bits by construction when their fractions k/n are equal and their
        # counts a power of two apart (1 of 3, 2 of 6 and 4 of 12), or when
        # both are an end; 3 of 6 and 5 of 10 are both 1/2 but stay apart
        counts = (3, 6, 1, 12, 5, 10)
        lattice = Lattice(counts)

        def key(k, n):
            return Fraction(k, n) if k in (0, n) else (Fraction(k, n), n // (n & -n))

        keys = [key(k, n) for n in counts for k in range(n + 1)]
        twins = lattice.twins()
        assert twins.tolist() == [keys.index(k) for k in keys]
        assert len(set(twins.tolist())) == 22  # the ends, 11 of 12 and 9 of 10
        for iv in (UNIT, Interval(-0.3, 1.7), Interval(1e-3, 1e3)):
            nodes = lattice.nodes(iv)
            assert nodes[twins].tobytes() == nodes.tobytes()

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

    def test_expression_error_names_first_failing_point(self):
        ast = parse("1/(x-0.5)^0.5+y")
        xs = np.linspace(0.0, 1.0, 8)
        with pytest.raises(EvaluationError) as exc:
            evaluate(lambda x, y: eval_ast(ast, x, y), xs[::-1, None], xs[None, :])
        # rows run from x = 1 down; x = 3/7 is the first below 0.5
        assert exc.value.where == (float(xs[3]), 0.0)
        assert "offsets 3..13" in str(exc.value)

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


HUGE = Fn2D(eval=lambda x, y: 1e308 + 0.0 * x + 0.0 * y, positive=True)
UNIT_SQUARE = Rect(0.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("make, name", [
    (lambda: BoundPair(lower=math.inf, upper=math.inf, n=1, evals=3), "enclosure lower"),
    (lambda: BoundPair(lower=0.0, upper=math.nan, n=1, evals=3), "enclosure upper"),
    (lambda: BoundPair(lower=-1e308, upper=1e308, n=1, evals=3), "enclosure gap"),
    (lambda: OracleResult(value=math.inf, error_estimate=0.0, grid=64), "oracle value"),
    (lambda: OracleResult(value=1.0, error_estimate=math.nan, grid=64),
     "oracle error estimate"),
    (lambda: chain_report([("center", 1.0), ("mean", -math.inf)]), "chain term mean"),
    # every value of HUGE is finite; the sums in these n=4 bounds are not
    (lambda: centerline_bound(HUGE, UNIT_SQUARE, 4), "centerline_bound lhs"),
    (lambda: boundary_bound(HUGE, UNIT_SQUARE, 4), "boundary_bound lhs"),
    (lambda: positive_upper(HUGE, UNIT_SQUARE, 4), "positive_upper"),
])
def test_non_finite_result_is_evaluation_error(make, name):
    with pytest.raises(EvaluationError, match=f"^{name} is not finite"):
        make()


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


def _per_point_reference(ev, *args):
    """The scalar fallback as a plain loop: each point of the broadcast in
    row-major order, as Python floats, one call each, failing as the
    fallback has always failed."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    values = []
    for point in zip(*(np.broadcast_to(a, shape).flat for a in args)):
        point = tuple(map(float, point))
        try:
            values.append(float(ev(*point)))
        except (ArithmeticError, ValueError, EvaluationError) as exc:
            if getattr(exc, "where", None) is not None:
                raise
            raise EvaluationError(f"evaluation failed at {point}: {exc}", where=point) from exc
    return np.array(values, dtype=float).reshape(shape)


class _ScalarOnly:
    """A callback that refuses anything but Python floats, records the
    points it is called at and, at call ``fail_at`` of them, raises
    ``outcome`` or returns it if it is a float."""

    def __init__(self, fail_at=None, outcome=None):
        self.fail_at, self.outcome, self.points = fail_at, outcome, []

    def __call__(self, x, y):
        if type(x) is not float or type(y) is not float:
            raise TypeError("scalar-only callback")
        self.points.append((x, y))
        if len(self.points) - 1 == self.fail_at:
            if isinstance(self.outcome, float):
                return self.outcome
            raise self.outcome
        return math.sin(x) + 0.1 * y


def _near_square(n):
    k = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return k, n // k


#: (k, p) with k * p one below, at and one above a chunk
_GRIDS_AT_CHUNK = [g for n in (SCALAR_CHUNK - 1, SCALAR_CHUNK, SCALAR_CHUNK + 1)
                   for g in (_near_square(n), (1, n), (n, 1))]


@st.composite
def _broadcast_args(draw):
    kind = draw(st.sampled_from(["grid", "flat", "0-d", "empty"]))
    if kind == "grid":
        k, p = draw(st.one_of(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                              st.sampled_from(_GRIDS_AT_CHUNK)))
        shapes = [(k, 1), (1, p)]
    elif kind == "flat":
        n = draw(st.one_of(st.integers(1, 3 * SCALAR_CHUNK),
                           st.sampled_from([SCALAR_CHUNK - 1, SCALAR_CHUNK, SCALAR_CHUNK + 1])))
        shapes = [(n,), (n,)]
    elif kind == "0-d":
        shapes = [(), ()]
    else:
        shapes = draw(st.sampled_from([[(0,), (0,)], [(0, 1), (1, 5)], [(4, 1), (1, 0)]]))
    dtype = draw(st.sampled_from([np.float64, np.int64, np.int32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    args = []
    for shape in shapes:
        if dtype is np.float64:
            v = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), shape)
            v[rng.random(shape) < 0.05] = -0.0
        else:
            v = rng.integers(-1000, 1000, shape).astype(dtype)
        args.append(np.asarray(v))
    return args


class TestScalarFallback:
    """A scalar-only callback is fed from per-chunk lists; it must see what
    the plain per-point loop gives it and fail as that loop fails."""

    @settings(max_examples=80, deadline=None)
    @given(args=_broadcast_args())
    def test_matches_per_point_loop_bit_for_bit(self, args):
        ev, ref = _ScalarOnly(), _ScalarOnly()
        out = evaluate(ev, *args)
        expected = _per_point_reference(ref, *args)
        assert out.shape == expected.shape and out.dtype == np.float64
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()
        # once per point, Python floats (_ScalarOnly refuses anything else), row-major
        assert len(ev.points) == expected.size
        assert [tuple(map(float.hex, p)) for p in ev.points] == \
            [tuple(map(float.hex, p)) for p in ref.points]

    # 41 x 51 = 2091 points: two full chunks and a partial one
    ARGS = (np.linspace(-1.0, 1.0, 41)[:, None], np.linspace(0.0, 2.0, 51)[None, :])
    FAIL_AT = [0, SCALAR_CHUNK - 1, SCALAR_CHUNK, 41 * 51 - 1]

    @pytest.mark.parametrize("index", FAIL_AT)
    @pytest.mark.parametrize("make", [
        lambda: ValueError("math domain error"),
        lambda: ZeroDivisionError("float division by zero"),
        lambda: ArithmeticError("arithmetic"),
        lambda: EvaluationError("no point"),
        lambda: EvaluationError("has a point", where=(7.0, 8.0)),
    ], ids=["ValueError", "ZeroDivisionError", "ArithmeticError", "EvaluationError",
            "EvaluationError-where"])
    def test_failure_raises_what_the_loop_raises(self, make, index):
        ev, ref = _ScalarOnly(index, make()), _ScalarOnly(index, make())
        with pytest.raises(EvaluationError) as got:
            evaluate(ev, *self.ARGS)
        with pytest.raises(EvaluationError) as want:
            _per_point_reference(ref, *self.ARGS)
        assert len(ev.points) == index + 1
        assert str(got.value) == str(want.value)
        assert got.value.where == want.value.where
        if getattr(ev.outcome, "where", None) is not None:
            assert got.value is ev.outcome
        else:
            assert got.value.where == ev.points[index]
            assert got.value.__cause__ is ev.outcome

    @pytest.mark.parametrize("index", FAIL_AT)
    def test_type_error_propagates_raw(self, index):
        ev = _ScalarOnly(index, TypeError("unsupported operand"))
        with pytest.raises(TypeError) as got:
            evaluate(ev, *self.ARGS)
        assert got.value is ev.outcome
        assert len(ev.points) == index + 1

    @pytest.mark.parametrize("index", FAIL_AT)
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_names_its_point(self, index, bad):
        ev = _ScalarOnly(index, bad)
        with pytest.raises(EvaluationError) as got:
            evaluate(ev, *self.ARGS)
        assert str(got.value) == f"non-finite value at {ev.points[index]}"
        assert got.value.where == ev.points[index]
        assert len(ev.points) == 41 * 51

    def test_located_point_fails_like_the_fallback(self):
        # the array call fails without a point; bisection finds x = 0.25,
        # whose scalar call fails as the fallback's would
        def ev(x, y):
            if isinstance(x, np.ndarray):
                if (x >= 0.25).any():
                    raise EvaluationError("block fails")
                return x + y
            if x >= 0.25:
                raise ValueError("math domain error")
            return x + y

        xs = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(EvaluationError) as got:
            evaluate(ev, xs, 0.5)
        assert str(got.value) == "evaluation failed at (0.25, 0.5): math domain error"
        assert got.value.where == (0.25, 0.5)
        assert isinstance(got.value.__cause__, ValueError)

    def test_array_error_with_a_point_is_raised_as_is(self):
        raised = EvaluationError("fails at a point it names", where=(0.5, 0.25))

        def ev(x, y):
            raise raised

        with pytest.raises(EvaluationError) as got:
            evaluate(ev, np.linspace(0.0, 1.0, 9), 0.25)
        assert got.value is raised

    def test_block_error_no_single_point_has_is_raised_as_is(self):
        # only blocks of more than one point fail, so bisection ends at a
        # point whose scalar call succeeds, and the block's error stands
        raised = EvaluationError("fails only as a block")

        def ev(x, y):
            if np.size(x) > 1:
                raise raised
            return x + y

        with pytest.raises(EvaluationError) as got:
            evaluate(ev, np.linspace(0.0, 1.0, 9), 0.25)
        assert got.value is raised and got.value.where is None


_GATE_RECT = Rect(-0.5, 1.0, 0.0, 1.25)


@pytest.mark.parametrize("run, calls", [
    (lambda f: discrete_enclosure(f, _GATE_RECT, 4), 1),
    (lambda f: discrete_enclosure(f, _GATE_RECT, 128, 16), 18),
    (lambda f: reference_integral_2d(f, _GATE_RECT, 256), 2),
    (lambda f: reference_integral_2d(f, _GATE_RECT, 1024, target=1e-9), 24),
    (lambda f: check_coordinate_convexity(f, _GATE_RECT), 6),
], ids=["enclosure_pack", "enclosure_blocks", "oracle", "oracle_ladder", "gate"])
def test_array_callback_is_called_per_block_never_per_point(run, calls, monkeypatch):
    def fallback(*args):
        raise AssertionError("scalar fallback entered")

    monkeypatch.setattr(hh_bounds.bounds1d, "_per_point", fallback)
    seen = []

    def ev(x, y):
        seen.append((type(x), type(y)))
        return np.exp(0.5 * x) + y * y + np.abs(x - 0.2)

    run(Fn2D(eval=ev))
    # one call per pack, block or oracle level block, as before the chunked fallback
    assert len(seen) == calls
    assert set(seen) == {(np.ndarray, np.ndarray)}


@pytest.mark.parametrize("run", [
    lambda f: discrete_enclosure(f, _GATE_RECT, 128, 16),
    lambda f: reference_integral_2d(f, _GATE_RECT, 256),
], ids=["enclosure_blocks", "oracle"])
def test_result_that_ignores_a_variable_is_broadcast(run):
    # x * x has the shape of x alone on a row block: broadcast to the block,
    # it is never taken for a scalar-only callback, with the bits of
    # x * x + 0.0 * y
    seen = []

    def ev(x, y):
        seen.append((type(x), type(y)))
        return x * x

    assert run(Fn2D(eval=ev)) == run(Fn2D(eval=lambda x, y: x * x + 0.0 * y))
    assert set(seen) == {(np.ndarray, np.ndarray)}


def test_broadcast_result_keeps_its_bits():
    f, r = Fn2D(eval=lambda x, y: x * x), Rect(0.0, 1.0, 0.0, 1.0)
    bp = discrete_enclosure(f, r, 32, 16)
    assert (bp.lower.hex(), bp.upper.hex()) == ("0x1.554aa00000000p-2", "0x1.556ac00000000p-2")
    assert reference_integral_2d(f, r, 1024).value.hex() == "0x1.5555555555555p-2"


def test_zero_d_result_is_still_evaluated_once_per_point():
    # a 0-d result may be a reduction of the block, such as a norm
    seen = []

    def norm(x, y):
        seen.append(np.ndim(x))
        return np.linalg.norm([x, y])

    xs, ys = np.array([3.0, 5.0, 8.0]), np.array([4.0, 12.0, 15.0])
    assert evaluate(norm, xs, ys).tolist() == [5.0, 13.0, 17.0]
    assert seen == [1, 0, 0, 0]


#: A caller's ufunc buffer size other than numpy's default of 8,192.
CALLER_BUFSIZE = 4096


@pytest.fixture
def caller_bufsize():
    """The caller's ufunc buffer set to CALLER_BUFSIZE for one test."""
    caller = np.setbufsize(CALLER_BUFSIZE)
    try:
        yield CALLER_BUFSIZE
    finally:
        np.setbufsize(caller)


def _buffer_seen(seen):
    """A callback recording each call's shapes and ufunc buffer size."""
    def ev(x, y):
        seen.append((np.shape(x), np.shape(y), np.getbufsize()))
        return np.exp(0.5 * x) + y * y + np.abs(x - 0.2)

    return Fn2D(eval=ev)


@pytest.mark.parametrize("run", [
    lambda f: reference_integral_2d(f, _GATE_RECT, 1024),
    lambda f: discrete_enclosure(f, _GATE_RECT, 128, 16),
], ids=["oracle", "enclosure_blocks"])
def test_row_blocks_run_with_a_buffer_of_at_most_one_line(run):
    caller = np.getbufsize()
    seen = []
    run(_buffer_seen(seen))
    # a block is a column of lines against a row of points; its line is the row
    blocks = [(max(sx[-1], sy[-1]), size) for sx, sy, size in seen if len(sx) == 2]
    # at the caller's size, a buffer would span several lines
    assert blocks and all(line < caller for line, _ in blocks)
    for line, size in blocks:
        assert size % 16 == 0 and 16 <= size <= line
    assert np.getbufsize() == caller


@pytest.mark.parametrize("run", [
    lambda f: check_coordinate_convexity(f, _GATE_RECT),
    lambda f: spot_minimum(f, _GATE_RECT),
    lambda f: discrete_enclosure(f, _GATE_RECT, 4),
], ids=["gate", "spot_grid", "plan_flat_call"])
def test_flat_evaluations_see_the_callers_buffer(run, caller_bufsize):
    seen = []
    run(_buffer_seen(seen))
    assert seen and all(len(sx) == 1 for sx, _, _ in seen)
    assert {size for _, _, size in seen} == {caller_bufsize}


def test_row_block_buffer_is_at_least_16_and_at_most_the_callers():
    seen = []
    f = _buffer_seen(seen)
    caller = np.setbufsize(64)
    try:
        list(line_blocks(f.eval, "x", np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 1025)))
        list(line_blocks(f.eval, "y", np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 5)))
        assert np.getbufsize() == 64
    finally:
        np.setbufsize(caller)
    assert [size for _, _, size in seen] == [64, 16]


def _oracle_of_non_finite():
    f = Fn2D(eval=lambda x, y: np.where(x + y > 1.5, np.inf, x + y))
    with pytest.raises(EvaluationError) as got:
        reference_integral_2d(f, _GATE_RECT, 1024)
    assert got.value.where is not None


def _first_block_then_close():
    blocks = line_blocks(lambda x, y: x + y, "y", np.linspace(0.0, 1.0, 200),
                         np.linspace(0.0, 1.0, 1025))
    assert next(blocks).shape == (63, 1025)
    # put back before the block is yielded, not when the generator resumes
    assert np.getbufsize() == CALLER_BUFSIZE
    blocks.close()


@pytest.mark.parametrize("run", [
    lambda: reference_integral_2d(Fn2D(eval=lambda x, y: x * x + y * y), _GATE_RECT, 1024),
    _oracle_of_non_finite,
    lambda: reference_integral_2d(Fn2D(eval=lambda x, y: math.exp(x) + y * y), _GATE_RECT, 64),
    _first_block_then_close,
], ids=["oracle", "non_finite_block", "scalar_only", "generator_closed"])
def test_callers_buffer_is_back_after_row_blocks(run, caller_bufsize):
    run()
    assert np.getbufsize() == caller_bufsize


_SECOND_ENCLOSURE_FAULTS = """
import resource
from hh_bounds import Rect, discrete_enclosure
from hh_bounds.catalog import resolve_function
r = Rect(0.0, 1.0, 0.0, 1.0)
f = resolve_function("exp(x+y)+x*x", r)
discrete_enclosure(f, r, 128, 16)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
discrete_enclosure(f, r, 128, 16)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap reserve acts through glibc's malloc thresholds")
def test_row_blocks_reuse_their_heap_pages():
    # in a fresh interpreter, as malloc's thresholds are process state that
    # this one has moved already; the second enclosure's 18 row blocks
    # should find their temporaries' pages mapped, not fault about 2,300 in
    src = Path(hh_bounds.bounds1d.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", _SECOND_ENCLOSURE_FAULTS],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert int(run.stdout) < 100


@pytest.mark.parametrize("size", [MAX_POINTS, 2**31, 2**40])
@pytest.mark.parametrize("entry", [
    lambda fn, n: integral_enclosure(fn, UNIT, n),
    lambda fn, n: trapezoid_upper(fn, UNIT, n),
    lambda fn, n: deficit_upper(fn, UNIT, 0.5, n),
    lambda fn, n: reference_integral_1d(fn, UNIT, n),
], ids=["enclosure", "trapezoid", "deficit", "oracle_1d"])
def test_oversized_1d_request_fails_before_evaluating(entry, size):
    fn, count = counting_fn1d(lambda t: t * t, positive=True)
    with pytest.raises(DomainError, match=f"needs {size + 1} points, more than the cap"):
        entry(fn, size)
    assert count["n"] == 0


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

    def test_unreachable_tolerance_fails_fast(self):
        points = []

        def ev(t):
            points.append(np.size(t))
            return np.exp(5.0 * t)

        with pytest.raises(EvaluationError, match="more than 262144 subintervals"):
            adaptive_simpson(ev, -0.37, 1.1, 1e-300)
        # the refused level is never evaluated: three points, then two per subinterval
        assert sum(points) <= 3 + 2 * hh_bounds.schemes.MAX_SUBINTERVALS

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


def _lines_fn(g):
    """The ``fn`` of :func:`simpson_lines` for ``g(line, s)``, and line i of
    it alone as an ``adaptive_simpson`` callback: both name a failing point
    by ``s`` alone."""
    return (lambda line, s: evaluate(lambda t: g(line, t), s),
            lambda i: lambda t: g(np.full(np.shape(t), i), t))


class TestSimpsonLines:
    @pytest.mark.parametrize("level_nodes", [None, 1, 3])
    def test_each_line_as_alone(self, level_nodes, monkeypatch):
        if level_nodes is not None:
            monkeypatch.setattr(hh_bounds.schemes, "_LEVEL_NODES", level_nodes)
        shapes = (lambda t: _kinked(t), lambda t: np.cos(40.0 * t),
                  lambda t: np.sqrt(np.abs(t)), lambda t: t * t)
        points = []

        def g(line, t):
            points.append(t.size)
            return np.choose(line, [fn(t) for fn in shapes])

        fn, alone = _lines_fn(g)
        lo, hi = np.array([0.0, 0.0, -1.3, 0.5]), np.array([1.0, 1.0, 2.1, 0.75])
        tol = np.array([1e-12, 1e-10, 1e-10, 1e-9])
        values, failure = simpson_lines(fn, lo, hi, tol)
        together = sum(points)
        points.clear()
        assert failure is None
        assert [v.hex() for v in values.tolist()] == [
            adaptive_simpson(alone(i), lo[i], hi[i], tol[i]).hex() for i in range(4)]
        assert together == sum(points)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), level_nodes=st.sampled_from([1, 2, 3, 1024]))
    def test_each_drawn_line_as_alone(self, data, level_nodes):
        # a batch of lines of four shapes gets each line's bits, and
        # evaluates as many points, as the lines refined one by one
        shapes = (lambda t: _kinked(t), lambda t: np.cos(40.0 * t),
                  lambda t: np.sqrt(np.abs(t)), lambda t: t * t)
        count = data.draw(st.integers(1, 12))
        kinds = np.array(data.draw(st.lists(st.integers(0, 3), min_size=count,
                                            max_size=count)))
        lo = np.array(data.draw(st.lists(st.floats(-2.0, 1.0), min_size=count,
                                         max_size=count)))
        hi = lo + data.draw(st.lists(st.floats(0.1, 1.5), min_size=count, max_size=count))
        tol = 10.0 ** np.array(data.draw(st.lists(st.floats(-12.0, -6.0), min_size=count,
                                                  max_size=count)))
        points = []

        def g(line, t):
            points.append(t.size)
            return np.choose(kinds[line], [fn(t) for fn in shapes])

        fn, alone = _lines_fn(g)
        with mock.patch.object(hh_bounds.schemes, "_LEVEL_NODES", level_nodes):
            values, failure = simpson_lines(fn, lo, hi, tol)
            together = sum(points)
            points.clear()
            by_line = [adaptive_simpson(alone(i), lo[i], hi[i], tol[i]).hex()
                       for i in range(count)]
        assert failure is None
        assert [v.hex() for v in values.tolist()] == by_line
        assert together == sum(points)

    def test_one_call_per_depth_for_all_lines(self):
        sizes = []

        def g(line, t):
            sizes.append(t.size)
            return np.where(line == 0, _kinked(t), np.cos(40.0 * t))

        fn, _ = _lines_fn(g)
        simpson_lines(fn, np.zeros(2), np.ones(2), 1e-10)
        alone = []
        for f in (_kinked, lambda t: np.cos(40.0 * t)):
            calls = []
            adaptive_simpson(lambda t: calls.append(t.size) or f(t), 0.0, 1.0, 1e-10)
            alone.append(calls)
        # both lines' ends and midpoints, then every depth either line reaches
        assert sizes[0] == 6
        assert len(sizes) == max(map(len, alone))
        assert sum(sizes) == sum(map(sum, alone))

    @pytest.mark.parametrize("level_nodes", [None, 1, 3])
    @pytest.mark.parametrize("case", ["deep", "budget"])
    def test_first_failing_line_in_order_is_reported(self, case, level_nodes, monkeypatch):
        # the order is that of evaluation: line 1 fails at depth 4 or runs
        # out of subintervals, line 2 fails at a depth-0 quarter point and
        # line 3 at its midpoint, so the first failure met is line 3's in
        # one group of all four lines, line 2's in groups of three (line 3
        # starts once lines 0-2 are refined) and line 1's in groups of one
        if level_nodes is not None:
            monkeypatch.setattr(hh_bounds.schemes, "_LEVEL_NODES", level_nodes)
        if case == "budget":
            monkeypatch.setattr(hh_bounds.schemes, "MAX_SUBINTERVALS", 64)

        def g(line, t):
            one = np.exp(3.0 * t) if case == "deep" else np.sin(1e3 * t)
            bad = (((line == 1) & (t == 3.0 / 64.0) & (case == "deep"))
                   | ((line == 2) & (t == 0.75)) | ((line == 3) & (t == 0.5)))
            return np.where(bad, np.nan, np.where(line == 1, one,
                                                  np.where(line == 0, t * t, np.exp(3.0 * t))))

        fn, alone = _lines_fn(g)
        first = {None: 3, 3: 2, 1: 1}[level_nodes]
        with pytest.raises(EvaluationError) as exc:
            adaptive_simpson(alone(first), 0.0, 1.0, 1e-10)
        _, (i, err) = simpson_lines(fn, np.zeros(4), np.ones(4), 1e-10)
        assert (i, str(err), err.where) == (first, str(exc.value), exc.value.where)
        if first == 1 and case == "budget":
            assert str(err) == ("adaptive Simpson needs more than 64 subintervals "
                                "for this tolerance")
        else:
            assert err.where == {3: (0.5,), 2: (0.75,), 1: (3.0 / 64.0,)}[first]

    @pytest.mark.parametrize("level_nodes", [1, 3])
    def test_a_line_meets_its_hi_end_before_its_midpoint(self, level_nodes, monkeypatch):
        # line 3 of 5 fails at its hi end and at its midpoint: a line's
        # first points are its lo end, its hi end and its midpoint, in that
        # order, alone and in a batch of more lines than _LEVEL_NODES
        monkeypatch.setattr(hh_bounds.schemes, "_LEVEL_NODES", level_nodes)

        def g(line, t):
            return np.where((line == 3) & ((t == 1.0) | (t == 0.5)), np.nan, t * t)

        fn, alone = _lines_fn(g)
        with pytest.raises(EvaluationError) as exc:
            adaptive_simpson(alone(3), 0.0, 1.0, 1e-10)
        assert exc.value.where == (1.0,)
        _, (i, err) = simpson_lines(fn, np.zeros(5), np.ones(5), 1e-10)
        assert (i, str(err), err.where) == (3, str(exc.value), exc.value.where)

    def test_a_failing_line_reports_what_it_meets_first_alone(self, monkeypatch):
        # alone, line 1's four subintervals at depth 2 are one piece, and its
        # bad point at depth 2 is met first; refined beside line 0, a level
        # cut in the middle would split them across pieces and meet its bad
        # point at depth 3 first, so a level is cut between lines
        monkeypatch.setattr(hh_bounds.schemes, "_LEVEL_NODES", 4)

        def g(line, t):
            bad = (line == 1) & ((t == 1.0 / 32.0) | (t == 15.0 / 16.0))
            return np.where(bad, np.nan, np.where(line == 0, _kinked(t), np.exp(3.0 * t)))

        fn, alone = _lines_fn(g)
        with pytest.raises(EvaluationError) as exc:
            adaptive_simpson(alone(1), 0.0, 1.0, 1e-10)
        assert exc.value.where == (15.0 / 16.0,)
        _, (i, err) = simpson_lines(fn, np.zeros(2), np.ones(2), 1e-10)
        assert (i, str(err), err.where) == (1, str(exc.value), exc.value.where)

    @pytest.mark.parametrize("level_nodes", [None, 1, 3])
    def test_a_line_out_of_subintervals_is_refined_once(self, level_nodes, monkeypatch):
        # line 1 runs out of subintervals beside lines 0 and 2; its points
        # are evaluated once, as many as alone, not again alone to find
        # what it meets first
        if level_nodes is not None:
            monkeypatch.setattr(hh_bounds.schemes, "_LEVEL_NODES", level_nodes)
        monkeypatch.setattr(hh_bounds.schemes, "MAX_SUBINTERVALS", 64)
        points = []

        def g(line, t):
            points.append(np.count_nonzero(line == 1))
            return np.where(line == 1, np.sin(1e3 * t), _kinked(t))

        fn, alone = _lines_fn(g)
        with pytest.raises(EvaluationError) as exc:
            adaptive_simpson(alone(1), 0.0, 1.0, 1e-10)
        by_itself = sum(points)
        points.clear()
        _, (i, err) = simpson_lines(fn, np.zeros(3), np.ones(3), 1e-10)
        assert (i, str(err)) == (1, str(exc.value))
        assert sum(points) == by_itself


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
