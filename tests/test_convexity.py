import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hh_bounds
import hh_bounds.convexity
from expr_corpus import CORPUS, depth
from hh_bounds import (ConvexityReport, DomainError, EvaluationError, Fn2D, Interval, Rect,
                       check_coordinate_convexity, random_convex_1d,
                       random_coordinate_convex, spot_minimum)
from hh_bounds.catalog import resolve_function
from hh_bounds.convexity import (GATE_SAMPLES, GATE_TOL, _exact_lower, _exact_min, _lift,
                                 _shape, _Unproved)
from hh_bounds.expr import MAX_DEPTH, Binary, Number, Unary, Var, eval_ast, parse
from hh_bounds.rect import discrete_enclosure
from hh_bounds.verify import case_instance

UNIT2 = Rect(0.0, 1.0, 0.0, 1.0)


class TestChecker:
    def test_bilinear_passes(self):
        rep = check_coordinate_convexity(Fn2D(eval=lambda x, y: x * y), UNIT2,
                                         samples=1000, tol=1e-10, seed=3)
        assert rep.passed
        assert rep.max_violation >= -1e-13  # slack is identically 0 up to roundoff
        assert rep.samples == 2000

    def test_concave_in_x_fails_with_x_witness(self):
        rep = check_coordinate_convexity(Fn2D(eval=lambda x, y: -(x * x) + 0.0 * y),
                                         UNIT2, samples=1000, tol=1e-10, seed=3)
        assert not rep.passed
        assert rep.max_violation < 0
        assert rep.witness is not None
        assert rep.witness.axis == "x"
        assert 0.0 <= rep.witness.lam <= 1.0

    def test_sumsq_passes(self):
        rep = check_coordinate_convexity(Fn2D(eval=lambda x, y: x * x + y * y),
                                         Rect(-2.0, 1.0, 0.5, 3.0),
                                         samples=1000, tol=1e-10, seed=0)
        assert rep.passed
        assert rep.max_violation >= -1e-13

    def test_witness_present_whenever_negative(self):
        # tiny concavity below tol: passes, but the witness is still reported
        eps = 1e-12
        rep = check_coordinate_convexity(Fn2D(eval=lambda x, y: -eps * x * x + y),
                                         UNIT2, samples=2000, tol=1e-10, seed=1)
        assert rep.passed
        assert rep.max_violation < 0
        assert rep.witness is not None

    def test_deterministic_given_seed(self):
        f = Fn2D(eval=lambda x, y: x * x + np.abs(y - 0.3))
        a = check_coordinate_convexity(f, UNIT2, 500, 1e-10, seed=9)
        b = check_coordinate_convexity(f, UNIT2, 500, 1e-10, seed=9)
        assert a == b

    def test_validates_parameters(self):
        f = Fn2D(eval=lambda x, y: x + y)
        with pytest.raises(DomainError):
            check_coordinate_convexity(f, UNIT2, samples=0)
        with pytest.raises(DomainError):
            check_coordinate_convexity(f, UNIT2, tol=-1.0)
        # max_violation >= -nan is False: a NaN tolerance would reject everything
        with pytest.raises(DomainError):
            check_coordinate_convexity(f, UNIT2, tol=math.nan)
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            check_coordinate_convexity(f, UNIT2, seed=-1)

    def test_runaway_samples_fail_before_anything_is_drawn(self, monkeypatch):
        # three evaluations of `samples` points per axis: 6 * 17 = 102 points
        # exceed a cap of 100, before the proof and before any draw
        monkeypatch.setattr(hh_bounds.bounds1d, "MAX_POINTS", 100)
        monkeypatch.setattr(hh_bounds.convexity, "_proves",
                            lambda *args: pytest.fail("the proof ran"))
        seen = []
        f = Fn2D(eval=lambda x, y: seen.append(x) or x * y, expr=parse("x*y"))
        with pytest.raises(DomainError, match="samples=17 needs 102 points, more than the cap"):
            check_coordinate_convexity(f, UNIT2, samples=17)
        assert seen == []
        # 6 * 16 = 96 points are within it
        rep = check_coordinate_convexity(dataclasses.replace(f, expr=None), UNIT2, samples=16)
        assert rep.samples == 32 and len(seen) == 6

    def test_evaluation_pattern(self):
        # three calls per axis (u1, u2, blend), x-axis first, each over all
        # samples: a merged block was slower on generated functions, and the
        # order decides which failing point an EvaluationError names
        calls = []

        def ev(x, y):
            calls.append((x, y))
            return x * x + y * y

        check_coordinate_convexity(Fn2D(eval=ev), UNIT2, samples=257)
        assert len(calls) == 6
        assert all(np.shape(x) == np.shape(y) == (257,) for x, y in calls)
        assert all(calls[k][1] is calls[0][1] for k in (1, 2))
        assert all(calls[k][0] is calls[3][0] for k in (4, 5))
        assert not np.array_equal(calls[0][0], calls[1][0])

    def test_flags_saddle_within_100_seeds(self):
        # concave in x, convex in y; every one of 100 seeded runs must reject
        f = Fn2D(eval=lambda x, y: -((x - 0.5) ** 2) + y * y)
        rejections = sum(
            not check_coordinate_convexity(f, UNIT2, 10_000, 1e-10, seed=s).passed
            for s in range(100))
        assert rejections == 100


class TestRoundoffAllowance:
    # each chord may fall below 0 by the rounding error of its slack, so a
    # valid function is not rejected for its scale; expressions from
    # resolve_function carry no tree, so the gate samples them
    @pytest.mark.parametrize("r", [UNIT2, Rect(-0.4, 1.3, -0.2, 1.1)])
    def test_steep_exponential_passes(self, r):
        rep = check_coordinate_convexity(resolve_function("exp(50*x)", r), r, seed=1)
        assert rep.passed
        assert rep.max_violation < -1e5  # far below GATE_TOL: the allowance passes it

    def test_large_offset_passes(self):
        # a large-magnitude input of the benchmark's cli-expr stream (seed 1)
        src = ("10000000.670434713+0.3173020560680859*x+0.0964289816704319*y"
               "+1.1997552885440075*x^2*y^2")
        rep = check_coordinate_convexity(resolve_function(src, UNIT2), UNIT2)
        assert rep.passed
        assert rep.max_violation < -GATE_TOL

    def test_concavity_at_large_offset_is_rejected(self):
        # worst slack about -0.24 against an allowance of about 2e-8
        rep = check_coordinate_convexity(resolve_function("1e7-x^2", UNIT2), UNIT2)
        assert not rep.passed
        assert rep.witness.axis == "x"

    @pytest.mark.parametrize("r", [UNIT2, Rect(-1.0, 0.5, -0.75, 1.25)])
    def test_corpus_verdicts_match_the_absolute_tolerance(self, r):
        # no corpus tree needs the allowance, and every one whose worst
        # slack is below -GATE_TOL is still rejected
        rejected = 0
        for src, _ in CORPUS:
            ast = parse(src)
            rep = check_coordinate_convexity(Fn2D(eval=lambda x, y: eval_ast(ast, x, y)), r)
            assert rep.passed == (rep.max_violation >= -GATE_TOL), src
            rejected += not rep.passed
        assert rejected == (4 if r == UNIT2 else 15)


class TestGenerator2D:
    def test_generated_functions_pass_checker(self):
        r = Rect(-1.0, 0.8, -0.3, 1.5)
        for seed in range(30):
            f = random_coordinate_convex(seed, r, 1 + seed % 4)
            rep = check_coordinate_convexity(f, r, 10_000, 1e-10, seed=seed + 1)
            assert rep.passed, f"seed {seed}: {rep}"

    def test_affine_only_variant(self):
        f = random_coordinate_convex(11, UNIT2, 0)
        rep = check_coordinate_convexity(f, UNIT2, 2000, 1e-10, seed=2)
        assert rep.passed

    def test_determinism(self):
        r = Rect(0.0, 2.0, -1.0, 1.0)
        f = random_coordinate_convex(123, r, 3)
        g = random_coordinate_convex(123, r, 3)
        pts = np.random.default_rng(0).uniform(-1.0, 2.0, (2, 50))
        assert np.array_equal(f.eval(pts[0], pts[1]), g.eval(pts[0], pts[1]))

    def test_positive_flag_matches_grid(self):
        r = Rect(-0.5, 1.0, 0.0, 1.25)
        seen_positive = 0
        for seed in range(40):
            f = random_coordinate_convex(seed, r, 2)
            lo = spot_minimum(f, r)
            assert f.positive == (lo > 0.0)
            seen_positive += int(f.positive)
        assert 0 < seen_positive < 40  # the corpus mixes positive and not

    def test_rejects_negative_atom_count(self):
        with pytest.raises(DomainError):
            random_coordinate_convex(1, UNIT2, -1)


class TestGenerator1D:
    def _slack_min(self, fn, iv, samples, seed):
        rng = np.random.default_rng(seed)
        u1 = rng.uniform(iv.lo, iv.hi, samples)
        u2 = rng.uniform(iv.lo, iv.hi, samples)
        lam = rng.uniform(0.0, 1.0, samples)
        s = lam * fn.eval(u1) + (1 - lam) * fn.eval(u2) - fn.eval(lam * u1 + (1 - lam) * u2)
        return float(np.min(s))

    def test_generated_are_convex(self):
        iv = Interval(-1.2, 1.7)
        for seed in range(25):
            fn = random_convex_1d(seed, iv, 1 + seed % 4)
            assert self._slack_min(fn, iv, 5000, seed) >= -1e-10

    def test_ensure_positive(self):
        iv = Interval(-2.0, 0.5)
        for seed in range(25):
            fn = random_convex_1d(seed, iv, 2, ensure_positive=True)
            assert fn.positive
            grid = np.linspace(iv.lo, iv.hi, 501)
            assert float(fn.eval(grid).min()) > 0.0


def _with_tree(src: str) -> Fn2D:
    ast = parse(src)
    return Fn2D(eval=lambda x, y: eval_ast(ast, x, y), expr=ast)


def _lifted_line(slope: float, iv: Interval) -> tuple[float, Fraction]:
    """The generator's lifted linear atom slope*t + intercept on ``iv``:
    its intercept, and its exact minimum over ``iv``."""
    intercept = 0.25
    low = min(slope * iv.lo + intercept, slope * iv.hi + intercept)
    intercept -= low
    exact = min(Fraction(slope) * Fraction(t) + Fraction(intercept) for t in (iv.lo, iv.hi))
    return intercept, exact


LIFT_RECT = Rect(0.0, 1.0, 0.1, 1.3)


class TestProof:
    @pytest.mark.parametrize("src", [
        "x*y", "exp(x+y)", "abs(x-0.5)+abs(y-0.5)", "x^2*y^2", "x*x+y*y",
        "max(x^2,exp(y))+3*abs(x-y)", "-(0-x^2)*(y+2)", "(x+y)^4-x*y"])
    def test_proves_from_the_tree(self, src):
        rep = check_coordinate_convexity(_with_tree(src), Rect(-1.0, 0.5, -0.75, 1.25))
        assert rep == ConvexityReport(samples=0, max_violation=math.inf, witness=None,
                                      passed=True)

    @pytest.mark.parametrize("src, r", [
        *((src, Rect(-1.0, 0.5, -0.75, 1.25)) for src in (
            "0-x^2", "-(x-0.5)^2+y^2", "x^3", "min(x^2,1)", "exp(-x^2)", "x^2*(y-0.1)",
            "x^2*y^2*(x-y)", "abs(x^2-y)", "max(x^2,-y^2)")),
        ("1/x", Rect(0.5, 1.0, 0.0, 1.0)), ("(x-0.5)^0.5", Rect(0.5, 1.0, 0.0, 1.0))])
    def test_leaves_trees_outside_the_rules_to_the_sampler(self, src, r):
        # none is proved: each is concave or not convex along some line of
        # its rectangle, or falls outside the rules (/, min, an odd or
        # fractional power, max of a concave term); the first rectangle
        # spans 0 on both axes
        rep = check_coordinate_convexity(_with_tree(src), r)
        assert rep.samples == 2 * GATE_SAMPLES

    def test_lifted_line_below_zero_exactly_is_not_proved(self):
        slope = -5 / 7
        intercept, exact = _lifted_line(slope, LIFT_RECT.y_interval)
        assert exact < 0  # the float lift leaves the line just below 0
        f = _with_tree(f"x*x*({slope!r}*y+{intercept!r})")
        assert check_coordinate_convexity(f, LIFT_RECT).samples == 2 * GATE_SAMPLES

    def test_lifted_line_at_or_above_zero_exactly_is_proved(self, monkeypatch):
        slope = -4 / 7
        intercept, exact = _lifted_line(slope, LIFT_RECT.y_interval)
        assert exact >= 0
        f = _with_tree(f"x*x*({slope!r}*y+{intercept!r})")
        assert check_coordinate_convexity(f, LIFT_RECT).samples == 0
        # the float interval alone falls just below 0: the exact re-check proves it
        monkeypatch.setattr(hh_bounds.convexity, "_exact_lower", lambda node, r: -1)
        assert check_coordinate_convexity(f, LIFT_RECT).samples == 2 * GATE_SAMPLES

    def test_overflowing_range_is_not_proved(self):
        # the sampler, not the proof, meets the overflow and names a point
        with pytest.raises(EvaluationError, match="non-finite"):
            check_coordinate_convexity(_with_tree("exp(800*x)*0+y^2"), UNIT2, samples=10)

    def test_validates_parameters_before_proving(self):
        f = _with_tree("x*y")
        with pytest.raises(DomainError):
            check_coordinate_convexity(f, UNIT2, samples=0)
        with pytest.raises(DomainError):
            check_coordinate_convexity(f, UNIT2, tol=math.nan)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            check_coordinate_convexity(f, UNIT2, seed=-1)

    def test_counting_callback_sees_no_gate_evaluation_when_proved(self):
        for src, points in (("x^2+exp(y)", 0), ("x^2+exp(y)-x*x*y", 3 * 2 * GATE_SAMPLES)):
            f = _with_tree(src)
            seen = []
            counted = dataclasses.replace(
                f, eval=lambda x, y: seen.append(np.broadcast(x, y).size) or f.eval(x, y))
            check_coordinate_convexity(counted, UNIT2)
            assert sum(seen) == points, src

    @pytest.mark.parametrize("r", [UNIT2, Rect(-1.0, 0.5, -0.75, 1.25)])
    def test_every_proved_corpus_tree_passes_the_sampler(self, r):
        proved = 0
        for src, _ in CORPUS:
            f = _with_tree(src)
            if check_coordinate_convexity(f, r).samples:
                continue
            proved += 1
            rep = check_coordinate_convexity(dataclasses.replace(f, expr=None), r, seed=1)
            assert rep.max_violation >= -GATE_TOL, src
        assert proved >= 49  # of 70

    def test_every_proved_generated_instance_passes_the_sampler(self):
        proved = 0
        for index in range(400):
            r, f, context = case_instance(5, index)
            if check_coordinate_convexity(f, r).samples:
                continue
            proved += 1
            rep = check_coordinate_convexity(dataclasses.replace(f, expr=None), r, seed=index)
            assert rep.max_violation >= -GATE_TOL, context
        assert proved == 400

    def test_tree_and_callback_agree_bit_for_bit(self):
        for seed in range(200):
            r, _, _ = case_instance(0, seed)
            f = random_coordinate_convex(seed, r, seed % 5)
            xs, ys = np.meshgrid(np.linspace(r.a, r.b, 33), np.linspace(r.c, r.d, 33))
            tree, callback = eval_ast(f.expr, xs, ys), f.eval(xs, ys)
            assert tree.shape == callback.shape == (33, 33)
            assert tree.tobytes() == callback.tobytes(), seed


def _inputs(lo: float, hi: float, other_lo: float, other_hi: float):
    """Scalar, flat and (k,1) x (1,p) inputs over a rectangle."""
    u = np.linspace(lo, hi, 7)
    v = np.linspace(other_lo, other_hi, 5)
    return [(float(u[2]), float(v[3])), (np.tile(u, 5), np.repeat(v, 7)),
            (u[:, None], v[None, :])]


def _bits(value):
    return type(value), np.shape(value), np.asarray(value).tobytes()


class TestGeneratorsEvaluateTheirTrees:
    def test_2d_evaluator_is_the_tree_bit_for_bit(self):
        for seed in range(60):
            r, _, _ = case_instance(3, seed)
            f = random_coordinate_convex(seed, r, seed % 6)
            for x, y in _inputs(r.a, r.b, r.c, r.d):
                assert _bits(f.eval(x, y)) == _bits(eval_ast(f.expr, x, y)), seed

    def test_1d_evaluator_is_the_tree_bit_for_bit(self, monkeypatch):
        trees = []
        program = hh_bounds.convexity.program
        monkeypatch.setattr(hh_bounds.convexity, "program",
                            lambda node: trees.append(node) or program(node))
        iv = Interval(-1.2, 1.7)
        for seed in range(60):
            fn = random_convex_1d(seed, iv, seed % 6, ensure_positive=bool(seed % 2))
            tree = trees[-1]
            assert tree.__dict__["_compiled"].keys() == {None}  # eval_ast never compiled it
            for t, _ in _inputs(iv.lo, iv.hi, 0.0, 1.0):
                assert _bits(fn.eval(t)) == _bits(eval_ast(tree, t, 0.0)), seed

    def test_evaluating_a_generated_instance_never_calls_eval_ast(self, monkeypatch):
        calls = []
        original = hh_bounds.expr.eval_ast
        for module in (hh_bounds, hh_bounds.expr, hh_bounds.catalog):
            monkeypatch.setattr(module, "eval_ast",
                                lambda *args: calls.append(args) or original(*args))
        r = Rect(-0.5, 1.0, 0.0, 1.25)
        f = random_coordinate_convex(7, r, 4)
        f.eval(np.linspace(r.a, r.b, 9), 0.5)
        check_coordinate_convexity(dataclasses.replace(f, expr=None), r, samples=100)
        discrete_enclosure(f, r, 2, 2)
        random_convex_1d(7, Interval(0.0, 1.0), 4).eval(np.linspace(0.0, 1.0, 9))
        assert calls == []

    @pytest.mark.parametrize("atoms", [MAX_DEPTH - 4, 1000])
    def test_too_many_atoms_for_the_depth_cap_fail_at_once(self, atoms, monkeypatch):
        monkeypatch.setattr(hh_bounds.convexity, "program", None)  # nothing is built
        with pytest.raises(DomainError, match=f"atom_count must be in \\[0, {MAX_DEPTH - 5}\\]"):
            random_coordinate_convex(1, UNIT2, atoms)
        with pytest.raises(DomainError, match="atom_count"):
            random_convex_1d(1, Interval(0.0, 1.0), atoms)

    def test_most_atoms_stay_within_the_depth_cap(self):
        deepest = 0
        for seed in range(20):
            f = random_coordinate_convex(seed, UNIT2, MAX_DEPTH - 5)
            deepest = max(deepest, depth(f.expr))
            check_coordinate_convexity(f, UNIT2)  # every walk of the tree fits the stack
        assert deepest == MAX_DEPTH
        random_convex_1d(0, Interval(0.0, 1.0), MAX_DEPTH - 5)


def _rational_min(node, x: tuple, y: tuple) -> Fraction:
    """The reference for :func:`_exact_min`: the lower end of a polynomial
    tree's interval over ``x`` x ``y``, walked in exact rationals."""
    def walk(n):
        match n:
            case Number(value=v):
                return Fraction(v), Fraction(v)
            case Var(name=name):
                return tuple(map(Fraction, x if name == "x" else y))
            case Unary(op="neg", arg=a):
                lo, hi = walk(a)
                return -hi, -lo
            case Binary(op="+", left=a, right=b):
                (alo, ahi), (blo, bhi) = walk(a), walk(b)
                return alo + blo, ahi + bhi
            case Binary(op="-", left=a, right=b):
                (alo, ahi), (blo, bhi) = walk(a), walk(b)
                return alo - bhi, ahi - blo
            case Binary(op="*", left=a, right=b):
                (alo, ahi), (blo, bhi) = walk(a), walk(b)
                ends = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
                return min(ends), max(ends)
        raise AssertionError(f"not a polynomial node: {n}")

    return walk(node)[0]


def _dyadic_value(m: int, e: int) -> Fraction:
    return Fraction(m) * Fraction(2) ** e


def _line(slope: float, intercept: float):
    """slope*y + intercept, as the generator draws a linear atom."""
    return Binary("+", Binary("*", Number(slope), Var("y")), Number(intercept))


#: Floats of every kind: subnormals, both zeros, magnitudes near 1e308.
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                     -1.7976931348623157e308, 1.7976931348623157e308]))
_RANGES = st.tuples(_FLOATS, _FLOATS).map(lambda ends: tuple(sorted(ends)))
_POLYNOMIALS = st.recursive(
    st.one_of(st.builds(Number, _FLOATS), st.sampled_from([Var("x"), Var("y")])),
    lambda kids: st.one_of(st.builds(lambda a: Unary("neg", a), kids),
                           st.builds(Binary, st.sampled_from("+-*"), kids, kids)),
    max_leaves=12)


class TestExactMinimum:
    @settings(max_examples=400, deadline=None)
    @given(_POLYNOMIALS, _RANGES, _RANGES)
    def test_integer_walk_is_the_rational_walk(self, node, x, y):
        assert _dyadic_value(*_exact_min(node, x, y)) == _rational_min(node, x, y)

    @pytest.mark.parametrize("slope, below", [(-5 / 7, True), (-4 / 7, False)])
    def test_lifted_lines(self, slope, below):
        intercept, exact = _lifted_line(slope, LIFT_RECT.y_interval)
        atom, y = _line(slope, intercept), (LIFT_RECT.c, LIFT_RECT.d)
        assert _dyadic_value(*_exact_min(atom, (LIFT_RECT.a, LIFT_RECT.b), y)) == exact
        assert exact == _rational_min(atom, (LIFT_RECT.a, LIFT_RECT.b), y)
        assert (_exact_lower(atom, LIFT_RECT) < 0) == below

    def test_a_tree_that_is_not_a_polynomial_has_no_exact_minimum(self):
        assert _exact_lower(parse("exp(y)*2"), LIFT_RECT) == -1


def _ulp_loop_lift(slope: float, intercept: float, lo: float, hi: float) -> float:
    """The reference for :func:`_lift`: the float lift, then one ulp at a
    time until the line's minimum on [lo, hi] is at least 0 in rationals."""
    low = min(slope * lo + intercept, slope * hi + intercept)
    if low < 0.0:
        intercept -= low
    for _ in range(1000):
        if _rational_min(_line(slope, intercept), (lo, hi), (lo, hi)) >= 0:
            return intercept
        intercept = math.nextafter(intercept, math.inf)
    raise AssertionError("no lift within 1000 ulps")


_INTERVALS = st.one_of(
    st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)).filter(lambda t: t[0] < t[1]),
    st.tuples(st.floats(-4.0, -1e-300), st.floats(1e-300, 4.0)),  # straddles 0
    st.floats(-4.0, 4.0).map(lambda v: (v, math.nextafter(v, math.inf))),  # one ulp wide
    st.tuples(st.floats(-4.0, 4.0), st.integers(2, 64)).map(
        lambda t: (t[0], t[0] + t[1] * math.ulp(t[0]))))


class TestClosedFormLift:
    @settings(max_examples=600, deadline=None)
    @given(st.floats(-1.5, 1.5), st.floats(0.0, 1.0, exclude_max=True), _INTERVALS)
    @example(-5 / 7, 0.25, (LIFT_RECT.c, LIFT_RECT.d))
    @example(1.5, 0.0, (-1.0, 0.5))
    def test_closed_form_is_the_ulp_loop(self, slope, intercept, iv):
        assert _lift(slope, intercept, *iv).hex() == _ulp_loop_lift(slope, intercept, *iv).hex()

    def test_lifts_past_a_float_lift_below_zero(self):
        # the float lift of -5/7*y + 0.25 leaves its exact minimum below 0
        lifted, exact = _lifted_line(-5 / 7, LIFT_RECT.y_interval)
        assert exact < 0
        got = _lift(-5 / 7, 0.25, LIFT_RECT.c, LIFT_RECT.d)
        assert got > lifted
        assert got == _ulp_loop_lift(-5 / 7, 0.25, LIFT_RECT.c, LIFT_RECT.d)
        assert _rational_min(_line(-5 / 7, got), (0.0, 0.0), (LIFT_RECT.c, LIFT_RECT.d)) >= 0

    def test_every_generated_linear_atom(self, monkeypatch):
        lift, seen = hh_bounds.convexity._lift, []

        def recorded(*args):
            seen.append((args, lift(*args)))
            return seen[-1][1]

        monkeypatch.setattr(hh_bounds.convexity, "_lift", recorded)
        for seed in range(500):
            for r in (UNIT2, Rect(-1.0, 0.5, -0.75, 1.25)):
                random_coordinate_convex(seed, r, 4)
        assert len(seen) > 1500
        for args, got in seen:
            assert got.hex() == _ulp_loop_lift(*args).hex(), args


#: The proof's output, recorded before its walk was rewritten with one
#: dispatch per node: "curvature-in-x curvature-in-y lo hi", the ends as
#: ``float.hex``, or "unproved", per tree and rectangle. The second rectangle spans 0 on both
#: axes, the third lies left of 0 in y.
SHAPE_GOLDEN = Path(__file__).resolve().parent / "data" / "proof_shapes.json"
SHAPE_RECTS = (UNIT2, Rect(-1.0, 0.5, -0.75, 1.25), Rect(0.5, 3.0, -2.0, -0.25))
#: The corpus entries the golden was recorded on; the later ones pin the parser
SHAPE_CORPUS = 51


def shape_records() -> dict[str, str]:
    """The proof's shape of the first :data:`SHAPE_CORPUS` corpus trees on
    :data:`SHAPE_RECTS`, and of ``case_instance(s, i)`` for s = 1-3, i < 200,
    on its own rectangle and on :data:`SHAPE_RECTS`."""
    def shape(node, r):
        try:
            cx, cy, lo, hi = _shape(node, r)
        except (_Unproved, OverflowError):
            return "unproved"
        return f"{cx} {cy} {float(lo).hex()} {float(hi).hex()}"

    out = {}
    for k, (src, _) in enumerate(CORPUS[:SHAPE_CORPUS]):
        for j, r in enumerate(SHAPE_RECTS):
            out[f"corpus {k} {src!r} rect={j}"] = shape(parse(src), r)
    for seed in (1, 2, 3):
        for index in range(200):
            own, f, _ = case_instance(seed, index)
            for j, r in enumerate((own, *SHAPE_RECTS)):
                out[f"case seed={seed} index={index} rect={j}"] = shape(f.expr, r)
    return out


def test_proof_shapes_match_golden():
    want = json.loads(SHAPE_GOLDEN.read_text(encoding="utf-8"))
    got = shape_records()
    assert got.keys() == want.keys()
    assert [k for k in want if got[k] != want[k]] == []
