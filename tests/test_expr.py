import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hh_bounds import EvaluationError, Rect, expr
from hh_bounds.catalog import resolve_function
from hh_bounds.convexity import random_coordinate_convex
from hh_bounds.expr import (MAX_DEPTH, Binary, Call, Number, ParseError, Unary, Var,
                            eval_ast, parse, program, to_string)
from hh_bounds.rect import with_positivity

from expr_corpus import CORPUS, MALFORMED, depth


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 50
    assert len(MALFORMED) >= 20


@pytest.mark.parametrize("src,expected", CORPUS, ids=[s or "<empty>" for s, _ in CORPUS])
def test_parses_to_expected_tree(src, expected):
    assert parse(src) == expected


@pytest.mark.parametrize("src,span", MALFORMED, ids=[repr(s) for s, _ in MALFORMED])
def test_malformed_positions_inside_token(src, span):
    with pytest.raises(ParseError) as exc:
        parse(src)
    pos = exc.value.position
    assert span[0] <= pos <= span[1]
    assert 0 <= pos <= len(src)
    assert exc.value.expected


@pytest.mark.parametrize("src,expected", CORPUS, ids=[s or "<empty>" for s, _ in CORPUS])
def test_round_trip(src, expected):
    printed = to_string(parse(src))
    assert parse(printed) == expected


class TestEval:
    def test_examples(self):
        assert eval_ast(parse("x*y"), 0.5, 0.5) == pytest.approx(0.25)
        assert eval_ast(parse("x^2+y^2"), 1.0, 1.0) == pytest.approx(2.0)
        assert eval_ast(parse("max(x,y)"), 0.2, 0.7) == pytest.approx(0.7)
        assert eval_ast(parse("min(x,y)"), 0.2, 0.7) == pytest.approx(0.2)

    def test_precedence(self):
        assert eval_ast(parse("2+3*4^2"), 0.0, 0.0) == pytest.approx(50.0)
        assert eval_ast(parse("-x^2"), 2.0, 0.0) == pytest.approx(-4.0)

    def test_vectorized(self):
        xs = np.linspace(0.0, 1.0, 11)
        ys = np.full_like(xs, 0.5)
        out = eval_ast(parse("exp(x)*y+abs(x-0.5)"), xs, ys)
        assert out.shape == xs.shape
        assert out[0] == pytest.approx(0.5 * 1.0 + 0.5)

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            eval_ast(parse("1/x"), 0.0, 1.0)

    def test_negative_base_fractional_power_raises(self):
        with pytest.raises(EvaluationError):
            eval_ast(parse("x^0.5"), -1.0, 0.0)

    def test_overflow_raises(self):
        with pytest.raises(EvaluationError):
            eval_ast(parse("exp(exp(exp(x)))"), 100.0, 0.0)

    def test_error_carries_location(self):
        with pytest.raises(EvaluationError) as exc:
            eval_ast(parse("1+y/x"), 0.0, 1.0)
        assert "offsets 2..5" in str(exc.value)

    @pytest.mark.parametrize("x", [1.0, np.array([0.0, 1.0])])
    def test_every_node_is_checked_not_only_the_root(self, x):
        # exp(1000) overflows; 1/inf would be a finite 0 at the root
        with pytest.raises(EvaluationError) as exc:
            eval_ast(parse("1/exp(1000*x)"), x, 0.0)
        assert "offsets 2..13" in str(exc.value)


@pytest.mark.parametrize("src", ["1", "2.5*3", "x^2", "exp(y)"])
def test_resolved_expression_values_take_the_broadcast_shape(src):
    # constant and one-variable expressions are not scalar-only callbacks
    fn = resolve_function(src, Rect(0.0, 1.0, 0.0, 1.0))
    xs, ys = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3)
    out = fn.eval(xs[:, None], ys[None, :])
    assert out.shape == (len(xs), len(ys))
    ast = parse(src)
    assert np.array_equal(out, [[eval_ast(ast, x, y) for y in ys] for x in xs])


#: The named entries as the lambdas they were before they became expressions.
_NAMED_LAMBDAS = {
    "xy": lambda x, y: x * y,
    "sumsq": lambda x, y: x * x + y * y,
    "expsum": lambda x, y: np.exp(x + y),
    "absdist": lambda x, y: np.abs(x - 0.5) + np.abs(y - 0.5),
    "const1": lambda x, y: 1.0 + 0.0 * x + 0.0 * y,
}


@pytest.mark.parametrize("rect", [Rect(0.0, 1.0, 0.0, 1.0), Rect(-2.0, 1.0, 0.5, 3.0),
                                  Rect(-0.37, 1.1, -1.9, -0.13)])
@pytest.mark.parametrize("name", sorted(_NAMED_LAMBDAS))
def test_named_entries_are_their_lambdas_bit_for_bit(name, rect):
    fn, want = resolve_function(name, rect), _NAMED_LAMBDAS[name]
    assert fn.expr is None  # no tree yet: the gate samples them
    assert fn.positive == with_positivity(want, rect).positive
    xs, ys = np.linspace(rect.a, rect.b, 9), np.linspace(rect.c, rect.d, 5)
    flat = [a.ravel() for a in np.broadcast_arrays(xs[:, None], ys[None, :])]
    # row blocks both ways, a flat call and Python floats
    for x, y in ((xs[None, :], ys[:, None]), (xs[:, None], ys[None, :]), flat,
                 (float(xs[3]), float(ys[1])), (0.5, 0.5)):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        got, expected = (np.broadcast_to(np.asarray(g(x, y), dtype=float), shape).tobytes()
                         for g in (fn.eval, want))
        assert got == expected


class TestGrammarDetails:
    def test_signed_exponent(self):
        assert parse("x^-2") == Binary("^", Var("x"), Number(-2.0))
        assert eval_ast(parse("x^-2"), 2.0, 0.0) == pytest.approx(0.25)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x")

    def test_position_bounds_invariant(self):
        for src, _ in MALFORMED:
            with pytest.raises(ParseError) as exc:
                parse(src)
            assert 0 <= exc.value.position <= len(src)

    def test_spans_do_not_affect_equality(self):
        assert parse("x+y") == parse(" x + y ")


_numbers = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                     allow_infinity=False).map(lambda v: Number(float(v)))
_leaves = st.one_of(st.just(Var("x")), st.just(Var("y")), _numbers)


def _compound(children):
    bin_ops = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.builds(lambda a: Unary("neg", a), children),
        st.builds(lambda a: Unary("abs", a), children),
        st.builds(lambda a: Unary("exp", a), children),
        st.builds(lambda op, l, r: Binary(op, l, r), bin_ops, children, children),
        st.builds(lambda l, e: Binary("^", l, e), children, _numbers),
        st.builds(lambda a, b: Call("max", (a, b)), children, children),
        st.builds(lambda a, b: Call("min", (a, b)), children, children),
    )


_trees = st.recursive(_leaves, _compound, max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(tree=_trees)
def test_round_trip_random_trees(tree):
    assert parse(to_string(tree)) == tree


@pytest.mark.parametrize("src, tree", [
    ("-0.5*x", Binary("*", Number(-0.5), Var("x"))),
    ("x*-2", Binary("*", Var("x"), Number(-2.0))),
    ("x--2", Binary("-", Var("x"), Number(-2.0))),
    ("-2^2", Unary("neg", Binary("^", Number(2.0), Number(2.0)))),
    ("(-2)^2", Binary("^", Number(-2.0), Number(2.0))),
    ("-(2)", Unary("neg", Number(2.0))),
    ("--2", Unary("neg", Number(-2.0))),
])
def test_minus_before_a_literal_is_a_negative_number(src, tree):
    assert parse(src) == tree
    assert parse(to_string(tree)) == tree


def test_generated_trees_round_trip():
    # negative coefficients, rates and slopes must come back as negative
    # numbers, not negations: a level deeper each, which took some 95-atom
    # trees past MAX_DEPTH
    r = Rect(0.0, 1.0, 0.0, 1.0)
    trees = [random_coordinate_convex(s, r, 1 + s % 4).expr for s in range(200)]
    trees += [random_coordinate_convex(s, r, 95).expr for s in range(20)]
    for tree in trees:
        assert parse(to_string(tree)) == tree


def _spanned(tree, counter=None):
    """``tree`` with a distinct span on every node."""
    counter = itertools.count() if counter is None else counter
    i = next(counter)
    if isinstance(tree, Unary):
        kids = {"arg": _spanned(tree.arg, counter)}
    elif isinstance(tree, Binary):
        kids = {"left": _spanned(tree.left, counter), "right": _spanned(tree.right, counter)}
    elif isinstance(tree, Call):
        kids = {"args": tuple(_spanned(a, counter) for a in tree.args)}
    else:
        kids = {}
    return dataclasses.replace(tree, span=(i, i + 1), **kids)


_VALUES = np.array([0.0, -0.0, 0.5, -0.5, 700.0, -700.0, 1e300, -1e300])
_INPUTS = [
    (0.5, -0.0), (700.0, 1e300), (-0.0, 0.0), (np.float64(-0.5), 2.0),  # scalars
    (_VALUES, _VALUES[::-1].copy()), (_VALUES, 0.0), (np.float64(1e300), _VALUES),  # 1-D
    (_VALUES[:, None], _VALUES[None, :]),  # broadcast
    (np.empty(0), 1.0), (1.0, np.empty((0, 3))),  # empty
]


def _outcome(run, x, y):
    """The value's type, dtype, shape and bytes, or the error's message."""
    try:
        out = run(x, y)
    except EvaluationError as exc:
        return str(exc)
    return type(out), getattr(out, "dtype", None), np.shape(out), np.asarray(out).tobytes()


@settings(max_examples=300, deadline=None)
@given(tree=_trees.map(_spanned))
def test_fast_program_matches_the_strict_one(tree):
    strict = expr._compiled(tree, True)
    for x, y in _INPUTS:
        with np.errstate(all="ignore"):
            want = _outcome(strict, x, y)
        assert _outcome(lambda x, y: eval_ast(tree, x, y), x, y) == want


@pytest.mark.parametrize("src, span", [("exp(-exp(1000*x))", "5..16"),
                                       ("min(exp(1000*x),1)", "4..15"),
                                       ("exp(1000*x)^0", "0..11")])
@pytest.mark.parametrize("x", [1.0, np.array([0.0, 1.0])])
def test_non_finite_operand_an_operation_absorbs_still_raises(src, span, x):
    # exp(-inf) = 0, min(inf, 1) = 1 and inf^0 = 1 are finite at the root
    with pytest.raises(EvaluationError, match=f"non-finite result at offsets {span}$"):
        eval_ast(parse(src), x, 0.0)


def test_programs_are_kept_by_identity_not_equality():
    plus, minus = Binary("*", Var("x"), Number(0.0)), Binary("*", Var("x"), Number(-0.0))
    assert plus == minus
    assert math.copysign(1.0, eval_ast(plus, 1.0, 0.0)) == 1.0
    assert math.copysign(1.0, eval_ast(minus, 1.0, 0.0)) == -1.0


def test_a_tree_is_compiled_once(monkeypatch):
    compiled = []
    compile_ = expr._compile
    monkeypatch.setattr(expr, "_compile",
                        lambda node, strict: compiled.append(strict) or compile_(node, strict))
    tree = parse("exp(x)*y+1/x")
    for x in (0.5, np.linspace(0.5, 1.0, 5), np.empty(0), 0.0):
        try:
            eval_ast(tree, x, 0.5)
        except EvaluationError:
            pass
    assert compiled == [False, True]
    eval_ast(parse("exp(x)*y+1/x"), 0.5, 0.5)  # an equal tree is another object
    assert compiled == [False, True, False, True]


@settings(max_examples=300, deadline=None)
@given(tree=_trees.map(_spanned))
def test_check_free_program_matches_eval_ast_where_it_returns(tree):
    for x, y in _INPUTS:
        want = _outcome(lambda x, y: eval_ast(tree, x, y), x, y)
        with np.errstate(all="ignore"):
            got = _outcome(program(tree), x, y)  # never a message: nothing is checked
        assert not isinstance(got, str)
        if not isinstance(want, str):
            assert got == want


@pytest.mark.parametrize("src, want", [("exp(1000*x)", math.inf), ("exp(-exp(1000*x))", 0.0)])
def test_check_free_program_returns_what_eval_ast_raises_on(src, want):
    tree = parse(src)
    with np.errstate(all="ignore"):  # the program leaves numpy's error state to its caller
        assert program(tree)(1.0, 0.0) == want
    with pytest.raises(EvaluationError, match="non-finite result"):
        eval_ast(tree, 1.0, 0.0)


def test_check_free_program_is_compiled_once_and_alone(monkeypatch):
    compiled = []
    compile_ = expr._compile
    monkeypatch.setattr(expr, "_compile",
                        lambda node, strict: compiled.append(strict) or compile_(node, strict))
    tree = parse("exp(x)*y+1/x")
    assert program(tree) is program(tree)
    assert compiled == [None]


_TOO_DEEP = f"expected an expression at most {MAX_DEPTH} levels deep"


@pytest.mark.parametrize("src, position, found", [
    ("(" * 200 + "x" + ")" * 200, MAX_DEPTH, "'('"),
    ("exp(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), 4 * MAX_DEPTH + 3, "'('"),
    ("-" * 1000 + "x", 1000 - MAX_DEPTH, "'-'"),
    ("+".join(["x"] * 3000), 2 * MAX_DEPTH - 1, "'+'"),
    ("x*" * 3000 + "x", 2 * MAX_DEPTH - 1, "'*'"),
    ("exp(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, 0, "'exp'"),
    ("max(" * MAX_DEPTH + "x" + ",y)" * MAX_DEPTH, 0, "'max'"),
    ("(" * 99 + "x^2" + ")" * 99 + "+x" * 99, 2 * 99 + 3 + 2 * 98, "'+'"),
])
def test_too_deep_fails_to_parse_at_the_offending_token(src, position, found):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert str(exc.value) == f"at offset {position}: {_TOO_DEEP}, found {found}"


@pytest.mark.parametrize("src", [
    "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
    "-" * (MAX_DEPTH - 1) + "x",
    "+".join(["x"] * MAX_DEPTH),
    "max(" * (MAX_DEPTH - 1) + "x" + ",y)" * (MAX_DEPTH - 1),
])
def test_deepest_accepted_trees_evaluate_and_round_trip(src):
    tree = parse(src)
    assert depth(tree) <= MAX_DEPTH
    assert parse(to_string(tree)) == tree
    value = eval_ast(tree, 0.5, 0.25)
    assert program(tree)(0.5, 0.25) == value


@pytest.mark.parametrize("src, position", [("1e999", 0), ("-1e999", 1), ("1/1e999 + x^2", 2),
                                           ("x^1e999", 2), ("x + 2e400*y", 4)])
def test_literal_too_large_for_a_float_fails_to_parse_at_it(src, position):
    # a literal that overflows to inf would make 1/1e999 a silent 0
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.position == position
    assert str(exc.value).endswith("expected a finite number, found "
                                   f"{src[position:].split()[0].split('*')[0]!r}")
