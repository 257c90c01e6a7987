"""Exact witnesses for the certified bounds.

Polynomial trees with float coefficients on float rectangles have exact
rational integrals: every float is a dyadic rational, so the integral over
the float rectangle is a :class:`Fraction`. So do trees with ``abs(x - s)``
and ``abs(y - t)`` factors, split at each kink into pieces on which every
factor is a polynomial. Each enclosure is held to it
with no tolerance, ``Fraction(lower) <= exact <= Fraction(upper)``, and a
one-sided bound on its own side alone. A bound that requires a positive
function is held to it on trees that are nonnegative by construction.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hh_bounds import (Fn1D, Fn2D, Interval, NestedDiscrete, Rect, discrete_enclosure,
                       integral_enclosure, midpoint_lower, positive_upper, trapezoid_upper)
from hh_bounds.expr import Binary, Evaluator, Number, Unary, Var

X, Y = Var("x"), Var("y")


def _num(v) -> Number:
    return Number(float(v))


def _sum(*terms):
    out = terms[0]
    for t in terms[1:]:
        out = Binary("+", out, t)
    return out


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, j), u in p.items():
        for (k, l), v in q.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + u * v
    return out


def _at(p: dict, point: tuple) -> Fraction:
    return sum(c * point[0] ** i * point[1] ** j for (i, j), c in p.items())


def polynomial(node, point) -> dict:
    """The tree ``node`` of numbers, x, y, +, -, * and ^ by a whole number,
    as exact coefficients keyed by the powers of x and y. An ``abs`` is its
    argument times the argument's sign at ``point``, (x, y): the tree on a
    piece that holds ``point`` and on which no ``abs`` argument changes sign."""
    if isinstance(node, Number):
        return {(0, 0): Fraction(node.value)}
    if isinstance(node, Var):
        return {(1, 0) if node.name == "x" else (0, 1): Fraction(1)}
    a = polynomial(node.arg if isinstance(node, Unary) else node.left, point)
    if isinstance(node, Unary):
        return a if _at(a, point) >= 0 else {k: -v for k, v in a.items()}
    if node.op == "^":
        out = {(0, 0): Fraction(1)}
        for _ in range(int(node.right.value)):
            out = _mul(out, a)
        return out
    b = polynomial(node.right, point)
    if node.op == "*":
        return _mul(a, b)
    sign = 1 if node.op == "+" else -1
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return out


def kinks(node) -> tuple[set, set]:
    """The kinks s of the factors ``abs(x - s)`` of ``node``, and t of
    ``abs(y - t)``, the only ``abs`` a tree may hold."""
    out: tuple[set, set] = (set(), set())
    if isinstance(node, Unary):
        var, at = node.arg.left, node.arg.right
        assert node.op == "abs" and node.arg.op == "-" and isinstance(var, Var)
        out["xy".index(var.name)].add(Fraction(at.value))
    elif isinstance(node, Binary):
        for part in (node.left, node.right):
            for mine, theirs in zip(out, kinks(part)):
                mine |= theirs
    return out


def exact_integral(node, *sides: tuple[float, float]) -> Fraction:
    """The integral of ``node`` over the product of ``sides``, the x side
    and, for a tree in x and y, the y side, in exact arithmetic: the sum
    over the pieces the kinks cut the sides into."""
    def moment(power, lo, hi):
        return (hi ** (power + 1) - lo ** (power + 1)) / (power + 1)

    def cut(side, at):
        lo, hi = map(Fraction, side)
        ends = [lo, *sorted(k for k in at if lo < k < hi), hi]
        return list(zip(ends, ends[1:]))

    total = Fraction(0)
    for piece in itertools.product(*map(cut, sides, kinks(node))):
        mid = [(lo + hi) / 2 for lo, hi in piece] + [Fraction(0)]  # y = 0 in x alone
        total += sum(c * math.prod(moment(p, *side) for p, side in zip(powers, piece))
                     for powers, c in polynomial(node, mid).items())
    return total


def draw_polynomials(seed: int, count: int, squares: bool, axes: str, positive: bool = False,
                     kinked: bool = False):
    """``count`` coordinate-convex piecewise polynomial trees of degree <= 2
    per axis, each with a float side per variable in ``axes``, reproducible
    from ``seed``: ``a+b*x+c*y+d*x*y`` (``a+b*x`` in x alone), plus with
    ``squares`` nonnegative multiples of ``(x-s)^2``, ``(y-t)^2`` and
    ``(x-s)^2*(y-t)^2``, and with ``kinked`` of ``abs(x-u)``, ``abs(y-v)``
    and ``abs(x-u)*abs(y-v)``. With ``positive`` the first part is ``|a|``
    alone, so that a tree with ``squares`` or ``kinked`` is nonnegative by
    construction; the draws are the same either way."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a, b, c, d = rng.uniform(-2.0, 2.0, 4)
        terms = [_num(a), Binary("*", _num(b), X)]
        if axes == "xy":
            terms += [Binary("*", _num(c), Y), Binary("*", _num(d), Binary("*", X, Y))]
        if positive:
            terms = [_num(abs(a))]
        if squares:
            s, t = rng.uniform(-1.0, 2.0, 2)
            p, q, w = rng.uniform(0.0, 2.0, 3)
            sx = Binary("^", Binary("-", X, _num(s)), _num(2))
            sy = Binary("^", Binary("-", Y, _num(t)), _num(2))
            terms.append(Binary("*", _num(p), sx))
            if axes == "xy":
                terms += [Binary("*", _num(q), sy), Binary("*", _num(w), Binary("*", sx, sy))]
        if kinked:
            u, v = rng.uniform(-1.0, 2.0, 2)
            p, q, w = rng.uniform(0.0, 2.0, 3)
            kx, ky = Unary("abs", Binary("-", X, _num(u))), Unary("abs", Binary("-", Y, _num(v)))
            terms.append(Binary("*", _num(p), kx))
            if axes == "xy":
                terms += [Binary("*", _num(q), ky), Binary("*", _num(w), Binary("*", kx, ky))]
        lo = rng.uniform(-2.0, 1.0, len(axes))
        hi = lo + rng.uniform(0.05, 3.0, len(axes))
        out.append((_sum(*terms), [(float(u), float(v)) for u, v in zip(lo, hi)]))
    return out


#: The sizes (n, m) a discrete enclosure is tried at: up to (8, 4), whose
#: line requests are all evaluated as flat points, and (64, 16), whose line
#: requests reach PACK_POINTS and are summed by the tree's factors.
DISCRETE_SIZES = [(n, m) for n in (1, 2, 3, 5, 8) for m in (1, 2, 3, 4)] + [(64, 16)]


def _discrete_enclosures(tree, sides):
    f, r = Fn2D(eval=Evaluator(tree)), Rect(*sides[0], *sides[1])
    return [(bp.lower, bp.upper) for bp in
            (discrete_enclosure(f, r, n, m) for n, m in DISCRETE_SIZES)]


def _black_box_enclosures(tree, sides):
    # the tree as a black box at (64, 16): its line requests are summed by
    # row blocks, each reduced as block @ rule
    ev = Evaluator(tree)
    bp = discrete_enclosure(Fn2D(eval=lambda x, y: ev(x, y)), Rect(*sides[0], *sides[1]), 64, 16)
    return [(bp.lower, bp.upper)]


def _positive_uppers(tree, sides):
    f, r = Fn2D(eval=Evaluator(tree), positive=True), Rect(*sides[0], *sides[1])
    return [(None, positive_upper(f, r, n, NestedDiscrete(m))) for n, m in DISCRETE_SIZES]


def _along_x(tree, sides, rule):
    ev = Evaluator(tree)
    return [rule(Fn1D(eval=lambda t: ev(t, 0.0)), Interval(*sides[0]), n) for n in range(1, 9)]


def _integral_enclosures(tree, sides):
    return [(bp.lower, bp.upper) for bp in _along_x(tree, sides, integral_enclosure)]


def _midpoint_lowers(tree, sides):
    return [(lower, None) for lower in _along_x(tree, sides, midpoint_lower)]


def _trapezoid_uppers(tree, sides):
    return [(None, upper) for upper in _along_x(tree, sides, trapezoid_upper)]


#: Each certified bound: the variables of its trees and its (lower, upper)
#: pairs at every size tried, None for the side a one-sided bound lacks:
#: DISCRETE_SIZES in two dimensions, or (64, 16) alone for a black box, and
#: n up to 8 in one.
ENCLOSURES = {"discrete_enclosure": ("xy", _discrete_enclosures),
              "discrete_enclosure_black_box": ("xy", _black_box_enclosures),
              "integral_enclosure": ("x", _integral_enclosures),
              "midpoint_lower": ("x", _midpoint_lowers),
              "positive_upper": ("xy", _positive_uppers),
              "trapezoid_upper": ("x", _trapezoid_uppers)}
#: The bounds that require a positive function, held to nonnegative trees,
#: which have square and kinked terms.
POSITIVE = {"positive_upper"}


@functools.cache
def _witnessed(squares: bool, kinked: bool, axes: str, positive: bool) -> list:
    """Sixty draws from seed 7, each with its exact integral: the same
    trees for each bound that takes them."""
    return [(tree, sides, exact_integral(tree, *sides)) for tree, sides in
            draw_polynomials(7, 60, squares, axes, positive=positive, kinked=kinked)]


def _misses(name: str, squares: bool, kinked: bool = False):
    """The pairs of ``name`` that miss the exact integral, as they are met,
    so that a known miss stops the search at the first."""
    axes, enclosures = ENCLOSURES[name]
    for index, (tree, sides, exact) in enumerate(
            _witnessed(squares, kinked, axes, name in POSITIVE)):
        for k, (lower, upper) in enumerate(enclosures(tree, sides)):
            if not ((lower is None or Fraction(lower) <= exact)
                    and (upper is None or exact <= Fraction(upper))):
                yield f"tree {index} size {k}"


@pytest.mark.parametrize("name", sorted(ENCLOSURES))
def test_square_terms_enclose_the_exact_integral(name):
    # beside abs(x-u), abs(y-v) and abs(x-u)*abs(y-v) terms
    assert list(_misses(name, squares=True, kinked=True)) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 8")
@pytest.mark.parametrize("name", sorted(set(ENCLOSURES) - POSITIVE))
def test_bilinear_enclosures_hold_the_exact_integral(name):
    # both rules are exact on these in exact arithmetic, so rounding alone
    # puts the pair on one side of the integral: 1,044 of the 1,260
    # discrete_enclosure pairs (38 of the 60 at (64, 16)), 52 of the 60
    # black-box pairs at (64, 16), 430 of the 480 integral_enclosure pairs,
    # and 240 and 244 of the 480 values of midpoint_lower and trapezoid_upper
    # miss it, by up to 1.7e-15, 4.2e-16, 3.3e-16, 3.0e-16 and 3.3e-16 of
    # max(1, |integral|)
    assert next(_misses(name, squares=False), None) is None


def test_exact_integral_of_a_known_tree():
    # (x-1)^2 * y over [0, 3] x [1, 2]: 3 * 3/2
    tree = Binary("*", Binary("^", Binary("-", X, _num(1)), _num(2)), Y)
    assert exact_integral(tree, (0.0, 3.0), (1.0, 2.0)) == Fraction(9, 2)
    # x - 0.5 over [0, 0.1], at the float 0.1
    tenth = Fraction(0.1)
    assert exact_integral(Binary("-", X, _num(0.5)), (0.0, 0.1)) == tenth ** 2 / 2 - tenth / 2


@pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 8")
@pytest.mark.parametrize("name", sorted(set(ENCLOSURES) - POSITIVE))
def test_piecewise_bilinear_enclosures_hold_the_exact_integral(name):
    # the bilinear trees plus abs(x-u), abs(y-v) and abs(x-u)*abs(y-v)
    # terms: a rule is exact in exact arithmetic on a cell no kink crosses,
    # so rounding still puts a pair on one side of the integral: 279 of the
    # 1,260 discrete_enclosure pairs (12 of the 60 at (64, 16)), 13 of the
    # 60 black-box pairs, 261 of the 480 integral_enclosure pairs, and 160
    # and 132 of the 480 values of midpoint_lower and trapezoid_upper miss
    # it, by up to 5.7e-16, 3.4e-16, 3.3e-16, 3.3e-16 and 2.9e-16 of
    # max(1, |integral|)
    assert next(_misses(name, squares=False, kinked=True), None) is None


def test_exact_integral_of_kinked_trees():
    def kink(var, at):
        return Unary("abs", Binary("-", var, _num(at)))

    # |x-1| over [0, 3]: 1/2 + 2
    assert exact_integral(kink(X, 1), (0.0, 3.0)) == Fraction(5, 2)
    # |x-0.5| * |y-1| over [0, 1] x [0, 3], and a kink outside its side
    tree = Binary("*", kink(X, 0.5), kink(Y, 1))
    assert exact_integral(tree, (0.0, 1.0), (0.0, 3.0)) == Fraction(1, 4) * Fraction(5, 2)
    assert exact_integral(kink(X, -1), (0.0, 1.0)) == Fraction(3, 2)
