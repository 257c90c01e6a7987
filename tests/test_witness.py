"""Exact witnesses for the certified bounds.

Polynomial trees with float coefficients on float rectangles have exact
rational integrals: every float is a dyadic rational, so the integral over
the float rectangle is a :class:`Fraction`. Each enclosure is held to it
with no tolerance, ``Fraction(lower) <= exact <= Fraction(upper)``, and a
one-sided bound on its own side alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from hh_bounds import (Fn1D, Fn2D, Interval, Rect, discrete_enclosure, integral_enclosure,
                       midpoint_lower, trapezoid_upper)
from hh_bounds.expr import Binary, Evaluator, Number, Var

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


def polynomial(node) -> dict:
    """The tree ``node`` of numbers, x, y, +, -, * and ^ by a whole number,
    as exact coefficients keyed by the powers of x and y."""
    if isinstance(node, Number):
        return {(0, 0): Fraction(node.value)}
    if isinstance(node, Var):
        return {(1, 0) if node.name == "x" else (0, 1): Fraction(1)}
    a = polynomial(node.left)
    if node.op == "^":
        out = {(0, 0): Fraction(1)}
        for _ in range(int(node.right.value)):
            out = _mul(out, a)
        return out
    b = polynomial(node.right)
    if node.op == "*":
        return _mul(a, b)
    sign = 1 if node.op == "+" else -1
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return out


def exact_integral(node, *sides: tuple[float, float]) -> Fraction:
    """The integral of ``node`` over the product of ``sides``, the x side
    and, for a tree in x and y, the y side, in exact arithmetic."""
    def moment(power, lo, hi):
        return (Fraction(hi) ** (power + 1) - Fraction(lo) ** (power + 1)) / (power + 1)

    return sum(c * math.prod(moment(p, *side) for p, side in zip(powers, sides))
               for powers, c in polynomial(node).items())


def draw_polynomials(seed: int, count: int, squares: bool, axes: str):
    """``count`` coordinate-convex polynomial trees of degree <= 2 per axis,
    each with a float side per variable in ``axes``, reproducible from
    ``seed``: ``a+b*x+c*y+d*x*y`` (``a+b*x`` in x alone), plus with
    ``squares`` nonnegative multiples of ``(x-s)^2``, ``(y-t)^2`` and
    ``(x-s)^2*(y-t)^2``."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a, b, c, d = rng.uniform(-2.0, 2.0, 4)
        terms = [_num(a), Binary("*", _num(b), X)]
        if axes == "xy":
            terms += [Binary("*", _num(c), Y), Binary("*", _num(d), Binary("*", X, Y))]
        if squares:
            s, t = rng.uniform(-1.0, 2.0, 2)
            p, q, w = rng.uniform(0.0, 2.0, 3)
            sx = Binary("^", Binary("-", X, _num(s)), _num(2))
            sy = Binary("^", Binary("-", Y, _num(t)), _num(2))
            terms.append(Binary("*", _num(p), sx))
            if axes == "xy":
                terms += [Binary("*", _num(q), sy), Binary("*", _num(w), Binary("*", sx, sy))]
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
#: DISCRETE_SIZES in two dimensions and n up to 8 in one.
ENCLOSURES = {"discrete_enclosure": ("xy", _discrete_enclosures),
              "integral_enclosure": ("x", _integral_enclosures),
              "midpoint_lower": ("x", _midpoint_lowers),
              "trapezoid_upper": ("x", _trapezoid_uppers)}


def _misses(name: str, squares: bool) -> list[str]:
    axes, enclosures = ENCLOSURES[name]
    misses = []
    for index, (tree, sides) in enumerate(draw_polynomials(7, 60, squares, axes)):
        exact = exact_integral(tree, *sides)
        for k, (lower, upper) in enumerate(enclosures(tree, sides)):
            if not ((lower is None or Fraction(lower) <= exact)
                    and (upper is None or exact <= Fraction(upper))):
                misses.append(f"tree {index} size {k}")
    return misses


@pytest.mark.parametrize("name", sorted(ENCLOSURES))
def test_square_terms_enclose_the_exact_integral(name):
    assert _misses(name, squares=True) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 8")
@pytest.mark.parametrize("name", sorted(ENCLOSURES))
def test_bilinear_enclosures_hold_the_exact_integral(name):
    # both rules are exact on these in exact arithmetic, so rounding alone
    # puts the pair on one side of the integral: 1,044 of the 1,260
    # discrete_enclosure pairs (38 of the 60 at (64, 16)), 430 of the 480
    # integral_enclosure pairs, and 240 and 244 of the 480 values of
    # midpoint_lower and trapezoid_upper miss it, by up to 1.7e-15, 3.3e-16,
    # 3.0e-16 and 3.3e-16 of max(1, |integral|)
    assert _misses(name, squares=False) == []


def test_exact_integral_of_a_known_tree():
    # (x-1)^2 * y over [0, 3] x [1, 2]: 3 * 3/2
    tree = Binary("*", Binary("^", Binary("-", X, _num(1)), _num(2)), Y)
    assert exact_integral(tree, (0.0, 3.0), (1.0, 2.0)) == Fraction(9, 2)
    # x - 0.5 over [0, 0.1], at the float 0.1
    tenth = Fraction(0.1)
    assert exact_integral(Binary("-", X, _num(0.5)), (0.0, 0.1)) == tenth ** 2 / 2 - tenth / 2
