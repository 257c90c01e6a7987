"""Inequality chains and certified enclosures for coordinate-convex functions
on a rectangle.

A function f(x, y) is convex on the coordinates when every restriction
x -> f(x, y0) and y -> f(x0, y) is convex. Each operation here evaluates the
terms of one two-sided (or one-sided) bound on the double integral and, for
the chain operations, reports whether every adjacent ordering holds at the
computed values.

Every term is a weighted sum of point values and of integrals along lines
parallel to an axis. All the line integrals of one kind are resolved
together by :func:`_lines` through an InnerScheme. In NestedDiscrete mode the
direction is chosen per use site: integrals sitting below the double
integral in a chain are resolved with the midpoint rule (an underestimate
for convex restrictions), integrals sitting above with the trapezoid rule
(an overestimate), so every reported ordering is still certified. The double
integral term itself always comes from the independent Simpson oracle.

The two five-term chains share their first three terms, boundary lines and
corners, so :func:`five_term_chains` builds both in one pass, and
:func:`classic_chain` and :func:`refined_chain` are views of it.

Callbacks receive blocks of points as numpy arrays (lines x points per line,
or a handful of corner and edge points); a scalar-only callback is called
once per point instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bounds1d import (BoundPair, Interval, Partition1D, evaluate, midpoint_sum,
                       trapezoid_sum)
# still importable from here, as before (bench/test_bench.py relies on it)
from .bounds1d import midpoint_lower, trapezoid_upper  # noqa: F401
from .errors import DomainError, PreconditionError
from .oracle import DEFAULT_GRID, reference_integral_2d
from .schemes import InnerScheme, NestedDiscrete, adaptive_simpson

#: Grid used for positivity spot checks (and by the convexity generator).
SPOT_GRID = 33
#: Points per evaluated block of lines (whole lines, at least one). Much
#: smaller blocks pay per-call overhead; much larger ones only add memory.
BLOCK_POINTS = 1 << 16


@dataclass(frozen=True)
class Rect:
    """The integration domain [a, b] x [c, d], nondegenerate and finite,
    with finite widths and area."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not math.isfinite(v):
                raise DomainError(f"rectangle corners must be finite, got {self}")
        if not (self.a < self.b and self.c < self.d):
            raise DomainError(f"degenerate rectangle [{self.a}, {self.b}] x [{self.c}, {self.d}]")
        if not all(map(math.isfinite, (self.b - self.a, self.d - self.c, self.area))):
            raise DomainError(f"rectangle widths and area must be finite, got {self}")

    @property
    def x_interval(self) -> Interval:
        return Interval(self.a, self.b)

    @property
    def y_interval(self) -> Interval:
        return Interval(self.c, self.d)

    @property
    def area(self) -> float:
        return (self.b - self.a) * (self.d - self.c)

    @property
    def center(self) -> tuple[float, float]:
        return 0.5 * (self.a + self.b), 0.5 * (self.c + self.d)


@dataclass(frozen=True)
class Fn2D:
    """A real function of two variables given as a black-box callback.

    ``eval`` must be deterministic and finite on the rectangle it is used on.
    It receives blocks of points as numpy arrays and should evaluate them
    elementwise, returning the broadcast shape of ``x`` and ``y``; a
    scalar-only callback is called once per point instead. So is a numpy
    callback whose result has any other shape, such as
    ``lambda x, y: x * x``, which ignores ``y`` and returns the shape of
    ``x`` alone: write ``x * x + 0.0 * y`` to keep it array-at-once. Such a
    result is not broadcast for the caller, because a result of another
    shape, a 0-d one included, may be a reduction rather than values.
    ``positive`` asserts the range is >= 0 and gates :func:`positive_upper`.
    """

    eval: Callable
    positive: bool = False

    def __call__(self, x, y):
        return self.eval(x, y)

    def restrict_x(self, x0: float) -> Callable:
        """The partial mapping y -> f(x0, y)."""
        return lambda y: self.eval(x0, y)

    def restrict_y(self, y0: float) -> Callable:
        """The partial mapping x -> f(x, y0)."""
        return lambda x: self.eval(x, y0)


class Ordering(NamedTuple):
    i: int
    j: int
    satisfied: bool
    slack: float


@dataclass(frozen=True)
class ChainReport:
    """Named terms of an inequality chain plus every adjacent ordering verdict.

    slack = value_j - value_i; an ordering is satisfied when slack >= -tolerance.
    """

    terms: tuple[tuple[str, float], ...]
    orderings: tuple[Ordering, ...]
    tolerance: float

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.terms)

    @property
    def all_satisfied(self) -> bool:
        return all(o.satisfied for o in self.orderings)


def chain_report(terms: list[tuple[str, float]], tolerance: float | None = None) -> ChainReport:
    if tolerance is None:
        tolerance = 1e-9 * max(1.0, *(abs(v) for _, v in terms))
    orderings = []
    for i in range(len(terms) - 1):
        slack = terms[i + 1][1] - terms[i][1]
        orderings.append(Ordering(i, i + 1, slack >= -tolerance, slack))
    return ChainReport(terms=tuple(terms), orderings=tuple(orderings), tolerance=tolerance)


def _points(f: Fn2D, xs, ys) -> list[float]:
    """Values of f at the points (xs[i], ys[i]), from one evaluation."""
    return evaluate(f.eval, np.array(xs, dtype=float), np.array(ys, dtype=float)).tolist()


def spot_minimum(f: Fn2D, r: Rect, k: int = SPOT_GRID) -> float:
    """Minimum of f over the k x k sample grid of the rectangle."""
    xs = np.linspace(r.a, r.b, k)
    ys = np.linspace(r.c, r.d, k)
    return float(evaluate(f.eval, xs[:, None], ys[None, :]).min())


def with_positivity(ev: Callable, r: Rect) -> Fn2D:
    """``ev`` as an Fn2D, flagged positive when its minimum over the spot
    grid of ``r`` is strictly positive."""
    return Fn2D(eval=ev, positive=spot_minimum(Fn2D(eval=ev), r) > 0.0)


def _lines(f: Fn2D, r: Rect, along: str, at, upper: bool, scheme: InnerScheme,
           cells: int) -> list[float]:
    """Integrals of f along the lines through ``at``, resolved per ``scheme``.

    The lines run in the variable ``along`` ("x" or "y") across the whole
    rectangle; ``at`` holds each line's other coordinate. ``upper`` marks
    integrals that must stay above their true value. In NestedDiscrete mode
    those get the composite trapezoid value, the others the composite
    midpoint value, on m * ``cells`` subintervals; the lines are the rows of
    one block of values, evaluated about BLOCK_POINTS points at a time.
    Quadrature resolves each line with adaptive Simpson, which evaluates one
    refinement level per call; its evaluator takes both coordinates, so a
    failure names the full point.
    """
    at = np.asarray(at, dtype=float)
    iv = r.x_interval if along == "x" else r.y_interval
    if not isinstance(scheme, NestedDiscrete):
        return [adaptive_simpson(_line_eval(f, along, t), iv.lo, iv.hi, scheme.tol)
                for t in at]
    part = Partition1D(iv, scheme.m * cells)
    pts = part.nodes() if upper else part.midpoints()
    rule = trapezoid_sum if upper else midpoint_sum
    rows = max(1, BLOCK_POINTS // pts.size)
    out = np.empty(at.size)
    for i in range(0, at.size, rows):
        fixed = at[i:i + rows, None]
        block = (evaluate(f.eval, pts[None, :], fixed) if along == "x"
                 else evaluate(f.eval, fixed, pts[None, :]))
        out[i:i + rows] = rule(block, part.h)
    return out.tolist()


def _line_eval(f: Fn2D, along: str, t) -> Callable:
    """f on the line through ``t`` running in ``along``, as a 1-D evaluator."""
    if along == "x":
        return lambda s: evaluate(f.eval, s, t)
    return lambda s: evaluate(f.eval, t, s)


def _partition_sums(f: Fn2D, r: Rect, n: int, scheme: InnerScheme) -> tuple[float, float]:
    """Lower and upper partitioned line-integral sums for a partition into n cells.

    Lower: the cell-midpoint lines, (d-c)/(2n) * sum_k int f(x, ymid_k) dx plus
    the symmetric x-direction sum. Upper: the boundary lines with weight
    (len)/(4n) plus the interior node lines with weight (len)/(2n).
    """
    px = Partition1D(r.x_interval, n)
    py = Partition1D(r.y_interval, n)
    wy = (r.d - r.c) / (2.0 * n)
    wx = (r.b - r.a) / (2.0 * n)

    lower = wy * sum(_lines(f, r, "x", py.midpoints(), False, scheme, n))
    lower += wx * sum(_lines(f, r, "y", px.midpoints(), False, scheme, n))

    ux = _lines(f, r, "x", py.nodes(), True, scheme, n)
    uy = _lines(f, r, "y", px.nodes(), True, scheme, n)
    upper = 0.5 * wy * (ux[0] + ux[-1])
    upper += 0.5 * wx * (uy[0] + uy[-1])
    upper += wy * sum(ux[1:-1])
    upper += wx * sum(uy[1:-1])
    return lower, upper


def partition_chain(f: Fn2D, r: Rect, n: int, scheme: InnerScheme = NestedDiscrete(),
                    oracle_grid: int = DEFAULT_GRID,
                    tolerance: float | None = None,
                    integral: float | None = None) -> ChainReport:
    """Three-term chain: midpoint-line sum <= double integral <= node-line sum.

    The middle term is the independent Simpson oracle value (or a caller
    supplied ``integral`` to avoid recomputing it); the outer terms are
    resolved per ``scheme``.
    """
    lower, upper = _partition_sums(f, r, n, scheme)
    if integral is None:
        integral = reference_integral_2d(f, r, oracle_grid).value
    return chain_report(
        [("midpoint_lines", lower), ("integral", integral), ("node_lines", upper)],
        tolerance)


def discrete_enclosure(f: Fn2D, r: Rect, n: int, m: int = 16) -> BoundPair:
    """Fully discrete enclosure of the double integral from point values only.

    Every line integral in the lower sum is itself bounded below by the
    midpoint rule and every one in the upper sum above by the trapezoid rule
    (m subintervals per partition cell), so lower <= integral <= upper holds
    for any f convex on the coordinates.
    """
    lower, upper = _partition_sums(f, r, n, NestedDiscrete(m))
    k = m * n  # subintervals per line
    return BoundPair(lower=lower, upper=upper, n=n, evals=2 * n * k + (2 * n + 2) * (k + 1))


def centerline_bound(f: Fn2D, r: Rect, n: int,
                     scheme: InnerScheme = NestedDiscrete()) -> tuple[float, float]:
    """Midpoint-grid sums on the two center lines vs the center-line integrals.

    Returns (lhs, rhs) with the contract lhs <= rhs for coordinate-convex f:
    lhs sums f at (center_x, ymid_k) and (xmid_k, center_y); rhs scales the
    integrals along the two center lines by n/length. In NestedDiscrete mode
    the rhs integrals are resolved from below, so a reported pass is
    conservative.
    """
    cx, cy = r.center
    px = Partition1D(r.x_interval, n)
    py = Partition1D(r.y_interval, n)
    lhs = float(evaluate(f.eval, cx, py.midpoints()).sum())
    lhs += float(evaluate(f.eval, px.midpoints(), cy).sum())
    rhs = n / (r.d - r.c) * _lines(f, r, "y", [cx], False, scheme, n)[0]
    rhs += n / (r.b - r.a) * _lines(f, r, "x", [cy], False, scheme, n)[0]
    return lhs, rhs


def boundary_bound(f: Fn2D, r: Rect, n: int,
                   scheme: InnerScheme = NestedDiscrete()) -> tuple[float, float]:
    """Scaled boundary-line integrals vs corner and boundary-node sums.

    Returns (lhs, rhs) with the contract lhs <= rhs for coordinate-convex f.
    In NestedDiscrete mode the lhs integrals are resolved from above, again
    making a pass conservative.
    """
    px = Partition1D(r.x_interval, n)
    py = Partition1D(r.y_interval, n)
    uy = _lines(f, r, "y", [r.a, r.b], True, scheme, n)
    ux = _lines(f, r, "x", [r.c, r.d], True, scheme, n)
    lhs = n / (r.d - r.c) * (uy[0] + uy[1])
    lhs += n / (r.b - r.a) * (ux[0] + ux[1])
    # f on the sides x = a, b at every y node (corners included), and on the
    # sides y = c, d at the interior x nodes
    side = evaluate(f.eval, np.array([[r.a], [r.b]]), py.nodes())
    cap = evaluate(f.eval, px.nodes()[1:-1], np.array([[r.c], [r.d]]))
    (ac, *_, ad), (bc, *_, bd) = side.tolist()
    rhs = ac + ad + bc + bd
    # opposite node pairs, added one pair at a time in node order
    for pair in (side[0, 1:-1] + side[1, 1:-1]).tolist() + (cap[0] + cap[1]).tolist():
        rhs += pair
    return lhs, rhs


def _require_positive(f: Fn2D, r: Rect) -> None:
    if not f.positive:
        raise PreconditionError("positive_upper requires a function flagged positive")
    lo = spot_minimum(f, r)
    if lo < 0.0:
        raise PreconditionError(
            f"positivity spot check failed: sampled value {lo!r} < 0 on the grid")


def positive_upper(f: Fn2D, r: Rect, n: int,
                   scheme: InnerScheme = NestedDiscrete()) -> float:
    """Upper bound on the double integral of a positive coordinate-convex f.

    Built from the boundary and interior node-line integrals with weights
    (n+1)/(4n) on the boundary lines and 2/(4n) on interior lines, in both
    directions. All integrals are resolved from above in NestedDiscrete mode,
    preserving the bound. The positivity flag plus a sample-grid spot check
    gate the computation; a negative sample is a hard error.
    """
    _require_positive(f, r)
    uy = _lines(f, r, "y", Partition1D(r.x_interval, n).nodes(), True, scheme, n)
    ux = _lines(f, r, "x", Partition1D(r.y_interval, n).nodes(), True, scheme, n)
    col = (n + 1) * (uy[0] + uy[-1])
    col += 2.0 * sum(uy[1:-1])
    row = (n + 1) * (ux[0] + ux[-1])
    row += 2.0 * sum(ux[1:-1])
    return (r.b - r.a) / (4.0 * n) * col + (r.d - r.c) / (4.0 * n) * row


CLASSIC_TERM_NAMES = ("center", "midline_avg", "mean", "boundary_avg", "corner_avg")
REFINED_TERM_NAMES = ("center", "midline_avg", "mean", "boundary_midline_avg", "nine_point_avg")


def five_term_chains(f: Fn2D, r: Rect, scheme: InnerScheme = NestedDiscrete(),
                     oracle_grid: int = DEFAULT_GRID,
                     tolerance: float | None = None,
                     integral: float | None = None) -> tuple[ChainReport, ChainReport]:
    """The classic and the refined five-term mean-value chains, in one pass.

    Classic: center value <= average of center-line means <= mean of f <=
    average of boundary-line means <= corner average. Every ordering is
    certified in NestedDiscrete mode.

    Refined: the same first three terms; the fourth term averages boundary
    and doubled center-line integrals with weight 1/8, the fifth is the
    nine-point corner/edge-midpoint/center combination with weights 1/16,
    1/8, 1/4. Terms four and five never exceed their classic counterparts.
    In NestedDiscrete mode the fourth-to-fifth ordering is guaranteed for
    even inner counts (they coincide at two subintervals); an odd ``m`` can
    report a violation caused by resolution alone.

    Each shared piece is resolved once: the nine points in one evaluation,
    the lower center lines, the oracle (unless ``integral`` is given) and,
    per direction, the boundary lines with the upper center line.
    """
    cx, cy = r.center
    # the center, the corners, then the edge midpoints
    t1, ac, ad, bc, bd, xc, xd, ay, by = _points(
        f, [cx, r.a, r.a, r.b, r.b, cx, cx, r.a, r.b],
        [cy, r.c, r.d, r.c, r.d, r.c, r.d, cy, cy])
    qx = _lines(f, r, "x", [cy], False, scheme, 1)[0]
    qy = _lines(f, r, "y", [cx], False, scheme, 1)[0]
    t2 = 0.5 * (qx / (r.b - r.a) + qy / (r.d - r.c))
    if integral is None:
        integral = reference_integral_2d(f, r, oracle_grid).value
    head = (t1, t2, integral / r.area)
    ux = _lines(f, r, "x", [r.c, r.d, cy], True, scheme, 1)
    uy = _lines(f, r, "y", [r.a, r.b, cx], True, scheme, 1)
    c4 = (ux[0] + ux[1]) / (4.0 * (r.b - r.a))
    c4 += (uy[0] + uy[1]) / (4.0 * (r.d - r.c))
    r4 = (ux[0] + ux[1] + 2.0 * ux[2]) / (8.0 * (r.b - r.a))
    r4 += (uy[0] + uy[1] + 2.0 * uy[2]) / (8.0 * (r.d - r.c))
    r5 = (ac + ad + bc + bd) / 16.0
    r5 += 0.25 * t1
    r5 += (xc + xd + ay + by) / 8.0
    classic = head + (c4, 0.25 * (ac + ad + bc + bd))
    return (chain_report(list(zip(CLASSIC_TERM_NAMES, classic)), tolerance),
            chain_report(list(zip(REFINED_TERM_NAMES, head + (r4, r5))), tolerance))


def classic_chain(f: Fn2D, r: Rect, scheme: InnerScheme = NestedDiscrete(),
                  oracle_grid: int = DEFAULT_GRID,
                  tolerance: float | None = None,
                  integral: float | None = None) -> ChainReport:
    """The classic chain of :func:`five_term_chains`."""
    return five_term_chains(f, r, scheme, oracle_grid, tolerance, integral)[0]


def refined_chain(f: Fn2D, r: Rect, scheme: InnerScheme = NestedDiscrete(),
                  oracle_grid: int = DEFAULT_GRID,
                  tolerance: float | None = None,
                  integral: float | None = None) -> ChainReport:
    """The refined chain of :func:`five_term_chains`."""
    return five_term_chains(f, r, scheme, oracle_grid, tolerance, integral)[1]


def assemble_classic_terms(f: Fn2D, r: Rect, scheme: InnerScheme = NestedDiscrete(),
                           oracle_grid: int = DEFAULT_GRID,
                           integral: float | None = None) -> tuple[float, ...]:
    """Rebuild the five classic chain terms from the n=1 partitioned bounds.

    Combines :func:`centerline_bound`, :func:`partition_chain` and
    :func:`boundary_bound` at n=1: lhs/2, lower/area, integral/area,
    upper/area, rhs/4. With a shared scheme these match
    :func:`classic_chain` term by term up to roundoff.
    """
    c_lhs, _ = centerline_bound(f, r, 1, scheme)
    lower, upper = _partition_sums(f, r, 1, scheme)
    if integral is None:
        integral = reference_integral_2d(f, r, oracle_grid).value
    _, b_rhs = boundary_bound(f, r, 1, scheme)
    return (c_lhs / 2.0, lower / r.area, integral / r.area, upper / r.area, b_rhs / 4.0)
