"""Inequality chains and certified enclosures for coordinate-convex functions
on a rectangle.

A function f(x, y) is convex on the coordinates when every restriction
x -> f(x, y0) and y -> f(x0, y) is convex. Each operation here evaluates the
terms of one two-sided (or one-sided) bound on the double integral and, for
the chain operations, reports whether every adjacent ordering holds at the
computed values.

Every term is a weighted sum of point values and of integrals along lines
parallel to an axis. Each bound declares the lines and points it needs on a
:class:`PointPlan`, which evaluates all of them at once, and then reduces
its values; a bound called on its own has a plan to itself, while ``verify``
declares every bound of a case on one plan. The lines of one kind are
declared together by :func:`_lines` through an InnerScheme. In
NestedDiscrete mode the direction is chosen per use site: integrals sitting
below the double integral in a chain are resolved with the midpoint rule
(an underestimate for convex restrictions), integrals sitting above with the
trapezoid rule (an overestimate), so every reported ordering is still
certified. The double
integral term is the caller's ``integral`` when given, and otherwise the
independent Simpson oracle at its default grid. A chain's orderings hold
when each slack is at least -1e-9 * max(1, |terms|); a non-finite term or
bound is an :class:`EvaluationError`.

The two five-term chains share their first three terms, boundary lines and
corners, so :func:`five_term_chains` builds both in one pass, and
:func:`classic_chain` and :func:`refined_chain` are views of it.

Callbacks receive blocks of points as numpy arrays. A plan packs its small
requests, fewer than PACK_POINTS points in all, into flat 1-D arrays of both
coordinates, one evaluation per pack; a larger line request is evaluated as
broadcast ``lines x points per line`` blocks of about BLOCK_POINTS points by
:func:`bounds1d.line_blocks`, the block loop the Simpson oracle fills its
grid with (BLOCK_POINTS lives in bounds1d and is re-exported here). A
scalar-only callback is called once per point instead, from a C-level loop
over per-chunk lists of Python floats: a point costs the call plus about
0.1 us, against a few ns for a numpy callback.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bounds1d import (BoundPair, Interval, Partition1D, check_points, evaluate, line_blocks,
                       midpoint_sum, require_finite, trapezoid_sum)
# still importable from here, as before (bench/test_bench.py and the tests rely on them)
from .bounds1d import BLOCK_POINTS, midpoint_lower, trapezoid_upper  # noqa: F401
from .errors import DomainError, EvaluationError, PreconditionError
from .expr import Node
from .oracle import reference_integral_2d
from .schemes import InnerScheme, NestedDiscrete, adaptive_simpson

#: Points per side of the grid sampled by positivity spot checks.
SPOT_GRID = 33
#: Most points packed flat into one evaluation of small requests. Packing
#: saves calls, but a flat block recomputes per-axis subexpressions such as
#: exp(r*x) at every point, so larger requests keep their row blocks.
PACK_POINTS = 1 << 12


@dataclass(frozen=True)
class Rect:
    """The integration domain [a, b] x [c, d], nondegenerate and finite,
    with finite widths and area, and corners that stay finite when doubled
    (so every midpoint, the center included, is finite)."""

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
        # a non-finite width makes the area non-finite too
        if not math.isfinite(self.area):
            raise DomainError(f"rectangle widths and area must be finite, got {self}")
        if not all(math.isfinite(2.0 * v) for v in (self.a, self.b, self.c, self.d)):
            raise DomainError("rectangle corners must be at most half the largest float "
                              f"in magnitude, got {self}")

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
    scalar-only callback is called once per point instead, with Python
    floats from per-chunk lists, which costs the call plus about 0.1 us a
    point (see :func:`bounds1d.evaluate`). Small requests
    come as two flat arrays of the same shape. A large line request comes as
    a row of one coordinate and a column of the other, and there a numpy
    callback whose result has any other shape, such as
    ``lambda x, y: x * x``, which ignores ``y`` and returns the shape of
    ``x`` alone, is also called once per point: write ``x * x + 0.0 * y``
    to keep it array-at-once. Such a result is not broadcast for the
    caller, because a result of another shape, a 0-d one included, may be a
    reduction rather than values.
    ``positive`` asserts the range is >= 0 and gates :func:`positive_upper`.
    ``expr``, when given, is an expression tree that computes the same
    function; the convexity gate tries to prove coordinate convexity from it
    before it samples. Evaluation always goes through ``eval``.
    """

    eval: Callable
    positive: bool = False
    expr: Node | None = None

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

    slack = value_j - value_i; an ordering is satisfied when slack >= -tolerance,
    where tolerance = 1e-9 * max(1, |value| over all terms).
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


def chain_report(terms: list[tuple[str, float]]) -> ChainReport:
    """Orderings of ``terms``; a non-finite term is an :class:`EvaluationError`."""
    for name, value in terms:
        require_finite(f"chain term {name}", value)
    tolerance = 1e-9 * max(1.0, *(abs(v) for _, v in terms))
    orderings = []
    for i in range(len(terms) - 1):
        slack = terms[i + 1][1] - terms[i][1]
        orderings.append(Ordering(i, i + 1, slack >= -tolerance, slack))
    return ChainReport(terms=tuple(terms), orderings=tuple(orderings), tolerance=tolerance)


class _Grid(NamedTuple):
    """A side cut into equal cells: cell width, nodes and midpoints."""

    h: float
    nodes: np.ndarray
    midpoints: np.ndarray


class _LineRequest(NamedTuple):
    """Lines through ``at`` running in ``along``, sampled at ``pts`` and
    reduced by the trapezoid (``upper``) or midpoint rule of width ``h``.

    Evaluated on its own, it reduces each block of about
    ``bounds1d.BLOCK_POINTS`` points as :func:`bounds1d.line_blocks` yields
    it; in a pack, through :meth:`flat`."""

    along: str
    at: np.ndarray
    pts: np.ndarray
    upper: bool
    h: float

    @property
    def size(self) -> int:
        return self.at.size * self.pts.size

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        run, fixed = np.tile(self.pts, self.at.size), np.repeat(self.at, self.pts.size)
        return (run, fixed) if self.along == "x" else (fixed, run)

    def reduce(self, values: np.ndarray) -> list[float]:
        rule = trapezoid_sum if self.upper else midpoint_sum
        return rule(values.reshape(-1, self.pts.size), self.h).tolist()

    def evaluate(self, f: Fn2D) -> list[float]:
        """The values of the lines, reduced block by block."""
        out = []
        for block in line_blocks(f.eval, self.along, self.at, self.pts):
            out += self.reduce(block)
        return out


class _PointRequest(NamedTuple):
    """f at the broadcast of ``xs`` and ``ys``, which has ``shape``."""

    xs: np.ndarray
    ys: np.ndarray
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.broadcast_to(self.xs, self.shape).ravel(),
                np.broadcast_to(self.ys, self.shape).ravel())

    def reduce(self, values: np.ndarray) -> np.ndarray:
        return values.reshape(self.shape)

    def evaluate(self, f: Fn2D) -> np.ndarray:
        return evaluate(f.eval, self.xs, self.ys)


class _QuadratureLines(NamedTuple):
    """Adaptive Simpson to ``tol`` along the lines through ``at`` running in
    ``along`` across ``iv``, never packed; a failure names its point or line."""

    along: str
    at: np.ndarray
    iv: Interval
    tol: float
    size = math.inf

    def evaluate(self, f: Fn2D) -> list[float]:
        out, other = [], "y" if self.along == "x" else "x"
        for t in self.at:
            def ev(s, t=t):
                return evaluate(f.eval, s, t) if self.along == "x" else evaluate(f.eval, t, s)
            try:
                out.append(adaptive_simpson(ev, self.iv.lo, self.iv.hi, self.tol))
            except EvaluationError as exc:
                if exc.where is not None:
                    raise
                raise EvaluationError(f"line along {self.along} at {other}={float(t)!r}: "
                                      f"{exc}") from exc
        return out


class PointPlan:
    """The lines and points that some bounds need of ``f`` on ``r``,
    evaluated together (internal to the package).

    Each bound declares its requests with :meth:`lines`, :meth:`quadrature`
    and :meth:`points`, which return handles, and reduces ``plan[handle]``
    once :meth:`resolve` has run. A request equal to one already declared
    (the same lines and rule, or the same points and shapes) gets that
    request's handle and is evaluated once. A partition of a side into a
    given count of cells is built, checked and turned into nodes and
    midpoints once per plan; a line request's partition only when the plan
    resolves, once the plan's size has been checked.
    """

    def __init__(self, f: Fn2D, r: Rect):
        self.f = f
        self.r = r
        self._grids: dict[tuple[str, int], _Grid] = {}
        self._requests: list = []
        self._handles: dict[tuple, int] = {}
        self._points = 0
        self._results: list = []

    def grid(self, side: str, count: int) -> _Grid:
        """``side`` ("x" or "y") of the rectangle cut into ``count`` cells."""
        key = (side, count)
        if key not in self._grids:
            part = Partition1D(self.r.x_interval if side == "x" else self.r.y_interval, count)
            self._grids[key] = _Grid(part.h, part.nodes(), part.midpoints())
        return self._grids[key]

    def lines(self, along: str, at, upper: bool, count: int) -> int:
        """Composite trapezoid (``upper``) or midpoint values, on ``count``
        subintervals, of f along the lines through ``at`` running in ``along``.
        The result is a list, one value per line."""
        at = np.asarray(at, dtype=float)

        def request() -> _LineRequest:
            grid = self.grid(along, count)
            return _LineRequest(along, at, grid.nodes if upper else grid.midpoints, upper, grid.h)
        return self._declare(("lines", along, at.tobytes(), upper, count),
                             at.size * (count + upper), request)

    def points(self, xs, ys) -> int:
        """f at the broadcast of ``xs`` and ``ys``, an array of that shape."""
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        req = _PointRequest(xs, ys, np.broadcast_shapes(xs.shape, ys.shape))
        return self._declare(("points", xs.tobytes(), xs.shape, ys.tobytes(), ys.shape),
                             req.size, lambda: req)

    def quadrature(self, along: str, at, tol: float) -> int:
        """Adaptive Simpson values, to ``tol``, of f along the lines through
        ``at`` running in ``along``, whichever side they bound: a list."""
        at = np.asarray(at, dtype=float)
        iv = self.r.x_interval if along == "x" else self.r.y_interval
        req = _QuadratureLines(along, at, iv, tol)
        return self._declare(("quadrature", along, at.tobytes(), tol), req.size, lambda: req)

    def spot_grid(self) -> int:
        """The SPOT_GRID x SPOT_GRID positivity sample grid."""
        r = self.r
        return self.points(np.linspace(r.a, r.b, SPOT_GRID)[:, None],
                           np.linspace(r.c, r.d, SPOT_GRID)[None, :])

    def _declare(self, key: tuple, size: float, request: Callable[[], object]) -> int:
        """The handle of the request declared under ``key``; if none was, the
        request of ``size`` points that ``request()`` builds when the plan resolves.

        The plan's points, quadrature (of unknown size) aside, may not exceed
        ``bounds1d.MAX_POINTS`` in all: more is a :class:`DomainError` before
        any line's partition is built or ``f`` is called.
        """
        if key not in self._handles:
            if math.isfinite(size):
                self._points = check_points("a point plan", self._points + size)
            self._handles[key] = len(self._requests)
            self._requests.append(request)
        return self._handles[key]

    def __getitem__(self, handle: int):
        return self._results[handle]

    def resolve(self) -> None:
        """Evaluate every request, in declaration order.

        Consecutive requests of fewer than PACK_POINTS points are packed
        flat into one evaluation while the pack stays under PACK_POINTS. A
        larger request is evaluated on its own, lines in row blocks: alone
        in a pack it would save no call, and flat blocks cost more.
        """
        self._requests = [request() for request in self._requests]
        self._results = [None] * len(self._requests)
        pack, packed = [], 0
        for i, req in enumerate(self._requests):
            small = req.size < PACK_POINTS
            if not small or packed + req.size >= PACK_POINTS:
                self._evaluate_pack(pack)
                pack, packed = [], 0
            if small:
                pack.append(i)
                packed += req.size
            else:
                self._results[i] = req.evaluate(self.f)
        self._evaluate_pack(pack)

    def _evaluate_pack(self, pack: list[int]) -> None:
        if not pack:
            return
        xs, ys = zip(*(self._requests[i].flat() for i in pack))
        values = evaluate(self.f.eval, np.concatenate(xs), np.concatenate(ys))
        start = 0
        for i in pack:
            req = self._requests[i]
            self._results[i] = req.reduce(values[start:start + req.size])
            start += req.size


def _resolved(f: Fn2D, r: Rect, declare: Callable, *args) -> Callable:
    """The finishing function of ``declare(plan, *args)`` on a plan of its own, resolved."""
    plan = PointPlan(f, r)
    finish = declare(plan, *args)
    plan.resolve()
    return finish


def spot_minimum(f: Fn2D, r: Rect) -> float:
    """Minimum of f over the SPOT_GRID x SPOT_GRID sample grid of the rectangle."""
    plan = PointPlan(f, r)
    spot = plan.spot_grid()
    plan.resolve()
    return float(plan[spot].min())


def with_positivity(ev: Callable, r: Rect, expr: Node | None = None) -> Fn2D:
    """``ev`` as an Fn2D carrying ``expr``, flagged positive when its
    minimum over the spot grid of ``r`` is strictly positive."""
    return Fn2D(eval=ev, positive=spot_minimum(Fn2D(eval=ev), r) > 0.0, expr=expr)


def _lines(plan: PointPlan, along: str, at, upper: bool, scheme: InnerScheme,
           cells: int) -> int:
    """Declare the integrals of f along the lines through ``at``, resolved per ``scheme``.

    The lines run in the variable ``along`` ("x" or "y") across the whole
    rectangle; ``at`` holds each line's other coordinate. ``upper`` marks
    integrals that must stay above their true value. In NestedDiscrete mode
    those get the composite trapezoid value, the others the composite
    midpoint value, on m * ``cells`` subintervals (:meth:`PointPlan.lines`).
    Quadrature resolves each line with adaptive Simpson in the plan's turn
    (:meth:`PointPlan.quadrature`), one refinement level per evaluation.
    """
    if isinstance(scheme, NestedDiscrete):
        return plan.lines(along, at, upper, scheme.m * cells)
    return plan.quadrature(along, at, scheme.tol)


def _fold(values, start: float = 0.0) -> float:
    """``start`` plus ``values``, added left to right.

    Not ``sum``: from Python 3.12 it compensates float sums, so its bits
    would depend on the interpreter. This is what it computes on 3.10 and 3.11.
    """
    return functools.reduce(operator.add, values, start)


def _declare_partition_sums(plan: PointPlan, n: int,
                            scheme: InnerScheme) -> Callable[[], tuple[float, float]]:
    """Lower and upper partitioned line-integral sums for a partition into n cells.

    Lower: the cell-midpoint lines, (d-c)/(2n) * sum_k int f(x, ymid_k) dx plus
    the symmetric x-direction sum. Upper: the boundary lines with weight
    (len)/(4n) plus the interior node lines with weight (len)/(2n).
    """
    r = plan.r
    gx, gy = plan.grid("x", n), plan.grid("y", n)
    lower_x = _lines(plan, "x", gy.midpoints, False, scheme, n)
    lower_y = _lines(plan, "y", gx.midpoints, False, scheme, n)
    upper_x = _lines(plan, "x", gy.nodes, True, scheme, n)
    upper_y = _lines(plan, "y", gx.nodes, True, scheme, n)

    def finish() -> tuple[float, float]:
        wy = (r.d - r.c) / (2.0 * n)
        wx = (r.b - r.a) / (2.0 * n)
        lower = wy * _fold(plan[lower_x])
        lower += wx * _fold(plan[lower_y])
        ux, uy = plan[upper_x], plan[upper_y]
        upper = 0.5 * wy * (ux[0] + ux[-1])
        upper += 0.5 * wx * (uy[0] + uy[-1])
        upper += wy * _fold(ux[1:-1])
        upper += wx * _fold(uy[1:-1])
        return lower, upper
    return finish


def _integral(f: Fn2D, r: Rect, integral: float | None) -> float:
    """``integral``, or the Simpson oracle's value at its default grid if None."""
    return reference_integral_2d(f, r).value if integral is None else integral


def partition_chain(f: Fn2D, r: Rect, n: int, scheme: InnerScheme = NestedDiscrete(),
                    *, integral: float | None = None) -> ChainReport:
    """Three-term chain: midpoint-line sum <= double integral <= node-line sum.

    The middle term is ``integral``, or the Simpson oracle's value at its
    default grid when that is None; the outer terms are resolved per
    ``scheme``.
    """
    lower, upper = _resolved(f, r, _declare_partition_sums, n, scheme)()
    return chain_report(
        [("midpoint_lines", lower), ("integral", _integral(f, r, integral)),
         ("node_lines", upper)])


def discrete_enclosure(f: Fn2D, r: Rect, n: int, m: int = NestedDiscrete.m) -> BoundPair:
    """Fully discrete enclosure of the double integral from point values only.

    Every line integral in the lower sum is itself bounded below by the
    midpoint rule and every one in the upper sum above by the trapezoid rule
    (m subintervals per partition cell), so lower <= integral <= upper holds
    for any f convex on the coordinates.
    """
    return _resolved(f, r, declare_enclosure, n, m)()


def declare_enclosure(plan: PointPlan, n: int, m: int) -> Callable[[], BoundPair]:
    """:func:`discrete_enclosure` on ``plan``: the finishing function returns it."""
    evals = enclosure_points(n, m)
    sums = _declare_partition_sums(plan, n, NestedDiscrete(m))
    return lambda: BoundPair(*sums(), n=n, evals=evals)


def enclosure_points(n: int, m: int) -> int:
    """The points :func:`discrete_enclosure` evaluates; for n >= 1, more than
    ``bounds1d.MAX_POINTS`` is a :class:`DomainError`."""
    k = m * n  # subintervals per line
    points = 2 * n * k + (2 * n + 2) * (k + 1)
    return check_points(f"an enclosure with n={n}, m={m}", points) if n >= 1 else points


def centerline_bound(f: Fn2D, r: Rect, n: int,
                     scheme: InnerScheme = NestedDiscrete()) -> tuple[float, float]:
    """Midpoint-grid sums on the two center lines vs the center-line integrals.

    Returns (lhs, rhs) with the contract lhs <= rhs for coordinate-convex f:
    lhs sums f at (center_x, ymid_k) and (xmid_k, center_y); rhs scales the
    integrals along the two center lines by n/length. In NestedDiscrete mode
    the rhs integrals are resolved from below, so a reported pass is
    conservative.
    """
    return _resolved(f, r, declare_centerline_bound, n, scheme)()


def declare_centerline_bound(plan: PointPlan, n: int,
                             scheme: InnerScheme) -> Callable[[], tuple[float, float]]:
    """:func:`centerline_bound` on ``plan``: the finishing function returns it."""
    r = plan.r
    cx, cy = r.center
    along_y = plan.points(cx, plan.grid("y", n).midpoints)
    along_x = plan.points(plan.grid("x", n).midpoints, cy)
    line_y = _lines(plan, "y", [cx], False, scheme, n)
    line_x = _lines(plan, "x", [cy], False, scheme, n)

    def finish() -> tuple[float, float]:
        with np.errstate(over="ignore"):
            lhs = float(plan[along_y].sum())
            lhs += float(plan[along_x].sum())
        rhs = n / (r.d - r.c) * plan[line_y][0]
        rhs += n / (r.b - r.a) * plan[line_x][0]
        return (require_finite("centerline_bound lhs", lhs),
                require_finite("centerline_bound rhs", rhs))
    return finish


def boundary_bound(f: Fn2D, r: Rect, n: int,
                   scheme: InnerScheme = NestedDiscrete()) -> tuple[float, float]:
    """Scaled boundary-line integrals vs corner and boundary-node sums.

    Returns (lhs, rhs) with the contract lhs <= rhs for coordinate-convex f.
    In NestedDiscrete mode the lhs integrals are resolved from above, again
    making a pass conservative.
    """
    return _resolved(f, r, declare_boundary_bound, n, scheme)()


def declare_boundary_bound(plan: PointPlan, n: int,
                           scheme: InnerScheme) -> Callable[[], tuple[float, float]]:
    """:func:`boundary_bound` on ``plan``: the finishing function returns it."""
    r = plan.r
    lines_y = _lines(plan, "y", [r.a, r.b], True, scheme, n)
    lines_x = _lines(plan, "x", [r.c, r.d], True, scheme, n)
    # f on the sides x = a, b at every y node (corners included), and on the
    # sides y = c, d at the interior x nodes
    sides = plan.points(np.array([[r.a], [r.b]]), plan.grid("y", n).nodes)
    caps = plan.points(plan.grid("x", n).nodes[1:-1], np.array([[r.c], [r.d]]))

    def finish() -> tuple[float, float]:
        uy, ux = plan[lines_y], plan[lines_x]
        lhs = n / (r.d - r.c) * (uy[0] + uy[1])
        lhs += n / (r.b - r.a) * (ux[0] + ux[1])
        side, cap = plan[sides], plan[caps]
        (ac, *_, ad), (bc, *_, bd) = side.tolist()
        # the corners, then the opposite node pairs, one pair at a time in node order
        with np.errstate(over="ignore"):
            pairs = (side[0, 1:-1] + side[1, 1:-1]).tolist() + (cap[0] + cap[1]).tolist()
        rhs = _fold(pairs, ac + ad + bc + bd)
        return (require_finite("boundary_bound lhs", lhs),
                require_finite("boundary_bound rhs", rhs))
    return finish


def positive_upper(f: Fn2D, r: Rect, n: int,
                   scheme: InnerScheme = NestedDiscrete()) -> float:
    """Upper bound on the double integral of a positive coordinate-convex f.

    Built from the boundary and interior node-line integrals with weights
    (n+1)/(4n) on the boundary lines and 2/(4n) on interior lines, in both
    directions. All integrals are resolved from above in NestedDiscrete mode,
    preserving the bound. The positivity flag plus a sample-grid spot check
    gate the computation; a negative sample is a hard error.
    """
    return _resolved(f, r, declare_positive_upper, n, scheme)()


def declare_positive_upper(plan: PointPlan, n: int,
                           scheme: InnerScheme) -> Callable[[], float]:
    """:func:`positive_upper` on ``plan``: the finishing function returns it.
    The positivity flag is checked here, the spot grid when it finishes."""
    if not plan.f.positive:
        raise PreconditionError("positive_upper requires a function flagged positive")
    r = plan.r
    spot = plan.spot_grid()
    lines_y = _lines(plan, "y", plan.grid("x", n).nodes, True, scheme, n)
    lines_x = _lines(plan, "x", plan.grid("y", n).nodes, True, scheme, n)

    def finish() -> float:
        lo = float(plan[spot].min())
        if lo < 0.0:
            raise PreconditionError(
                f"positivity spot check failed: sampled value {lo!r} < 0 on the grid")
        uy, ux = plan[lines_y], plan[lines_x]
        col = (n + 1) * (uy[0] + uy[-1])
        col += 2.0 * _fold(uy[1:-1])
        row = (n + 1) * (ux[0] + ux[-1])
        row += 2.0 * _fold(ux[1:-1])
        return require_finite("positive_upper",
                              (r.b - r.a) / (4.0 * n) * col + (r.d - r.c) / (4.0 * n) * row)
    return finish


CLASSIC_TERM_NAMES = ("center", "midline_avg", "mean", "boundary_avg", "corner_avg")
REFINED_TERM_NAMES = ("center", "midline_avg", "mean", "boundary_midline_avg", "nine_point_avg")


def five_term_chains(f: Fn2D, r: Rect, scheme: InnerScheme = NestedDiscrete(),
                     *, integral: float | None = None) -> tuple[ChainReport, ChainReport]:
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

    Each shared piece is resolved once: the nine points, the lower center
    lines and, per direction, the boundary lines with the upper center
    line, all in one plan, then the oracle (unless ``integral`` is given).
    """
    finish = _resolved(f, r, declare_five_term_chains, scheme)
    return finish(_integral(f, r, integral))


def declare_five_term_chains(plan: PointPlan, scheme: InnerScheme
                             ) -> Callable[[float], tuple[ChainReport, ChainReport]]:
    """:func:`five_term_chains` on ``plan``: the finishing function takes the integral."""
    r = plan.r
    cx, cy = r.center
    # the center, the corners, then the edge midpoints
    nine = plan.points([cx, r.a, r.a, r.b, r.b, cx, cx, r.a, r.b],
                       [cy, r.c, r.d, r.c, r.d, r.c, r.d, cy, cy])
    lower_x = _lines(plan, "x", [cy], False, scheme, 1)
    lower_y = _lines(plan, "y", [cx], False, scheme, 1)
    upper_x = _lines(plan, "x", [r.c, r.d, cy], True, scheme, 1)
    upper_y = _lines(plan, "y", [r.a, r.b, cx], True, scheme, 1)

    def finish(integral: float) -> tuple[ChainReport, ChainReport]:
        t1, ac, ad, bc, bd, xc, xd, ay, by = plan[nine].tolist()
        t2 = 0.5 * (plan[lower_x][0] / (r.b - r.a) + plan[lower_y][0] / (r.d - r.c))
        head = (t1, t2, integral / r.area)
        ux, uy = plan[upper_x], plan[upper_y]
        c4 = (ux[0] + ux[1]) / (4.0 * (r.b - r.a))
        c4 += (uy[0] + uy[1]) / (4.0 * (r.d - r.c))
        r4 = (ux[0] + ux[1] + 2.0 * ux[2]) / (8.0 * (r.b - r.a))
        r4 += (uy[0] + uy[1] + 2.0 * uy[2]) / (8.0 * (r.d - r.c))
        r5 = (ac + ad + bc + bd) / 16.0
        r5 += 0.25 * t1
        r5 += (xc + xd + ay + by) / 8.0
        classic = head + (c4, 0.25 * (ac + ad + bc + bd))
        return (chain_report(list(zip(CLASSIC_TERM_NAMES, classic))),
                chain_report(list(zip(REFINED_TERM_NAMES, head + (r4, r5)))))
    return finish


def classic_chain(f: Fn2D, r: Rect, scheme: InnerScheme = NestedDiscrete(),
                  *, integral: float | None = None) -> ChainReport:
    """The classic chain of :func:`five_term_chains`."""
    return five_term_chains(f, r, scheme, integral=integral)[0]


def refined_chain(f: Fn2D, r: Rect, scheme: InnerScheme = NestedDiscrete(),
                  *, integral: float | None = None) -> ChainReport:
    """The refined chain of :func:`five_term_chains`."""
    return five_term_chains(f, r, scheme, integral=integral)[1]


def assemble_classic_terms(f: Fn2D, r: Rect, scheme: InnerScheme = NestedDiscrete(),
                           *, integral: float | None = None) -> tuple[float, ...]:
    """Rebuild the five classic chain terms from the n=1 partitioned bounds.

    Combines :func:`centerline_bound`, :func:`partition_chain` and
    :func:`boundary_bound` at n=1: lhs/2, lower/area, integral/area,
    upper/area, rhs/4. With a shared scheme these match
    :func:`classic_chain` term by term up to roundoff.
    """
    finish = _resolved(f, r, declare_classic_terms, scheme)
    return finish(_integral(f, r, integral))


def declare_classic_terms(plan: PointPlan,
                          scheme: InnerScheme) -> Callable[[float], tuple[float, ...]]:
    """:func:`assemble_classic_terms` on ``plan``: the finishing function takes the integral."""
    centerline = declare_centerline_bound(plan, 1, scheme)
    sums = _declare_partition_sums(plan, 1, scheme)
    boundary = declare_boundary_bound(plan, 1, scheme)
    area = plan.r.area

    def finish(integral: float) -> tuple[float, ...]:
        c_lhs, _ = centerline()
        lower, upper = sums()
        _, b_rhs = boundary()
        return (c_lhs / 2.0, lower / area, integral / area, upper / area, b_rhs / 4.0)
    return finish
