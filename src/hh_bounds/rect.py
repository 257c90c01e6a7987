"""Inequality chains and certified enclosures for coordinate-convex functions
on a rectangle.

A function f(x, y) is convex on the coordinates when every restriction
x -> f(x, y0) and y -> f(x0, y) is convex. Each operation here evaluates the
terms of one two-sided (or one-sided) bound on the double integral and, for
the chain operations, reports whether every adjacent ordering holds at the
computed values.

Every term is a weighted sum of point values and of integrals along lines
parallel to an axis, so each bound declares its terms on a :class:`PointPlan`
as weighted sums of lines named in lattice coordinates, the nodes and
midpoints of a side cut into some count of cells. A plan depends only on
what was declared, not on f or the rectangle: ``verify`` declares the bounds
of a case once per kind of case, and a bound called on its own reuses the
plan of its arguments. In NestedDiscrete mode the direction is chosen per
use site: integrals sitting below the double integral in a chain are
resolved with the midpoint rule (an underestimate for convex restrictions),
integrals sitting above with the trapezoid rule (an overestimate). So the
orderings between point sums and these one-sided line rules are certified
up to rounding; the two beside the mean compare with the double integral
term, the caller's ``integral`` when given and otherwise the independent
Simpson oracle at its default grid, which is not a bound. Every ordering
passes when its slack is at least -1e-9 * max(1, |terms|); a non-finite
term or bound is an :class:`EvaluationError`.

The two five-term chains share their first three terms, boundary lines and
corners, so :func:`five_term_chains` builds both in one pass, and
:func:`classic_chain` and :func:`refined_chain` are views of it.

Callbacks receive blocks of points as numpy arrays. A point is known by
construction, as the two nodes per side whose mean it is. A small plan is
one flat call at the points of its requests of fewer than PACK_POINTS
points, each point once (a midpoint and a finer node with the same bits
are two points), in the order of their nodes, and each output is one
weighted sum of their values: a plan compiles each request to one source,
the positions of its values, and one rule, the weight of each value within
a line. A larger line request is summed line by line by
:func:`bounds1d.line_sums`, which says how, and its line values enter the
same sums.
Under Quadrature a plan's line requests become one list of distinct lines, a
line known by its direction, its point on the other side by construction
and its tolerance, so the center lines the two chains share are one line
each; :func:`schemes.simpson_lines` refines them all together, one call per
Simpson depth. A plan evaluates its points, then its large line requests in
declaration order, then its quadrature lines, the order its values are laid
out in, and a failure is the first one met in that order, among the
quadrature lines the first met as they are refined. A result that
ignores one variable, of the block's number of dimensions, is broadcast. A
scalar-only callback is called once per point instead, from a C-level loop
over per-chunk lists of Python floats: a point costs the call plus about
0.1 us, against a few ns for a numpy callback.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bounds1d import (Interval, Lattice, BoundPair, _distinct, check_points, evaluate,
                       line_sums, require_finite)
# not used here: still importable from here, as the benchmark's tests read
# rect.midpoint_lower
from .bounds1d import midpoint_lower  # noqa: F401
from .errors import DomainError, EvaluationError, PreconditionError
from .expr import Node
from .oracle import reference_integral_2d
from .schemes import InnerScheme, NestedDiscrete, simpson_lines

#: Points per side of the grid sampled by positivity spot checks.
SPOT_GRID = 33
#: Requests of fewer points are evaluated flat, all of them in one call.
#: That saves calls, but a flat block recomputes per-axis subexpressions such
#: as exp(r*x) at every point, so larger requests keep their row blocks.
PACK_POINTS = 1 << 12


@dataclass(frozen=True)
class Rect:
    """The integration domain [a, b] x [c, d], nondegenerate and finite,
    with finite widths and area, an area of at least the smallest normal
    float (``sys.float_info.min``, so that the area neither underflows to 0
    nor loses bits), and corners that stay finite when doubled (so every
    midpoint, the center included, is finite)."""

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
        if self.area < sys.float_info.min:
            raise DomainError("rectangle area must be at least the smallest normal float, "
                              f"{sys.float_info.min!r}, got {self.area!r} for {self}")
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
    point (see :func:`bounds1d.evaluate`). A small plan's points come in one
    call, each point by construction once, as two flat arrays of the same
    shape, and so do quadrature lines, one call per Simpson depth for all
    the lines still open there, both directions mixed. A large line request
    comes as a row of one coordinate and a column of the other. A result
    with the block's number of dimensions that broadcasts to its shape,
    such as that of ``lambda x, y: x * x``, which ignores ``y`` and returns
    the shape of ``x`` alone, is broadcast, with the bits of
    ``x * x + 0.0 * y``. A result that is 0-d or of another number of
    dimensions may be a reduction rather than values, so its callback is
    called once per point. A row block runs with a ufunc buffer of at most
    one line (see :func:`bounds1d.line_blocks`): elementwise values do not
    depend on it, but a callback that reduces within a block may see the
    other buffer. An ``eval`` that is an :class:`expr.Evaluator`, as a
    parsed expression's is, is no black box: its values have the block's
    shape and were checked by ``eval_ast``, so they are taken as they are,
    and its lines may be summed by its tree's factors (see
    :func:`bounds1d.line_sums`).
    ``positive`` asserts the range is >= 0 and gates :func:`positive_upper`.
    ``expr``, when given, is an expression tree that computes the same
    function; the convexity gate tries to prove coordinate convexity from it
    before it samples. Evaluation always goes through ``eval``; ``expr``
    never selects the factored sums, which only an Evaluator's tree does.
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


_OTHER = {"x": "y", "y": "x"}


# Lattice coordinates. A slice ``(count, positions)`` names points of one
# side cut into ``count`` cells by doubled position: an even position 2k is
# node k, an odd one 2k+1 the midpoint of cell k, so (1, range(1, 2)) is
# the center (see :meth:`bounds1d.Lattice.pairs`).
def _nodes(count: int) -> tuple[int, range]:
    return count, range(0, 2 * count + 1, 2)


def _mids(count: int) -> tuple[int, range]:
    return count, range(1, 2 * count, 2)


class _Lines(NamedTuple):
    """f along the lines through ``at``, a slice of the other side, running
    in ``along`` and sampled at ``pts``, a slice of ``along``. A line's
    value is the sum of its samples, the two end samples halved when
    ``trap`` (the trapezoid rule at unit spacing)."""

    along: str
    at: tuple[int, range]
    pts: tuple[int, range]
    trap: bool

    @property
    def size(self) -> int:
        return len(self.at[1]) * len(self.pts[1])

    def rule(self) -> np.ndarray:
        """The weight of each sample within a line."""
        rule = np.ones(len(self.pts[1]))
        if self.trap:
            rule[[0, -1]] = 0.5
        return rule


class _QuadratureLines(NamedTuple):
    """Adaptive Simpson to ``tol`` along the lines through ``at`` running in
    ``along`` across the rectangle. A line's value is its integral over its
    length, its mean; a failure names its point or line."""

    along: str
    at: tuple[int, range]
    tol: float


def _columns(parts: dict) -> list[np.ndarray]:
    """The rows of ``parts``, each a list of same-length columns, one key
    after another, as columns."""
    return [np.concatenate(col) for col in zip(*parts.values())]


def _split(parts: dict, values: np.ndarray) -> dict:
    """``values``, one per row of :func:`_columns` of ``parts``, cut back
    into one array per key of ``parts``."""
    sizes = [len(cols[0]) for cols in parts.values()]
    return dict(zip(parts, np.split(values, np.cumsum(sizes)[:-1])))


class _Values(list):
    """The values of a plan's outputs for one f and rectangle, in
    declaration order, with the rectangle's area."""

    def __init__(self, values: list[float], area: float):
        super().__init__(values)
        self.area = area


class PointPlan:
    """The weighted sums of f that some bounds need on a rectangle, declared
    once in lattice coordinates and resolved for any f and rectangle
    (internal to the package).

    Each bound opens its outputs with :meth:`output` and adds requests for
    lines to them with :meth:`add`; an output is its scale times the
    weighted sum of the values of the lines added to it. A request equal to
    one already declared is that request, evaluated once.
    """

    def __init__(self):
        self._counts: dict[str, dict[int, None]] = {"x": {}, "y": {}}  # per side, in order
        self._requests: dict[object, None] = {}
        self._adds: list[tuple[int, object, np.ndarray | float]] = []
        self._scales: list[tuple[float, bool]] = []
        self._points = 0
        self._sides = None  # the lattices, and the rest, once _compile has run

    def output(self, scale: float, area: bool = False) -> int:
        """A new output, ``scale`` (times the rectangle's area when
        ``area``) times the weighted sum of what is added to it: its index
        among :meth:`resolve`'s values."""
        self._scales.append((scale, area))
        self._sides = None
        return len(self._scales) - 1

    def add(self, out: int, req: _Lines | _QuadratureLines, weights=1.0) -> None:
        """Add to ``out`` the value of each line of ``req`` times its weight
        in ``weights``, one per line or one for all, declaring ``req``.

        The points of the plan's :class:`_Lines` requests (quadrature lines,
        of unknown size, are not counted) may not exceed
        ``bounds1d.MAX_POINTS`` in all: more is a :class:`DomainError` before
        any lattice is built or ``f`` is called.
        """
        if req not in self._requests:
            if isinstance(req, _Lines):
                self._points = check_points("a point plan", self._points + req.size)
                self._counts[req.along][req.pts[0]] = None
            self._counts[_OTHER[req.along]][req.at[0]] = None
            self._requests[req] = None
        self._adds.append((out, req, weights))
        self._sides = None

    def _compile(self) -> None:
        """Index and weight arrays for every output, built once per plan.

        One pass over the requests sorts them into three kinds. A request of
        fewer than PACK_POINTS points becomes points, each point one row of
        twin nodes (x lo, x hi, y lo, y hi), per side the first nodes with
        the bits of the two whose mean it is, so that points built alike
        share a row; the distinct rows, in lexicographic order, are the
        points. A larger request stays a line request, in declaration order.
        The quadrature requests become one list of distinct lines in the
        order of their first request, a line known by its direction, its
        point on the other side by construction and its tolerance. Equal
        rows of points and of lines are found as twin nodes are, by
        :func:`bounds1d._distinct`. The values are laid out in
        that order, points, line requests, quadrature lines, the order
        :meth:`resolve` evaluates them in. Each request has one source, the
        positions of its values, and one rule, the weight of each value
        within a line: ones over its points, the two ends halved for the
        trapezoid rule, or 1 for a line value. An add's weights are the
        line's weight times the rule.
        """
        sides = {s: Lattice(self._counts[s]) for s in "xy"}
        twins = {s: side.twins() for s, side in sides.items()}
        key, quad, self._lines, rule = {}, {}, [], {}
        for req in self._requests:
            rule[req] = 1.0
            if isinstance(req, _QuadratureLines):
                # per line: along x, its point on the other side as two nodes
                # of both sides' lattices, and its tolerance
                s = _OTHER[req.along]
                offset = 0 if s == "x" else sides["x"].size
                lo, hi = (twins[s][p] + offset for p in sides[s].pairs(*req.at))
                quad[req] = np.broadcast_arrays(req.along == "x", lo, hi, req.tol)
            elif req.size < PACK_POINTS:
                # per point, line by line: its twin nodes (x lo, x hi, y lo, y hi)
                key[req] = cols = []
                for s in "xy":
                    along = s == req.along
                    for p in sides[s].pairs(*(req.pts if along else req.at)):
                        cols.append(np.tile(twins[s][p], len(req.at[1])) if along
                                    else np.repeat(twins[s][p], len(req.pts[1])))
                rule[req] = req.rule()
            else:
                self._lines.append(req)
        source, self._pairs, distinct = {}, None, 0
        if key:
            # the distinct points in the order of their twin nodes
            cols = _columns(key)
            first, point = _distinct(cols)
            self._pairs = np.stack([col[first] for col in cols])
            source, distinct = _split(key, point), first.size
        starts = np.cumsum([distinct] + [len(req.at[1]) for req in self._lines])
        source.update(zip(self._lines, map(np.arange, starts, starts[1:])))
        self._quad = None
        if quad:
            # the distinct lines, in the order of their first request
            cols = _columns(quad)
            first, place = _distinct(cols)
            firsts = np.sort(first)
            source.update(_split(quad, starts[-1] + np.searchsorted(firsts, first)[place]))
            self._quad = tuple(col[firsts] for col in cols)

        src, weights, sizes = [], [], [0] * len(self._scales)
        for out, req, w in sorted(self._adds, key=lambda add: add[0]):
            line_w = np.broadcast_to(np.asarray(w, dtype=float), (len(req.at[1]),))
            src.append(source[req])
            weights.append(np.outer(line_w, rule[req]).ravel())
            sizes[out] += source[req].size
        self._src, self._weights = np.concatenate(src), np.concatenate(weights)
        self._starts = np.cumsum([0] + sizes[:-1])
        scale, by_area = zip(*self._scales)
        self._scale, self._by_area = np.array(scale), np.array(by_area)
        # the smallest weight of a by-area output is this times the area
        self._area_scale = min((s for s, area in self._scales if area), default=math.inf)
        self._sides = sides

    def resolve(self, f: Fn2D, r: Rect) -> _Values:
        """Every output's value for ``f`` on ``r``.

        Each side's lattice is mapped onto ``r`` in one pass, with
        :class:`bounds1d.Lattice`'s checks, and every point is the mean of
        its two nodes. Then the values are evaluated in the order they are
        laid out: the points, each point by construction once, in one call;
        each large line request in declaration order, by
        :func:`bounds1d.line_sums`; the distinct quadrature lines, all
        refined together by :func:`schemes.simpson_lines`. A failure is the
        first one met in that order: among the points the first in the
        order of their twin nodes, and among the quadrature lines the first
        met as :func:`schemes.simpson_lines` refines them, which need not be
        the first failing line in the order of their first request. An
        output that overflows comes out infinite, without a warning. The
        plan's size is checked against ``bounds1d.MAX_POINTS`` again first,
        and a by-area output whose scale times the area is below the
        smallest normal float, a weight that would lose bits or vanish, is
        a :class:`DomainError` before ``f`` is called.
        """
        check_points("a point plan", self._points)
        if self._sides is None:
            self._compile()
        if self._area_scale * r.area < sys.float_info.min:
            raise DomainError(f"rectangle area {r.area!r} is too small for these bounds: its "
                              f"weights, down to {self._area_scale * r.area!r}, fall below the "
                              f"smallest normal float, {sys.float_info.min!r}")
        ivs = {"x": r.x_interval, "y": r.y_interval}
        nodes = {s: side.nodes(ivs[s]) for s, side in self._sides.items()}

        def mean(s, pairs):
            lo, hi = pairs
            return 0.5 * (nodes[s][lo] + nodes[s][hi])

        values = []
        if self._pairs is not None:
            values.append(evaluate(f.eval, mean("x", self._pairs[:2]), mean("y", self._pairs[2:])))
        for req in self._lines:
            s = _OTHER[req.along]
            at = mean(s, self._sides[s].pairs(*req.at))
            run = mean(req.along, self._sides[req.along].pairs(*req.pts))
            values.append(line_sums(f.eval, req.along, at, run, req.rule()))
        if self._quad:
            values.append(self._quadrature(f, r, nodes))
        values = np.concatenate(values) if len(values) > 1 else values[0]
        with np.errstate(all="ignore"):
            sums = np.add.reduceat(values[self._src] * self._weights, self._starts)
            out = sums * np.where(self._by_area, self._scale * r.area, self._scale)
        return _Values(out.tolist(), r.area)

    def _quadrature(self, f: Fn2D, r: Rect, nodes: dict[str, np.ndarray]) -> np.ndarray:
        """The mean of ``f`` along each distinct quadrature line. A failure
        is the first failure met, named by its line when the error names no
        point. The lines' points come to ``f`` as two flat arrays that mix
        both directions."""
        along_x, lo, hi, tol = self._quad
        ends = np.concatenate([nodes["x"], nodes["y"]])
        t = 0.5 * (ends[lo] + ends[hi])
        a, b = np.where(along_x, r.a, r.c), np.where(along_x, r.b, r.d)

        def fn(line, s):
            x_line, at = along_x[line], t[line]
            return evaluate(f.eval, np.where(x_line, s, at), np.where(x_line, at, s))

        values, failure = simpson_lines(fn, a, b, tol)
        if failure is None:
            return values / (b - a)
        i, exc = failure
        if exc.where is not None:
            raise exc
        along = "x" if along_x[i] else "y"
        raise EvaluationError(f"line along {along} at {_OTHER[along]}={float(t[i])!r}: "
                              f"{exc}") from exc


@functools.lru_cache(maxsize=64)
def _declared(declare: Callable, *args) -> tuple[PointPlan, object]:
    """A plan with ``declare(plan, *args)`` on it, and what that returned:
    built once per arguments, as it depends on nothing else."""
    plan = PointPlan()
    return plan, declare(plan, *args)


def _resolved(f: Fn2D, r: Rect, declare: Callable, *args) -> Callable:
    """The finishing function of ``declare(plan, *args)`` on a plan of its
    own, resolved for ``f`` on ``r``: it takes any further arguments."""
    plan, finish = _declared(declare, *args)
    values = plan.resolve(f, r)
    return lambda *rest: finish(values, *rest)


def spot_minimum(f: Fn2D, r: Rect) -> float:
    """Minimum of f over the SPOT_GRID x SPOT_GRID sample grid of the rectangle."""
    xs, ys = np.broadcast_arrays(np.linspace(r.a, r.b, SPOT_GRID)[:, None],
                                 np.linspace(r.c, r.d, SPOT_GRID)[None, :])
    return float(evaluate(f.eval, xs.ravel(), ys.ravel()).min())


def _line_count(scheme: InnerScheme, cells: int) -> int:
    """What a line's value is divided by to give its mean: a NestedDiscrete
    line's subintervals (its rule is at unit spacing), or 1 (Quadrature).

    Every bound declares its partition into ``cells`` cells through here,
    so this is where a partition size ``n`` below 1 is a
    :class:`DomainError`, before any line is added or f is called.
    """
    if cells < 1:
        raise DomainError(f"n must be >= 1, got {cells}")
    return scheme.m * cells if isinstance(scheme, NestedDiscrete) else 1


def _lines(plan: PointPlan, out: int, along: str, at: tuple, upper: bool,
           scheme: InnerScheme, cells: int, weights=1.0) -> None:
    """Add to ``out`` the integrals of f along the lines through ``at``, a
    slice of the other side, running in ``along`` across the rectangle,
    resolved per ``scheme``: each line's value over ``_line_count`` is its
    mean. ``upper`` marks integrals that must stay above their true value.
    In NestedDiscrete mode those get the composite trapezoid value, the
    others the composite midpoint value, on m * ``cells`` subintervals.
    Quadrature resolves each line with adaptive Simpson, a line declared
    twice once, all of the plan's lines together (see
    :meth:`PointPlan.resolve`).
    """
    if isinstance(scheme, NestedDiscrete):
        count = scheme.m * cells
        plan.add(out, _Lines(along, at, _nodes(count) if upper else _mids(count), upper),
                 weights)
    else:
        plan.add(out, _QuadratureLines(along, at, scheme.tol), weights)


def _ends(n: int, end: float, inner: float) -> list[float]:
    """Weights of the n+1 node lines of a side cut into n cells."""
    return [end] + [inner] * (n - 1) + [end]


def _declare_partition_sums(plan: PointPlan, n: int, scheme: InnerScheme) -> tuple[int, int]:
    """The outputs of the lower and upper partitioned line-integral sums for
    a partition into n cells.

    Lower: the cell-midpoint lines, (d-c)/(2n) * sum_k int f(x, ymid_k) dx plus
    the symmetric x-direction sum. Upper: the boundary lines with weight
    (len)/(4n) plus the interior node lines with weight (len)/(2n).
    """
    k = _line_count(scheme, n)
    lower = plan.output(1.0 / (2 * n * k), area=True)
    upper = plan.output(1.0 / (2 * n * k), area=True)
    for along in "xy":
        _lines(plan, lower, along, _mids(n), False, scheme, n)
    for along in "xy":
        _lines(plan, upper, along, _nodes(n), True, scheme, n, _ends(n, 0.5, 1.0))
    return lower, upper


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
    plan, (lower, upper) = _declared(_declare_partition_sums, n, scheme)
    values = plan.resolve(f, r)
    return chain_report(
        [("midpoint_lines", values[lower]), ("integral", _integral(f, r, integral)),
         ("node_lines", values[upper])])


def discrete_enclosure(f: Fn2D, r: Rect, n: int, m: int = NestedDiscrete.m) -> BoundPair:
    """Fully discrete enclosure of the double integral from point values only.

    Every line integral in the lower sum is itself bounded below by the
    midpoint rule and every one in the upper sum above by the trapezoid rule
    (m subintervals per partition cell), so lower <= integral <= upper holds
    for any f convex on the coordinates.
    """
    return _resolved(f, r, declare_enclosure, n, m)()


def declare_enclosure(plan: PointPlan, n: int, m: int) -> Callable[[_Values], BoundPair]:
    """:func:`discrete_enclosure` on ``plan``: the finishing function takes
    the plan's values and returns it."""
    evals = enclosure_points(n, m)
    lower, upper = _declare_partition_sums(plan, n, NestedDiscrete(m))
    return lambda values: BoundPair(values[lower], values[upper], n=n, evals=evals)


def enclosure_points(n: int, m: int) -> int:
    """The points :func:`discrete_enclosure` declares, a point its lines
    share once per line; for n >= 1, more than ``bounds1d.MAX_POINTS`` is a
    :class:`DomainError`."""
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
                             scheme: InnerScheme) -> Callable[[_Values], tuple[float, float]]:
    """:func:`centerline_bound` on ``plan``: the finishing function takes the
    plan's values and returns it."""
    lhs = plan.output(1.0)
    rhs = plan.output(n / _line_count(scheme, n))
    for along in "yx":
        plan.add(lhs, _Lines(along, _mids(1), _mids(n), False))
        _lines(plan, rhs, along, _mids(1), False, scheme, n)
    return _finite_pair("centerline_bound", lhs, rhs)


def _finite_pair(name: str, lhs: int, rhs: int) -> Callable[[_Values], tuple[float, float]]:
    """The finishing function of the outputs (``lhs``, ``rhs``) of a bound:
    a non-finite one is an :class:`EvaluationError` naming ``name``."""
    return lambda values: (require_finite(f"{name} lhs", values[lhs]),
                           require_finite(f"{name} rhs", values[rhs]))


def boundary_bound(f: Fn2D, r: Rect, n: int,
                   scheme: InnerScheme = NestedDiscrete()) -> tuple[float, float]:
    """Scaled boundary-line integrals vs corner and boundary-node sums.

    Returns (lhs, rhs) with the contract lhs <= rhs for coordinate-convex f.
    In NestedDiscrete mode the lhs integrals are resolved from above, again
    making a pass conservative.
    """
    return _resolved(f, r, declare_boundary_bound, n, scheme)()


def declare_boundary_bound(plan: PointPlan, n: int,
                           scheme: InnerScheme) -> Callable[[_Values], tuple[float, float]]:
    """:func:`boundary_bound` on ``plan``: the finishing function takes the
    plan's values and returns it."""
    lhs = plan.output(n / _line_count(scheme, n))
    rhs = plan.output(1.0)
    for along in "yx":
        _lines(plan, lhs, along, _nodes(1), True, scheme, n)
    # f on the sides x = a, b at every y node (corners included), and on the
    # sides y = c, d at the interior x nodes
    plan.add(rhs, _Lines("y", _nodes(1), _nodes(n), False))
    if n > 1:
        plan.add(rhs, _Lines("x", _nodes(1), (n, range(2, 2 * n - 1, 2)), False))
    return _finite_pair("boundary_bound", lhs, rhs)


def positive_upper(f: Fn2D, r: Rect, n: int,
                   scheme: InnerScheme = NestedDiscrete()) -> float:
    """Upper bound on the double integral of a positive coordinate-convex f.

    Built from the boundary and interior node-line integrals with weights
    (n+1)/(4n) on the boundary lines and 2/(4n) on interior lines, in both
    directions. All integrals are resolved from above in NestedDiscrete mode,
    preserving the bound. The positivity flag plus a sample-grid spot check
    gate the computation; a negative sample is a hard error.
    """
    if not f.positive:
        raise PreconditionError("positive_upper requires a function flagged positive")
    lo = spot_minimum(f, r)
    if lo < 0.0:
        raise PreconditionError(
            f"positivity spot check failed: sampled value {lo!r} < 0 on the grid")
    return _resolved(f, r, declare_positive_upper, n, scheme)()


def declare_positive_upper(plan: PointPlan, n: int,
                           scheme: InnerScheme) -> Callable[[_Values], float]:
    """:func:`positive_upper` on ``plan``, for a function the caller has
    checked as it does: flagged positive and nonnegative on the spot grid
    of its rectangle, as :func:`convexity.random_coordinate_convex` flags a
    function on the rectangle it draws it for. The finishing function takes
    the plan's values."""
    bound = plan.output(1.0 / (4 * n * _line_count(scheme, n)), area=True)
    for along in "yx":
        _lines(plan, bound, along, _nodes(n), True, scheme, n, _ends(n, n + 1.0, 2.0))
    return lambda values: require_finite("positive_upper", values[bound])


CLASSIC_TERM_NAMES = ("center", "midline_avg", "mean", "boundary_avg", "corner_avg")
REFINED_TERM_NAMES = ("center", "midline_avg", "mean", "boundary_midline_avg", "nine_point_avg")


def five_term_chains(f: Fn2D, r: Rect, scheme: InnerScheme = NestedDiscrete(),
                     *, integral: float | None = None) -> tuple[ChainReport, ChainReport]:
    """The classic and the refined five-term mean-value chains, in one pass.

    Classic: center value <= average of center-line means <= mean of f <=
    average of boundary-line means <= corner average. In NestedDiscrete
    mode the orderings between point sums and one-sided line rules are
    certified up to rounding; the two beside the mean compare with
    ``integral`` or the Simpson oracle's value, which is not a bound. Every
    ordering passes within 1e-9 * max(1, |terms|).

    Refined: the same first three terms; the fourth term averages boundary
    and doubled center-line integrals with weight 1/8, the fifth is the
    nine-point corner/edge-midpoint/center combination with weights 1/16,
    1/8, 1/4. Terms four and five never exceed their classic counterparts.
    In NestedDiscrete mode the fourth-to-fifth ordering is guaranteed for
    even inner counts (they coincide at two subintervals); an odd ``m`` can
    report a violation caused by resolution alone.

    Each shared piece is resolved once: the nine points, the lower center
    lines and, per direction, the boundary lines with the upper center
    line (under Quadrature the lower one), all in one plan, then the oracle
    (unless ``integral`` is given).
    """
    finish = _resolved(f, r, declare_five_term_chains, scheme)
    return finish(_integral(f, r, integral))


def declare_five_term_chains(plan: PointPlan, scheme: InnerScheme
                             ) -> Callable[[_Values, float], tuple[ChainReport, ChainReport]]:
    """:func:`five_term_chains` on ``plan``: the finishing function takes the
    plan's values and the integral."""
    k = _line_count(scheme, 1)
    center, corner_avg, nine = plan.output(1.0), plan.output(0.25), plan.output(1.0 / 16.0)
    plan.add(center, _Lines("y", _mids(1), _mids(1), False))
    plan.add(nine, _Lines("y", _mids(1), _mids(1), False), 4.0)
    plan.add(corner_avg, _Lines("y", _nodes(1), _nodes(1), False))
    plan.add(nine, _Lines("y", _nodes(1), _nodes(1), False))
    for along in "yx":  # the edge midpoints
        plan.add(nine, _Lines(along, _mids(1), _nodes(1), False), 2.0)
    midline = plan.output(1.0 / (2 * k))
    for along in "xy":
        _lines(plan, midline, along, _mids(1), False, scheme, 1)
    # per direction, the boundary lines and the center line between them
    boundary, refined = plan.output(1.0 / (4 * k)), plan.output(1.0 / (8 * k))
    for along in "xy":
        _lines(plan, boundary, along, (1, range(3)), True, scheme, 1, (1.0, 0.0, 1.0))
        _lines(plan, refined, along, (1, range(3)), True, scheme, 1, (1.0, 2.0, 1.0))

    def finish(values: _Values, integral: float) -> tuple[ChainReport, ChainReport]:
        head = (values[center], values[midline], integral / values.area)
        return (chain_report(list(zip(CLASSIC_TERM_NAMES,
                                      head + (values[boundary], values[corner_avg])))),
                chain_report(list(zip(REFINED_TERM_NAMES,
                                      head + (values[refined], values[nine])))))
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


def declare_classic_terms(plan: PointPlan, scheme: InnerScheme
                          ) -> Callable[[_Values, float], tuple[float, ...]]:
    """:func:`assemble_classic_terms` on ``plan``: the finishing function
    takes the plan's values and the integral."""
    centerline = declare_centerline_bound(plan, 1, scheme)
    lower, upper = _declare_partition_sums(plan, 1, scheme)
    boundary = declare_boundary_bound(plan, 1, scheme)

    def finish(values: _Values, integral: float) -> tuple[float, ...]:
        c_lhs, _ = centerline(values)
        _, b_rhs = boundary(values)
        area = values.area
        return (c_lhs / 2.0, values[lower] / area, integral / area, values[upper] / area,
                b_rhs / 4.0)
    return finish
