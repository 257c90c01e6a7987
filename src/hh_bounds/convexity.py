"""Sampling-based coordinate-convexity checks and random convex test functions.

Functions arrive as black boxes (parser output or user callbacks), so
convexity is verified probabilistically: random chords along each axis, with
the convexity slack lam*f(u1) + (1-lam)*f(u2) - f(lam*u1 + (1-lam)*u2)
required to be nonnegative up to a tolerance. The generators build functions
that are coordinate-convex by construction: sums of products of nonnegative
convex one-variable atoms with nonnegative coefficients, plus an affine part.
Coordinate convexity, unlike joint convexity, is closed under such products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds1d import Fn1D, Interval, evaluate
from .errors import DomainError, PreconditionError
from .rect import Fn2D, Rect, spot_minimum

AXIS_X = "x"
AXIS_Y = "y"


class ConvexityRejection(PreconditionError):
    """An instance failed the sampling convexity gate."""

    def __init__(self, report: "ConvexityReport", context: str = ""):
        w = report.witness
        where = (f" near ({w.x!r}, {w.y!r}) lam={w.lam!r} axis={w.axis}" if w else "")
        suffix = f" [{context}]" if context else ""
        super().__init__(
            f"convexity gate rejected the function: worst slack "
            f"{report.max_violation!r}{where}{suffix}")
        self.report = report
        self.context = context


@dataclass(frozen=True)
class Witness:
    """Location of the worst convexity slack: the blended point and blend weight."""

    x: float
    y: float
    lam: float
    axis: str


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of a sampling run. ``samples`` counts draws over both axes;
    ``max_violation`` is the most negative slack observed (the minimum)."""

    samples: int
    max_violation: float
    witness: Witness | None
    passed: bool


def check_coordinate_convexity(f: Fn2D, r: Rect, samples: int = 10_000,
                               tol: float = 1e-10, seed: int = 0) -> ConvexityReport:
    """Sample convexity slacks of both partial mappings.

    Per axis, draws ``samples`` tuples (fixed other-coordinate, chord ends
    u1, u2, blend lam) and evaluates the slack. Deterministic given ``seed``;
    the worst witness is the minimum slack, ties resolved by draw order
    (x-axis block first).
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if tol < 0.0:
        raise DomainError(f"tol must be >= 0, got {tol}")
    rng = np.random.default_rng(seed)

    slacks, points, lams, axes = [], [], [], []
    for axis in (AXIS_X, AXIS_Y):
        if axis == AXIS_X:
            fixed = rng.uniform(r.c, r.d, samples)
            u1 = rng.uniform(r.a, r.b, samples)
            u2 = rng.uniform(r.a, r.b, samples)
        else:
            fixed = rng.uniform(r.a, r.b, samples)
            u1 = rng.uniform(r.c, r.d, samples)
            u2 = rng.uniform(r.c, r.d, samples)
        lam = rng.uniform(0.0, 1.0, samples)
        blend = lam * u1 + (1.0 - lam) * u2
        if axis == AXIS_X:
            s = (lam * evaluate(f.eval, u1, fixed) + (1.0 - lam) * evaluate(f.eval, u2, fixed)
                 - evaluate(f.eval, blend, fixed))
            points.append(np.column_stack([blend, fixed]))
        else:
            s = (lam * evaluate(f.eval, fixed, u1) + (1.0 - lam) * evaluate(f.eval, fixed, u2)
                 - evaluate(f.eval, fixed, blend))
            points.append(np.column_stack([fixed, blend]))
        slacks.append(s)
        lams.append(lam)
        axes.append(axis)

    all_slacks = np.concatenate(slacks)
    worst = int(np.argmin(all_slacks))
    max_violation = float(all_slacks[worst])

    witness = None
    if max_violation < 0.0:
        block, offset = divmod(worst, samples)
        pt = points[block][offset]
        witness = Witness(x=float(pt[0]), y=float(pt[1]),
                          lam=float(lams[block][offset]), axis=axes[block])
    return ConvexityReport(samples=2 * samples, max_violation=max_violation,
                           witness=witness, passed=max_violation >= -tol)


# ---------------------------------------------------------------------------
# Random convex instances


@dataclass(frozen=True)
class Square:
    """t^2; convex and nonnegative everywhere."""

    def value(self, t):
        return t * t


@dataclass(frozen=True)
class AbsShift:
    """|t - center|; convex and nonnegative everywhere."""

    center: float

    def value(self, t):
        return np.abs(t - self.center)


@dataclass(frozen=True)
class Exp:
    """exp(rate * t); convex and positive everywhere."""

    rate: float

    def value(self, t):
        return np.exp(self.rate * t)


@dataclass(frozen=True)
class Affine:
    """slope * t + intercept; used in products only when nonnegative on the range."""

    slope: float
    intercept: float

    def value(self, t):
        return self.slope * t + self.intercept


ConvexAtom = Square | AbsShift | Exp | Affine


def _draw_atom(rng: np.random.Generator, iv: Interval) -> ConvexAtom:
    """Draw one atom, convex and nonnegative on the given interval."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return Square()
    if kind == 1:
        return AbsShift(center=float(rng.uniform(iv.lo, iv.hi)))
    if kind == 2:
        return Exp(rate=float(rng.uniform(-1.5, 1.5)))
    slope = float(rng.uniform(-1.5, 1.5))
    intercept = float(rng.uniform(0.0, 1.0))
    low = min(slope * iv.lo + intercept, slope * iv.hi + intercept)
    if low < 0.0:
        intercept -= low  # clamp so the factor stays nonnegative
    return Affine(slope=slope, intercept=intercept)


def random_coordinate_convex(seed: int, r: Rect, atom_count: int) -> Fn2D:
    """A random function convex on the coordinates, reproducible from ``seed``.

    f(x, y) = beta + px*x + py*y + sum_i c_i * g_i(x) * h_i(y) with c_i >= 0
    and every g_i, h_i nonnegative convex on the corresponding side, so each
    partial mapping is a nonnegative combination of convex functions. The
    positive flag is set when the minimum over the sample grid is strictly
    positive.
    """
    if atom_count < 0:
        raise DomainError(f"atom_count must be >= 0, got {atom_count}")
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(-0.5, 1.5))
    px = float(rng.uniform(-0.75, 0.75))
    py = float(rng.uniform(-0.75, 0.75))
    terms = []
    for _ in range(atom_count):
        coeff = float(rng.uniform(0.0, 2.0))
        terms.append((coeff, _draw_atom(rng, r.x_interval), _draw_atom(rng, r.y_interval)))

    def ev(x, y):
        acc = beta + px * x + py * y
        for c, gx, hy in terms:
            acc = acc + c * gx.value(x) * hy.value(y)
        return acc

    fn = Fn2D(eval=ev)
    return Fn2D(eval=ev, positive=spot_minimum(fn, r) > 0.0)


def random_convex_1d(seed: int, iv: Interval, atom_count: int,
                     ensure_positive: bool = False) -> Fn1D:
    """A random convex function of one variable, reproducible from ``seed``.

    F(t) = beta + p*t + sum_i c_i * atom_i(t) with c_i >= 0 and convex atoms.
    The atoms are nonnegative, so F >= beta + min(p*lo, p*hi); with
    ``ensure_positive`` beta is lifted until that floor clears 0.05, which
    makes positivity a construction guarantee rather than a sampling claim.
    """
    if atom_count < 0:
        raise DomainError(f"atom_count must be >= 0, got {atom_count}")
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(-0.5, 1.5))
    slope = float(rng.uniform(-1.0, 1.0))
    terms = [(float(rng.uniform(0.0, 2.0)), _draw_atom(rng, iv)) for _ in range(atom_count)]
    if ensure_positive:
        floor = beta + min(slope * iv.lo, slope * iv.hi)
        if floor < 0.05:
            beta += 0.05 - floor

    def ev(t):
        acc = beta + slope * t
        for c, atom in terms:
            acc = acc + c * atom.value(t)
        return acc

    grid = np.linspace(iv.lo, iv.hi, 257)
    positive = bool(evaluate(ev, grid).min() > 0.0)
    return Fn1D(eval=ev, positive=positive)
