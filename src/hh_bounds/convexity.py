"""Sampling-based coordinate-convexity checks and random convex test functions.

Functions arrive as black boxes (parser output or user callbacks), so
convexity is verified probabilistically: random chords along each axis, with
the convexity slack lam*f(u1) + (1-lam)*f(u2) - f(lam*u1 + (1-lam)*u2)
required to be nonnegative up to a tolerance. One chord-test body serves
both axes; the axis only decides which coordinate is held fixed. The
generators build functions that are coordinate-convex by construction: sums
of products of nonnegative convex one-variable atoms (plain functions of t)
with nonnegative coefficients, plus an affine part. Coordinate convexity,
unlike joint convexity, is closed under such products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds1d import Fn1D, Interval, evaluate
from .errors import DomainError, PreconditionError
from .rect import Fn2D, Rect, with_positivity

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

    max_violation, witness = np.inf, None
    for axis, chord, other in ((AXIS_X, (r.a, r.b), (r.c, r.d)),
                               (AXIS_Y, (r.c, r.d), (r.a, r.b))):
        fixed = rng.uniform(*other, samples)
        u1 = rng.uniform(*chord, samples)
        u2 = rng.uniform(*chord, samples)
        lam = rng.uniform(0.0, 1.0, samples)
        blend = lam * u1 + (1.0 - lam) * u2

        def at(u):
            return (u, fixed) if axis == AXIS_X else (fixed, u)

        s = (lam * evaluate(f.eval, *at(u1)) + (1.0 - lam) * evaluate(f.eval, *at(u2))
             - evaluate(f.eval, *at(blend)))
        i = int(np.argmin(s))
        if s[i] < max_violation:
            max_violation = float(s[i])
            if max_violation < 0.0:
                x, y = (float(v[i]) for v in at(blend))
                witness = Witness(x=x, y=y, lam=float(lam[i]), axis=axis)
    return ConvexityReport(samples=2 * samples, max_violation=max_violation,
                           witness=witness, passed=max_violation >= -tol)


# ---------------------------------------------------------------------------
# Random convex instances


def _draw_atom(rng: np.random.Generator, iv: Interval) -> Callable:
    """Draw one atom, a function of t convex and nonnegative on ``iv``:
    t^2, |t - center|, exp(rate*t), or slope*t + intercept with the intercept
    lifted until the line is nonnegative on ``iv``."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return lambda t: t * t
    if kind == 1:
        center = float(rng.uniform(iv.lo, iv.hi))
        return lambda t: np.abs(t - center)
    if kind == 2:
        rate = float(rng.uniform(-1.5, 1.5))
        return lambda t: np.exp(rate * t)
    slope = float(rng.uniform(-1.5, 1.5))
    intercept = float(rng.uniform(0.0, 1.0))
    low = min(slope * iv.lo + intercept, slope * iv.hi + intercept)
    if low < 0.0:
        intercept -= low
    return lambda t: slope * t + intercept


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
            acc = acc + c * gx(x) * hy(y)
        return acc

    return with_positivity(ev, r)


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
            acc = acc + c * atom(t)
        return acc

    grid = np.linspace(iv.lo, iv.hi, 257)
    positive = bool(evaluate(ev, grid).min() > 0.0)
    return Fn1D(eval=ev, positive=positive)
