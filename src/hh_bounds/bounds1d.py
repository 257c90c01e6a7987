"""Composite midpoint / trapezoid bounds for convex functions of one variable.

For a convex integrand the composite midpoint rule underestimates the integral
and the composite trapezoid rule overestimates it, so the pair is a certified
enclosure (up to floating-point roundoff; no directed rounding is attempted).
Convexity is a caller-side precondition, checked on demand by the convexity
module, never inside these routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError, PreconditionError

#: Relative scale of the roundoff allowance used in enclosure invariants.
MACHINE_TOL = 1e-12


def machine_tol(*values: float) -> float:
    """Roundoff allowance 1e-12 * max(1, |values|...)."""
    return MACHINE_TOL * max(1.0, *(abs(v) for v in values))


@dataclass(frozen=True)
class Interval:
    """A nondegenerate finite interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainError(f"degenerate interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Partition1D:
    """Uniform partition of an interval into ``n`` cells.

    Node k is lo + k*(hi-lo)/n, computed directly from k (no running
    accumulation) so roundoff cannot drift nodes outside the interval; the
    last node is pinned to ``hi`` exactly.
    """

    interval: Interval
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"partition size must be >= 1, got {self.n}")
        if not (np.diff(self.nodes()) > 0.0).all():
            raise DomainError(f"partition into {self.n} cells has coincident nodes")

    @property
    def h(self) -> float:
        return self.interval.length / self.n

    def nodes(self) -> np.ndarray:
        iv = self.interval
        xs = iv.lo + np.arange(self.n + 1, dtype=float) * (iv.hi - iv.lo) / self.n
        xs[0] = iv.lo
        xs[-1] = iv.hi
        return xs

    def midpoints(self) -> np.ndarray:
        xs = self.nodes()
        return 0.5 * (xs[:-1] + xs[1:])


@dataclass(frozen=True)
class Fn1D:
    """A real function of one variable given as a black-box callback.

    ``eval`` must be deterministic and finite on the interval it is used on.
    It may accept numpy arrays (evaluated elementwise); scalar-only callbacks
    are handled by a fallback loop. ``positive`` asserts the range is >= 0,
    required by :func:`deficit_upper`.
    """

    eval: Callable
    positive: bool = False

    def __call__(self, t):
        return self.eval(t)


@dataclass(frozen=True)
class BoundPair:
    """A certified (lower, upper) enclosure together with its cost."""

    lower: float
    upper: float
    n: int
    evals: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"BoundPair.n must be >= 1, got {self.n}")
        if self.lower > self.upper + machine_tol(self.lower, self.upper):
            raise PreconditionError(
                f"bounds out of order: lower={self.lower!r} > upper={self.upper!r}; "
                "the integrand is probably not convex"
            )

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def evaluate(ev: Callable, *args) -> np.ndarray:
    """Values of ``ev`` at the broadcast of ``args``, insisting on finite results.

    The only evaluator in the package. ``ev`` is called once, array-at-once,
    with ``args`` as given; a callback whose result does not have the
    broadcast shape (a scalar-only callback) is called once per point
    instead, lazily. A failure of such a call (``ArithmeticError`` or
    ``ValueError``) and a non-finite value both raise
    :class:`EvaluationError` whose ``where`` is the full point. The result
    is a C-contiguous float array of the broadcast shape.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(ev(*args), dtype=float, order="C")
            if out.shape != shape:
                raise TypeError("scalar-only callback")
        except (TypeError, ValueError, ArithmeticError):
            points = zip(*(np.broadcast_to(a, shape).flat for a in args))
            out = np.fromiter((_point_value(ev, p) for p in points), float,
                              count=math.prod(shape)).reshape(shape)
    bad = ~np.isfinite(out)
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), shape)
        where = tuple(float(np.broadcast_to(a, shape)[idx]) for a in args)
        raise EvaluationError(f"non-finite value at {where}", where=where)
    return out


def _point_value(ev: Callable, point) -> float:
    point = tuple(map(float, point))
    try:
        return float(ev(*point))
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"evaluation failed at {point}: {exc}", where=point) from exc


def midpoint_sum(v: np.ndarray, h: float):
    """Composite midpoint value of each row of ``v`` (values at the cell midpoints)."""
    return h * v.sum(-1)


def trapezoid_sum(v: np.ndarray, h: float):
    """Composite trapezoid value of each row of ``v`` (values at the nodes)."""
    return h * (0.5 * (v[..., 0] + v[..., -1]) + v[..., 1:-1].sum(-1))


def midpoint_lower(fn: Fn1D, iv: Interval, n: int) -> float:
    """Composite midpoint value h * sum of F at the n cell midpoints.

    For F convex on ``iv`` this is a lower bound on the integral of F.
    """
    part = Partition1D(iv, n)
    return float(midpoint_sum(evaluate(fn.eval, part.midpoints()), part.h))


def trapezoid_upper(fn: Fn1D, iv: Interval, n: int) -> float:
    """Composite trapezoid value (h/2) * [F(lo) + 2*sum(F(x_k)) + F(hi)].

    For F convex on ``iv`` this is an upper bound on the integral of F.
    """
    part = Partition1D(iv, n)
    return float(trapezoid_sum(evaluate(fn.eval, part.nodes()), part.h))


def integral_enclosure(fn: Fn1D, iv: Interval, n: int) -> BoundPair:
    """Two-sided enclosure of the integral of a convex F over ``iv``.

    Midpoints and nodes are disjoint point sets, so the cost is exactly
    n + (n+1) = 2n+1 evaluations, reported in ``evals``.
    """
    return BoundPair(
        lower=midpoint_lower(fn, iv, n),
        upper=trapezoid_upper(fn, iv, n),
        n=n,
        evals=2 * n + 1,
    )


def deficit_upper(fn: Fn1D, iv: Interval, t: float, n: int) -> float:
    """Upper bound on integral(F) - (hi-lo)*F(t) for positive convex F.

    The bound equals the composite trapezoid value and does not depend on t;
    t is accepted to document the instantiation point and is validated to lie
    in the interval. Requires ``fn.positive``.
    """
    if not fn.positive:
        raise PreconditionError("deficit_upper requires a function flagged positive")
    if not (math.isfinite(t) and iv.lo <= t <= iv.hi):
        raise DomainError(f"t={t!r} outside interval [{iv.lo}, {iv.hi}]")
    return trapezoid_upper(fn, iv, n)
