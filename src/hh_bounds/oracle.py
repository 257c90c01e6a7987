"""High-resolution reference integrators used as independent ground truth.

Composite Simpson with a Richardson error estimate, deliberately a different
rule (and separate summation code) from the midpoint/trapezoid bounds under
test, so enclosure checks are never self-referential. It shares only the
evaluator, :func:`bounds1d.evaluate`, with them.

The 2-D oracle refines on nested dyadic levels 64, 128, ..., ``grid``. Every
level's nodes are a stride of the finest ``grid + 1`` nodes per axis, so a
new level evaluates only the points the coarser levels lack, copies the rest
from the level below, and no point is evaluated twice. Each level's
Richardson estimate compares it with the level below; refinement stops at
the first level whose estimate is ``<= target``, or at ``grid``.
``target=None`` asks for the explicit grid: a single full-grid evaluation
at level ``grid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds1d import evaluate
from .errors import DomainError, EvaluationError

DEFAULT_GRID = 1024
#: Coarsest level of the nested ladder.
FIRST_LEVEL = 64


@dataclass(frozen=True)
class OracleResult:
    value: float
    error_estimate: float
    grid: int

    def __post_init__(self):
        for name, value in (("value", self.value), ("error estimate", self.error_estimate)):
            if not math.isfinite(value):
                raise EvaluationError(f"oracle {name} is not finite: {value!r}")
        if self.error_estimate < 0.0:
            raise DomainError("error estimate must be nonnegative")


def _check_grid(grid: int) -> None:
    if grid < FIRST_LEVEL or grid & (grid - 1):
        raise DomainError(f"oracle grid must be a power of two >= 64, got {grid}")


def _simpson_1d(vals: np.ndarray, h: float) -> float:
    # vals holds an odd number of equally spaced samples; an overflowing sum
    # comes out infinite, without a warning
    with np.errstate(all="ignore"):
        return h / 3.0 * float(vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                               + 2.0 * vals[2:-2:2].sum())


def _tensor_simpson(v: np.ndarray, hx: float, hy: float) -> float:
    w = np.ones(v.shape[0])
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    with np.errstate(all="ignore"):
        return hx * hy / 9.0 * float(w @ v @ w)


def reference_integral_1d(fn, iv, grid: int = DEFAULT_GRID) -> OracleResult:
    """Composite Simpson on ``grid`` subintervals, error from the grid/2 value.

    ``fn`` is an Fn1D or bare callable; evaluation is array-at-once with a
    scalar fallback.
    """
    _check_grid(grid)
    vals = evaluate(getattr(fn, "eval", fn), np.linspace(iv.lo, iv.hi, grid + 1))
    h = (iv.hi - iv.lo) / grid
    v_full = _simpson_1d(vals, h)
    v_half = _simpson_1d(vals[::2], 2.0 * h)
    return OracleResult(value=v_full, error_estimate=abs(v_full - v_half) / 15.0, grid=grid)


def reference_integral_2d(fn, rect, grid: int = DEFAULT_GRID,
                          target: float | None = None) -> OracleResult:
    """Tensor-product composite Simpson over a rectangle with Richardson estimate.

    Refines on nested levels 64, 128, ..., ``grid`` until the error estimate
    is ``<= target``; the result's ``grid`` is the level it stopped at.
    ``target=None`` computes the explicit ``grid`` directly.
    """
    _check_grid(grid)
    ev = getattr(fn, "eval", fn)
    xs = np.linspace(rect.a, rect.b, grid + 1)
    ys = np.linspace(rect.c, rect.d, grid + 1)
    level = grid if target is None else FIRST_LEVEL
    s = grid // level
    vals = evaluate(ev, xs[::s, None], ys[None, ::s])
    while True:
        hx = (rect.b - rect.a) / level
        hy = (rect.d - rect.c) / level
        v_full = _tensor_simpson(vals, hx, hy)
        v_half = _tensor_simpson(vals[::2, ::2], 2.0 * hx, 2.0 * hy)
        estimate = abs(v_full - v_half) / 15.0
        if level == grid or estimate <= target:
            return OracleResult(value=v_full, error_estimate=estimate, grid=level)
        # halve the stride; the new points are the odd rows x all columns,
        # then the even rows x the odd columns of the finer level
        level, coarse, s = 2 * level, s, s // 2
        finer = np.empty((level + 1, level + 1))
        finer[::2, ::2] = vals
        finer[1::2, :] = evaluate(ev, xs[s::coarse, None], ys[None, ::s])
        finer[::2, 1::2] = evaluate(ev, xs[::coarse, None], ys[None, s::coarse])
        vals = finer
