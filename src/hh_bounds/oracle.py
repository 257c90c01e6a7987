"""High-resolution reference integrators used as independent ground truth.

Composite Simpson with a Richardson error estimate, deliberately a different
rule (and separate summation code) from the midpoint/trapezoid bounds under
test, so enclosure checks are never self-referential. It shares only the
evaluation layer with them: :func:`bounds1d.evaluate` and
:func:`bounds1d.line_sums`.

The 2-D oracle refines on nested dyadic levels 64, 128, ..., ``grid``. Every
level's nodes are a stride of the finest ``grid + 1`` nodes per axis, so a
new level adds only the points the coarser levels lack, and the grid
evaluates no point twice. Each level's Richardson estimate compares it with
the level below; refinement stops at the first level whose estimate is
``<= target``, or at ``grid``. ``target=None`` asks for the explicit grid: a ladder that
starts and stops at level ``grid``.

No level keeps its values. Per axis, a node's index at a level falls into one
of four classes: an end, odd, 2 mod 4, or an interior 0 mod 4. Both Simpson
sums of a level, its own and the half grid's on its even nodes, weight f by
class alone, so a level keeps only a 4 x 4 array of class sums. Each pass's
lines x = x_i are summed against the one-hot classes of its columns by
:func:`bounds1d.line_sums`, which says how, then its rows are added up by
class. Doubling the level takes index i to 2i: an end stays an end, an odd
index becomes 2 mod 4 and both even classes become 0 mod 4, and the new
points' class sums are added. So an evaluation holds one row block of about
``BLOCK_POINTS`` points and its temporaries at most, whatever the grid. The
passes run in the order of one row-major pass over the first level, then
per refinement the odd rows and then the even rows by the odd columns, so
the first failing point is that of those passes evaluated whole. The sums
are added in another order than one full-grid ``w @ F @ w``, which moves the
value by rounding only (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 4).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .bounds1d import check_points, evaluate, line_sums, require_finite
from .errors import DomainError

DEFAULT_GRID = 1024
#: Coarsest level of the nested ladder.
FIRST_LEVEL = 64
#: Per axis, the index classes of a level's nodes: an end, odd, 2 mod 4 and
#: an interior 0 mod 4; and their weights in the level's Simpson sum.
END, ODD, TWO, FOUR = range(4)
SIMPSON = np.array([1.0, 4.0, 2.0, 2.0])
#: The half grid's class sums, the classes of its nodes (the even ones), and
#: their weights in its Simpson sum. The classes are picked, not weighted by
#: 0, as a class sum may have overflowed.
HALF_SUMS = np.ix_([END, TWO, FOUR], [END, TWO, FOUR])
HALF = np.array([1.0, 4.0, 2.0])
#: Where each class's sums go when the level doubles: index i becomes 2i.
PROMOTE = np.ix_([END, TWO, FOUR, FOUR], [END, TWO, FOUR, FOUR])


@dataclass(frozen=True)
class OracleResult:
    value: float
    error_estimate: float
    grid: int

    def __post_init__(self):
        for name, value in (("value", self.value), ("error estimate", self.error_estimate)):
            require_finite(f"oracle {name}", value)
        if self.error_estimate < 0.0:
            raise DomainError("error estimate must be nonnegative")


def _check_grid(grid: int) -> None:
    if grid < FIRST_LEVEL or grid & (grid - 1):
        raise DomainError(f"oracle grid must be a power of two >= 64, got {grid}")


def _check_weight(weight: float, what: str) -> None:
    """A :class:`DomainError` if the finest level's smallest Simpson weight,
    ``weight``, is below the smallest normal float: it would lose bits, or
    vanish, and the value with it."""
    if weight < sys.float_info.min:
        raise DomainError(f"{what} is too small for the oracle: its weights, down to "
                          f"{weight!r}, fall below the smallest normal float, "
                          f"{sys.float_info.min!r}")


def _simpson_1d(vals: np.ndarray, h: float) -> float:
    # vals holds an odd number of equally spaced samples; an overflowing sum
    # comes out infinite, without a warning
    with np.errstate(all="ignore"):
        return h / 3.0 * float(vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                               + 2.0 * vals[2:-2:2].sum())


def reference_integral_1d(fn, iv, grid: int = DEFAULT_GRID) -> OracleResult:
    """Composite Simpson on ``grid`` subintervals, error from the grid/2 value.

    ``fn`` is an Fn1D or bare callable; evaluation is array-at-once with a
    scalar fallback. A grid of more than MAX_POINTS points, or a weight h/3
    below the smallest normal float, is a :class:`DomainError`, raised
    before ``fn`` is called.
    """
    _check_grid(grid)
    check_points(f"a 1-D oracle grid of {grid}", grid + 1)
    h = (iv.hi - iv.lo) / grid
    _check_weight(h / 3.0, f"interval [{iv.lo!r}, {iv.hi!r}]")
    vals = evaluate(getattr(fn, "eval", fn), np.linspace(iv.lo, iv.hi, grid + 1))
    v_full = _simpson_1d(vals, h)
    v_half = _simpson_1d(vals[::2], 2.0 * h)
    return OracleResult(value=v_full, error_estimate=abs(v_full - v_half) / 15.0, grid=grid)


def reference_integral_2d(fn, rect, grid: int = DEFAULT_GRID,
                          target: float | None = None) -> OracleResult:
    """Tensor-product composite Simpson over a rectangle with Richardson estimate.

    Refines on nested levels 64, 128, ..., ``grid`` until the error estimate
    is ``<= target``; the result's ``grid`` is the level it stopped at.
    ``target=None`` computes the explicit ``grid`` directly. The lines are
    reduced to class sums by :func:`bounds1d.line_sums`, so memory is one
    row block of about ``BLOCK_POINTS`` points at most, at any grid. A grid
    whose weight hx*hy/9 at ``grid`` is below the smallest normal float, or
    a ``target`` that is not ``>= 0`` (NaN included), is a
    :class:`DomainError`, raised before ``fn`` is called.
    """
    _check_grid(grid)
    if target is not None and not target >= 0.0:
        raise DomainError(f"target must be >= 0, got {target}")
    check_points(f"an oracle grid of {grid}", (grid + 1) ** 2)
    _check_weight((rect.b - rect.a) / grid * ((rect.d - rect.c) / grid) / 9.0,
                  f"rectangle area {rect.area!r}")
    ev = getattr(fn, "eval", fn)
    xs = np.linspace(rect.a, rect.b, grid + 1)
    ys = np.linspace(rect.c, rect.d, grid + 1)
    level = grid if target is None else FIRST_LEVEL
    s = grid // level
    # an overflowing sum comes out infinite, without a warning
    with np.errstate(all="ignore"):
        sums = _class_sums(ev, xs[::s], ys[::s], slice(None), odd_columns=False)
        while True:
            hx = (rect.b - rect.a) / level
            hy = (rect.d - rect.c) / level
            v_full = hx * hy / 9.0 * float(SIMPSON @ sums @ SIMPSON)
            v_half = 4.0 * hx * hy / 9.0 * float(HALF @ sums[HALF_SUMS] @ HALF)
            estimate = abs(v_full - v_half) / 15.0
            if level == grid or estimate <= target:
                return OracleResult(value=v_full, error_estimate=estimate, grid=level)
            # halve the stride; the new points are the odd rows x all columns,
            # then the even rows x the odd columns of the finer level
            level, s = 2 * level, s // 2
            coarse, sums = sums, np.zeros((4, 4))
            np.add.at(sums, PROMOTE, coarse)
            sums += _class_sums(ev, xs[::s], ys[::s], slice(1, None, 2), odd_columns=False)
            sums += _class_sums(ev, xs[::s], ys[::s], slice(None, None, 2), odd_columns=True)


def _class_sums(ev, xs: np.ndarray, ys: np.ndarray, rows: slice,
                odd_columns: bool) -> np.ndarray:
    """The 4 x 4 class sums of f at a level's nodes ``xs[rows]`` by ``ys``,
    or by its odd nodes. Its rows' sums by column class,
    :func:`bounds1d.line_sums` against its columns' one-hot classes, are
    then added up by the rows' classes."""
    every, odd, order, starts = _classes(xs.size - 1)
    columns, at = (odd, ys[1::2]) if odd_columns else (every, ys)
    per_row = np.zeros((xs.size, 4))
    per_row[rows] = line_sums(ev, "y", xs[rows], at, columns)
    return np.add.reduceat(per_row[order], starts)


@functools.cache
def _classes(level: int) -> tuple[np.ndarray, ...]:
    """For a level's nodes: their one-hot classes, (nodes, 4), and those of
    the odd nodes alone; and the order that groups the nodes by class, with
    where each class starts in it. Read-only, as they are kept: one entry
    per level, of which MAX_POINTS allows 64 to 8192."""
    k = np.arange(level + 1)
    classes = np.where(k % 2 == 1, ODD, np.where(k % 4 == 2, TWO, FOUR))
    classes[[0, -1]] = END
    order = np.argsort(classes, kind="stable")
    out = (np.eye(4)[classes], np.eye(4)[classes[1::2]], order,
           np.searchsorted(classes[order], [END, ODD, TWO, FOUR]))
    for a in out:
        a.flags.writeable = False
    return out
