"""Composite midpoint / trapezoid bounds for convex functions of one variable,
and the evaluation layer every bound of the package stands on.

For a convex integrand the composite midpoint rule underestimates the integral
and the composite trapezoid rule overestimates it, so the pair is a certified
enclosure (up to floating-point roundoff; no directed rounding is attempted).
Convexity is a caller-side precondition, checked on demand by the convexity
module, never inside these routines.

The module also holds what the 2-D bounds, the oracle and the gate share:
:func:`evaluate`, the path by which a function is evaluated at points, with
:func:`line_blocks` for lines in row blocks, and :func:`line_sums`, which
sums lines of a separable expression from its factors' values instead,
without the grid; the :class:`Lattice` of node partitions a point is known
by; and the size caps: MAX_POINTS, checked by :func:`check_points`, and the
smallest-normal step of :class:`Partition1D`.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import expr
from .errors import DomainError, EvaluationError, PreconditionError
from .expr import Evaluator

#: Relative scale of the roundoff allowance used in enclosure invariants.
MACHINE_TOL = 1e-12
#: Points per evaluated block of lines (whole lines, at least one). Much
#: smaller blocks pay per-call overhead; much larger ones only add memory.
#: Each block runs with a ufunc buffer of at most one line (see
#: :func:`line_blocks`), which changes speed only, never a value, and its
#: temporaries reuse heap pages already mapped (see HEAP_RESERVE).
BLOCK_POINTS = 1 << 16
#: Doubles allocated once at import and freed unwritten, so that the heap
#: keeps the pages of a row block's temporaries. glibc's malloc serves a
#: request this size (2 MB) from mmap, and freeing such a chunk raises its
#: dynamic mmap threshold to 2 MB and its trim threshold to twice that
#: (mallopt(3), "dynamic mmap threshold"). Without it, nothing in most
#: processes frees a chunk that large, so the heap top is given back to the
#: kernel after each block and faulted in again for the next, about 1.5 MB
#: a block. Setting the thresholds with mallopt instead would pin them and
#: turn glibc's adjustment off, so any larger array would be mmapped and
#: faulted on every call. Another allocator sees one malloc and free; no
#: value changes anywhere.
HEAP_RESERVE = 4 * BLOCK_POINTS
np.empty(HEAP_RESERVE)
#: Points per chunk a scalar-only callback is fed from, as lists of floats.
#: The loop over a chunk runs in C; much larger chunks only add memory.
SCALAR_CHUNK = 1024
#: Largest sum over a separable expression's terms of the product of each
#: factor's max(1, max|value|) for which :func:`line_sums` sums by factors:
#: far enough below the largest float that no product or partial sum of the
#: terms, nor any rounding of one, can overflow.
SEPARABLE_LIMIT = 2.0 ** 1000
#: Most points an enclosure, a point plan or an oracle grid may have, checked
#: before anything is built; the benchmark's largest (n=1024, m=16) is 4.0x below.
MAX_POINTS = 1 << 28


def machine_tol(*values: float) -> float:
    """Roundoff allowance 1e-12 * max(1, |values|...)."""
    return MACHINE_TOL * max(1.0, *(abs(v) for v in values))


def check_points(what: str, points: int) -> int:
    """``points``, or a :class:`DomainError` naming ``what`` if it exceeds MAX_POINTS."""
    if points > MAX_POINTS:
        raise DomainError(f"{what} needs {points} points, more than the cap of {MAX_POINTS}")
    return points


def require_finite(what: str, value: float) -> float:
    """``value``, or an :class:`EvaluationError` naming ``what`` if it is not finite."""
    if not math.isfinite(value):
        raise EvaluationError(f"{what} is not finite: {value!r}")
    return value


@dataclass(frozen=True)
class Interval:
    """A nondegenerate finite interval [lo, hi] whose endpoints stay finite
    when doubled, so that every midpoint of two points in it is finite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(2.0 * self.lo) and math.isfinite(2.0 * self.hi)):
            raise DomainError(f"interval endpoints must be finite and at most half the "
                              f"largest float in magnitude, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainError(f"degenerate interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


class Lattice:
    """The nodes of the uniform partitions of one interval into each of
    ``counts`` cells, concatenated in that order; ``offsets[i]`` is where
    the nodes of ``counts[i]`` start.

    Node k of a partition into n cells is lo + k*(hi-lo)/n, computed directly
    from k (no running accumulation) so roundoff cannot drift nodes outside
    the interval; the first and last nodes are pinned to ``lo`` and ``hi``
    exactly. A count below 1 or above MAX_POINTS is a :class:`DomainError`
    on construction, which keeps only the counts and their offsets;
    :meth:`nodes` then computes and checks every partition of an interval in
    one pass: k*(hi-lo) can overflow on a wide interval, and roundoff can
    make neighbouring nodes coincide on a narrow one. A point of the lattice
    is known by construction, as the two nodes whose mean it is
    (:meth:`pairs`), and points built alike have the same bits
    (:meth:`twins`).
    """

    def __init__(self, counts):
        for n in counts:
            if n < 1:
                raise DomainError(f"partition size must be >= 1, got {n}")
            check_points(f"a partition into {n} cells", n + 1)
        self.counts = tuple(counts)
        self.offsets = np.concatenate(([0], np.cumsum(np.array(self.counts, dtype=np.int64) + 1)))
        self.size = int(self.offsets[-1])

    def _indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Per node, its k and the n of its partition."""
        sizes = np.diff(self.offsets)
        return (np.arange(self.size) - np.repeat(self.offsets[:-1], sizes),
                np.repeat(sizes - 1, sizes))

    def twins(self) -> np.ndarray:
        """Per node, the first node with its bits by construction: node k of
        n cells has the bits of node 2k of 2n cells, as (2k)*(hi-lo) is
        exactly twice k*(hi-lo) and both quotients round alike, and the
        first and last nodes are pinned."""
        k, n = self._indices()
        low = (k | n) & -(k | n)  # the largest power of two dividing both
        key = np.where(k == 0, -1, np.where(k == n, -2, (n // low) << 32 | k // low))
        first, place = _distinct([key])
        return first[place]

    def pairs(self, count: int, positions: range) -> tuple[np.ndarray, np.ndarray]:
        """The two nodes whose mean is each point of the partition into
        ``count`` cells at ``positions``, doubled: 2k is node k, the mean of
        itself and itself, and 2k+1 the midpoint of cell k."""
        pos = 2 * int(self.offsets[self.counts.index(count)]) + np.arange(
            positions.start, positions.stop, positions.step)
        return pos // 2, (pos + 1) // 2

    def nodes(self, iv: Interval) -> np.ndarray:
        """The nodes of every partition of ``iv``; a non-finite or coincident
        node is a :class:`DomainError` naming the first partition with one."""
        k, n = self._indices()
        with np.errstate(all="ignore"):
            xs = iv.lo + k * (iv.hi - iv.lo) / n
        xs[self.offsets[:-1]] = iv.lo
        xs[self.offsets[1:] - 1] = iv.hi
        rising = np.diff(xs) > 0.0
        # the steps between one partition's last node and the next one's first
        rising[self.offsets[1:-1] - 1] = True
        if not rising.all():
            for count, start in zip(self.counts, self.offsets):
                part = xs[start:start + count + 1]
                if not (np.diff(part) > 0.0).all():
                    # a non-finite node between the finite ends always lands here
                    if not np.isfinite(part).all():
                        raise DomainError(f"partition of [{iv.lo}, {iv.hi}] into {count} "
                                          "cells has non-finite nodes")
                    raise DomainError(f"partition into {count} cells has coincident nodes")
        return xs


def _distinct(cols) -> tuple[np.ndarray, np.ndarray]:
    """Of the rows the same-length columns ``cols`` make: the index of the
    first row of each distinct row, the distinct rows in lexicographic
    order, and each row's place among them. The sort is stable, so equal
    rows keep their order and the first of each run is their first row."""
    order = np.lexsort(cols[::-1])  # np.lexsort sorts by its last key first
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for col in cols:
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    place = np.empty(order.size, dtype=np.intp)
    place[order] = np.cumsum(new, dtype=np.intp) - 1
    return order[new], place


@dataclass(frozen=True)
class Partition1D:
    """Uniform partition of an interval into ``n`` cells: the nodes of a
    :class:`Lattice` of that one count, computed and checked once, on
    construction. More than MAX_POINTS nodes, or a step ``h`` below the
    smallest normal float, which would lose bits or vanish, is a
    :class:`DomainError`, raised before any is built.
    """

    interval: Interval
    n: int
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lattice = Lattice((self.n,))
        if self.h < sys.float_info.min:
            raise DomainError(f"interval [{self.interval.lo!r}, {self.interval.hi!r}] is too "
                              f"small for {self.n} cells: the step, {self.h!r}, falls below "
                              f"the smallest normal float, {sys.float_info.min!r}")
        object.__setattr__(self, "_nodes", lattice.nodes(self.interval))

    @property
    def h(self) -> float:
        return self.interval.length / self.n

    def nodes(self) -> np.ndarray:
        return self._nodes.copy()

    def midpoints(self) -> np.ndarray:
        xs = self._nodes
        return 0.5 * (xs[:-1] + xs[1:])


@dataclass(frozen=True)
class Fn1D:
    """A real function of one variable given as a black-box callback.

    ``eval`` must be deterministic and finite on the interval it is used on.
    It may accept numpy arrays (evaluated elementwise); a scalar-only callback
    is called once per point with Python floats, from per-chunk lists, which
    costs the call plus about 0.1 us a point (see :func:`evaluate`).
    ``positive`` asserts the range is >= 0, required by :func:`deficit_upper`.
    """

    eval: Callable
    positive: bool = False

    def __call__(self, t):
        return self.eval(t)


@dataclass(frozen=True)
class BoundPair:
    """A certified (lower, upper) enclosure together with its cost.

    ``evals`` is the declared count of point evaluations, the rule's points
    on every line; the distinct points evaluated are fewer where lines share
    them, as the lines of a 2-D enclosure do. The bounds and their gap must
    be finite: an overflowing bound is an :class:`EvaluationError`.
    """

    lower: float
    upper: float
    n: int
    evals: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"BoundPair.n must be >= 1, got {self.n}")
        for name, value in (("lower", self.lower), ("upper", self.upper), ("gap", self.gap)):
            require_finite(f"enclosure {name}", value)
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

    Every function the package evaluates at points goes through here;
    :func:`line_sums` evaluates the factors of an expression instead. ``ev``
    is called once, array-at-once, with ``args`` as given. A result with as many
    dimensions as the broadcast shape that broadcasts to it, such as that of
    ``x * x`` on a row block, which ignores ``y``, is broadcast. A result
    that is 0-d, has another number of dimensions or does not broadcast may
    be a reduction, so its callback is taken for a scalar-only one and
    called once per point instead, with Python floats in row-major order,
    fed from per-chunk lists of SCALAR_CHUNK points so that the loop over a
    chunk runs in C and a point costs little more than the call itself. A
    failure of such a call (``ArithmeticError`` or ``ValueError``) and a
    non-finite value both raise :class:`EvaluationError` whose ``where`` is
    the full point. So does an :class:`EvaluationError` the array call
    raises without a point, such as an expression's: the first failing point
    of the block is located by bisection and named, and the original message
    is kept. The result is a C-contiguous float array of the broadcast
    shape.

    An :class:`expr.Evaluator`, a parsed expression, is told by its type:
    its values are finite and of the broadcast shape already, so they are
    taken as they are, with no shape fallback and no second finiteness
    scan. Its errors take the paths above.
    """
    shape = np.broadcast(*args).shape
    with np.errstate(all="ignore"):
        try:
            out = np.asarray(ev(*args), dtype=float, order="C")
            if isinstance(ev, Evaluator):
                return out
            if out.shape != shape:
                if out.ndim != len(shape):
                    raise TypeError("scalar-only callback")
                out = np.ascontiguousarray(np.broadcast_to(out, shape))
        except (TypeError, ValueError, ArithmeticError):
            out = _per_point(ev, [np.broadcast_to(a, shape) for a in args]).reshape(shape)
        except EvaluationError as exc:
            if exc.where is not None:
                raise
            _locate(ev, [np.broadcast_to(a, shape).ravel() for a in args])
            raise
    if not np.isfinite(out).all():
        idx = np.unravel_index(int(np.argmax(~np.isfinite(out))), shape)
        where = tuple(float(np.broadcast_to(a, shape)[idx]) for a in args)
        raise EvaluationError(f"non-finite value at {where}", where=where)
    return out


def line_blocks(ev: Callable, along: str, at: np.ndarray,
                pts: np.ndarray) -> Iterator[np.ndarray]:
    """Values of ``ev`` along the lines through ``at`` running in ``along``
    ("x" or "y"), sampled at ``pts``, one block of lines at a time.

    Each block is :func:`evaluate` of a row of ``pts`` against a column of
    the next lines of ``at``, of about BLOCK_POINTS points: an array of
    whole lines by ``pts``, in the order of ``at``. Under glibc its
    temporaries reuse the heap pages of the last block's, as HEAP_RESERVE
    keeps the heap from being trimmed between blocks.

    Each block runs with a numpy ufunc buffer of at most one line: the
    line's point count rounded down to a multiple of 16 (numpy's unit), at
    least 16 and never more than the caller's size, which is put back
    before the block is yielded. This changes speed only: an elementwise
    float op gives the same bits whatever the buffer, but a buffer that
    spans several short lines makes numpy copy the broadcast operands
    through it, about 4x slower than the same op on contiguous arrays. A
    callback that reduces within a block, rather than evaluating it
    elementwise, may see the other buffer in what it computes.
    """
    rows = max(1, BLOCK_POINTS // pts.size)
    run = pts[None, :]
    line = max(16, pts.size - pts.size % 16)
    for i in range(0, at.size, rows):
        fixed = at[i:i + rows, None]
        caller = np.getbufsize()
        np.setbufsize(min(line, caller))
        try:
            block = evaluate(ev, run, fixed) if along == "x" else evaluate(ev, fixed, run)
        finally:
            np.setbufsize(caller)
        yield block


def line_sums(ev: Callable, along: str, at: np.ndarray, pts: np.ndarray,
              weights: np.ndarray) -> np.ndarray | None:
    """``F @ weights`` for ``F[i, j]`` = f on line i of :func:`line_blocks`
    at ``pts[j]``, summed by the factors of a separable expression, or None.

    When ``ev`` is an :class:`expr.Evaluator` whose tree
    :func:`expr.separated` writes as ``sum_k s_k * prod a_k(at) * prod
    b_k(pts)`` (a constant factor counted in ``a_k``), the result is ``sum_k
    s_k a_k outer (b_k @ weights)``: each distinct factor is evaluated once,
    at the points of its variable, through ``expr.eval_ast``, looked up at
    each call as :class:`expr.Evaluator` does. The sums are added in
    another order than the grid's, so the value moves by rounding only.

    None, for the caller to evaluate the grid, when ``ev`` is anything else,
    when a factor raises :class:`EvaluationError`, or when the sum over the
    terms of the product of ``max(1, max|factor|)`` exceeds SEPARABLE_LIMIT.
    Below that limit no product or sum of the grid's evaluation of the tree
    can overflow, and its factors are the ones evaluated here, so a result
    means that the grid would have been evaluated without an error.
    """
    parts = expr.separated(ev.tree) if isinstance(ev, Evaluator) else None
    if parts is None:
        return None
    factors, terms = parts
    values = []
    try:
        for name, node in factors:
            t = pts if name == along else 0.0 if name is None else at
            values.append(expr.eval_ast(node, t, t))
    except EvaluationError:
        return None
    size = [max(1.0, float(np.abs(v).max())) for v in values]
    if sum(math.prod(size[i] for i in idx) for _, idx in terms) > SEPARABLE_LIMIT:
        return None
    a, b = np.empty((len(terms), at.size)), np.empty((len(terms), pts.size))
    for k, (sign, idx) in enumerate(terms):
        a[k], b[k] = sign, 1.0
        for i in idx:
            if factors[i][0] == along:
                b[k] *= values[i]
            else:
                a[k] *= values[i]
    return a.T @ (b @ weights)


def _per_point(ev: Callable, cols: list[np.ndarray]) -> np.ndarray:
    """Values of ``ev`` called once per point of the same-shape ``cols``, in
    row-major order, as a flat float array.

    Each chunk's coordinates become lists of Python floats, which
    ``np.fromiter`` consumes through ``map`` and ``starmap``; a call that
    raises is placed by how far the first column's iterator got, so no point
    is evaluated twice.
    """
    size = cols[0].size
    out = np.empty(size)
    for start in range(0, size, SCALAR_CHUNK):
        stop = min(start + SCALAR_CHUNK, size)
        chunk = [c.flat[start:stop].astype(float, copy=False).tolist() for c in cols]
        its = [iter(c) for c in chunk]
        try:
            out[start:stop] = np.fromiter(map(float, itertools.starmap(ev, zip(*its))),
                                          float, count=stop - start)
        except (ArithmeticError, ValueError, EvaluationError) as exc:
            if getattr(exc, "where", None) is not None:
                raise
            i = stop - start - operator.length_hint(its[0]) - 1
            point = tuple(c[i] for c in chunk)
            raise EvaluationError(f"evaluation failed at {point}: {exc}", where=point) from exc
    return out


def _locate(ev: Callable, flat: list[np.ndarray]) -> None:
    """Raise the :class:`EvaluationError` of the first point of ``flat`` at
    which ``ev`` raises one; return if no single point does.

    ``ev`` raised on the whole block, so bisection keeps a half that still
    raises, the front half first: about two evaluations of the block in all.
    """
    lo, hi = 0, flat[0].size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            ev(*(a[lo:mid] for a in flat))
        except EvaluationError:
            hi = mid
        else:
            lo = mid
    if hi > lo:
        _per_point(ev, [a[lo:lo + 1] for a in flat])


def midpoint_sum(v: np.ndarray, h: float):
    """Composite midpoint value of each row of ``v`` (values at the cell midpoints).

    A row whose value overflows comes out infinite, without a warning.
    """
    with np.errstate(all="ignore"):
        return h * v.sum(-1)


def trapezoid_sum(v: np.ndarray, h: float):
    """Composite trapezoid value of each row of ``v`` (values at the nodes).

    A row whose value overflows comes out infinite, without a warning.
    """
    with np.errstate(all="ignore"):
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
