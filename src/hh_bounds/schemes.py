"""How 1-D integrals inside rectangle bound expressions get resolved.

NestedDiscrete keeps every bound certified: integrals that must stay below
the target are replaced by composite midpoint values, those that must stay
above by composite trapezoid values, both valid because the integrands are
convex restrictions. ``m`` counts inner subintervals per partition cell, so
a partition into n cells resolves each line integral with m*n subintervals
and the enclosure keeps its O(1/n^2) decay as n grows.

Quadrature resolves every integral with adaptive Simpson instead. Simpson's
error is not one-sided, so this mode is diagnostic, not certified.
:func:`simpson_lines` refines many lines together, one depth at a time:
each depth's new points, on all the lines still open there, are evaluated
in one call, so a plan's lines cost one call per depth, not one per line
and depth. Each line gets the bits, and a failing line the error, that
:func:`adaptive_simpson`, its one-line case, gives it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .bounds1d import evaluate
from .errors import DomainError, EvaluationError


@dataclass(frozen=True)
class NestedDiscrete:
    m: int = 16

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"NestedDiscrete.m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class Quadrature:
    tol: float = 1e-10

    def __post_init__(self):
        if not self.tol > 0.0:
            raise DomainError(f"Quadrature.tol must be > 0, got {self.tol}")


InnerScheme = Union[NestedDiscrete, Quadrature]

_MAX_DEPTH = 48
#: Widest level refined in one piece, in subintervals (a batch's first level
#: in lines). A wider level is cut in two, each part refined on its own, so
#: memory stays bounded as the depth cap bounds a depth-first stack (see
#: :func:`_cut`).
_LEVEL_NODES = 1024
#: Most subintervals one line may refine, over all depths. The most any test
#: or benchmark input refines is 1,963; a tolerance that cannot be met (such
#: as 1e-300) would otherwise double the open subintervals 48 times.
MAX_SUBINTERVALS = 1 << 18


def adaptive_simpson(fn, lo: float, hi: float, tol: float) -> float:
    """Adaptive Simpson with the standard |S2 - S1|/15 acceptance test: the
    one-line case of :func:`simpson_lines`, with ``fn`` evaluated through
    :func:`evaluate`.

    Depth is capped; a subinterval that still disagrees at the cap keeps its
    refined estimate, which is adequate for this diagnostic use. Refining
    more than ``MAX_SUBINTERVALS`` subintervals in all is an
    :class:`EvaluationError`, raised before their points are evaluated.
    """
    values, failure = simpson_lines(lambda line, s: evaluate(fn, s), np.array([lo], float),
                                    np.array([hi], float), tol)
    if failure is not None:
        raise failure[1]
    return float(values[0])


class _Refinement:
    """What the lines of one batch still may do: ``budget[i]`` counts the
    subintervals line i may still refine, and lines from ``stop`` on, the
    first failed line and those after it, no longer refine."""

    def __init__(self, count: int):
        self.budget = np.full(count, MAX_SUBINTERVALS)
        self.stop = count
        self.error = None

    def rows(self, line: np.ndarray) -> int:
        """How many of the rows of ``line`` (sorted) belong to lines before ``stop``."""
        return len(line) if self.stop == len(self.budget) else int(
            np.searchsorted(line, self.stop))

    def fail(self, line: int, exc: EvaluationError) -> None:
        self.stop, self.error = line, exc

    def evaluate(self, fn, line: np.ndarray, s: np.ndarray) -> np.ndarray:
        """``fn(line, s)`` in one call. If that raises an
        :class:`EvaluationError`, the points are evaluated again line by
        line up to the first line that raises, which fails; the values of
        the lines before it are returned. No points, no call."""
        if not line.size:
            return s
        try:
            return fn(line, s)
        except EvaluationError as exc:
            if line[0] == line[-1]:
                self.fail(int(line[0]), exc)
                return s[:0]
            values = []
            for run in np.split(np.arange(len(line)), np.flatnonzero(np.diff(line)) + 1):
                try:
                    values.append(fn(line[run], s[run]))
                except EvaluationError as exc:
                    self.fail(int(line[run[0]]), exc)
                    break
            return np.concatenate(values) if values else s[:0]


def simpson_lines(fn, lo: np.ndarray, hi: np.ndarray, tol
                  ) -> tuple[np.ndarray, tuple[int, EvaluationError] | None]:
    """Adaptive Simpson on many lines at once: line i over [lo[i], hi[i]]
    to ``tol`` (one for all, or one per line).

    ``fn(line, s)`` returns the values of the lines ``line`` at the points
    ``s``, two flat arrays of the same shape, as a float array of that shape
    (through :func:`evaluate`). The refinement runs level by level: ``fn`` is
    called once at every line's ends and midpoint, then once per depth at
    the two quarter points of every subinterval of every line still open
    there, the points in line order. A level wider than ``_LEVEL_NODES``
    subintervals (the first, wider than ``_LEVEL_NODES`` lines) is refined
    in two parts, cut so that every line meets its subintervals in the
    order it does alone (:func:`_cut`). Each subinterval's arithmetic, the
    halving of the tolerance per depth, the depth cap, and the tree in which
    a split subinterval's value is the sum of its halves, are those of the
    depth-first recursion.

    Returns the lines' values and None, or, if a line fails, an array of no
    use and ``(i, error)`` for the first line i that fails, with the error
    it raises when refined alone: the first failure it meets, in that order.
    A line fails when ``fn`` raises an :class:`EvaluationError` at its
    points, or when it would refine more than ``MAX_SUBINTERVALS``
    subintervals in all, checked before their points are evaluated. Once
    line i fails, only the lines before it keep refining, so the lines
    after the first failing one are not refined to the end, and no line is
    refined twice.
    """
    tol = np.broadcast_to(np.asarray(tol, dtype=float), lo.shape)
    state = _Refinement(len(lo))
    values = _start(fn, np.arange(len(lo)), lo, hi, tol, state)
    return values, None if state.error is None else (state.stop, state.error)


def _cut(line: np.ndarray) -> int:
    """Where to cut a level's rows ``line`` (sorted, more than
    ``_LEVEL_NODES``) in two: in the middle if they are one line's, as
    that line alone is cut, and otherwise at the boundary between lines
    nearest the middle. So a line's rows are cut only as they are when it
    is refined alone, and it evaluates its points, and meets its budget,
    in the same pieces and order."""
    h = len(line) // 2
    starts = np.flatnonzero(np.diff(line)) + 1
    return int(starts[np.argmin(np.abs(starts - h))]) if starts.size else h


def _start(fn, line: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray,
           state: _Refinement) -> np.ndarray:
    """The values of the lines ``line`` over [lo, hi], from their ends and
    midpoint on; ``tol[i]`` is line i's tolerance."""
    out = np.zeros(len(line))
    k = state.rows(line)
    if k > _LEVEL_NODES:
        h = k // 2
        out[:h] = _start(fn, line[:h], lo[:h], hi[:h], tol, state)
        out[h:k] = _start(fn, line[h:k], lo[h:k], hi[h:k], tol, state)
        return out
    line, lo, hi = line[:k], lo[:k], hi[:k]
    m = 0.5 * (lo + hi)
    ends = state.evaluate(fn, np.repeat(line, 3), np.stack([lo, hi, m], axis=1).ravel())
    k = ends.size // 3
    fa, fb, fm = ends.reshape(k, 3).T
    whole = (hi[:k] - lo[:k]) / 6.0 * (fa + 4.0 * fm + fb)
    out[:k] = _refine(fn, line[:k], np.stack([lo, m, hi], axis=1)[:k],
                      np.stack([fa, fm, fb], axis=1), whole, tol[line[:k]], 0, state)
    return out


def _refine(fn, line: np.ndarray, t: np.ndarray, ft: np.ndarray, whole: np.ndarray,
            tol: np.ndarray, depth: int, state: _Refinement) -> np.ndarray:
    """Values of the subintervals of one depth, one per row.

    Row i of ``t`` holds a subinterval's ends and midpoint (a, m, b), of
    ``ft`` the values there, ``whole[i]`` its Simpson value, ``tol[i]`` its
    tolerance and ``line[i]`` its line, the rows sorted by line. The rows of
    failed lines come out 0.
    """
    out = np.zeros(len(t))
    k = state.rows(line)
    if k > _LEVEL_NODES:
        h = _cut(line[:k])
        out[:h] = _refine(fn, line[:h], t[:h], ft[:h], whole[:h], tol[:h], depth, state)
        out[h:k] = _refine(fn, line[h:k], t[h:k], ft[h:k], whole[h:k], tol[h:k], depth, state)
        return out
    line = line[:k]
    np.subtract.at(state.budget, line, 1)
    over = line[state.budget[line] < 0]
    if over.size:
        state.fail(int(over[0]), EvaluationError(
            f"adaptive Simpson needs more than {MAX_SUBINTERVALS} subintervals "
            "for this tolerance"))
        line = line[:state.rows(line)]
    # column 0 is the left half [a, m], column 1 the right half [m, b]
    q = 0.5 * (t[:len(line), :2] + t[:len(line), 1:])
    fq = state.evaluate(fn, np.repeat(line, 2), q.ravel())
    k = fq.size // 2
    if not k:
        return out
    line, q, fq = line[:k], q[:k], fq.reshape(k, 2)
    lo, hi, flo, fhi = t[:k, :2], t[:k, 1:], ft[:k, :2], ft[:k, 1:]
    half = (hi - lo) / 6.0 * (flo + 4.0 * fq + fhi)
    left, right = half[:, 0], half[:, 1]
    delta = left + right - whole[:k]
    out[:k] = left + right + delta / 15.0
    if depth < _MAX_DEPTH:
        s = np.flatnonzero(~(np.abs(delta) <= 15.0 * tol[:k]))
        if s.size:
            sub = _refine(fn, np.repeat(line[s], 2),
                          np.stack([lo, q, hi], axis=2)[s].reshape(-1, 3),
                          np.stack([flo, fq, fhi], axis=2)[s].reshape(-1, 3),
                          half[s].ravel(), np.repeat(0.5 * tol[s], 2), depth + 1, state)
            out[s] = sub[0::2] + sub[1::2]
    return out
