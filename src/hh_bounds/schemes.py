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
and depth. Lines are started ``_LEVEL_NODES`` at a time, each group refined
to the end before the next starts, and a deeper level wider than
``_LEVEL_NODES`` subintervals is refined in two parts, each to the end
before the next, cut so that every line meets its subintervals in the
pieces and order it does alone (:func:`_cut`). Each subinterval's
arithmetic, the halving of the tolerance per depth, the depth cap, and the
tree in which a split subinterval's value is the sum of its halves, are
those of the depth-first recursion, so each line that succeeds gets the
bits :func:`adaptive_simpson`, its one-line case, gives it alone.

Refining stops at the first failure met in that order, and the failing
line reports the error it meets refined alone: a part whose line runs out
of subintervals fails when the part is counted, before its points are
evaluated, and a call that raises is evaluated again line by line, the
first line that raises alone failing. Among several failing lines the one
reported is the first met, not the first in line order, so it can depend
on how the lines are grouped."""

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
#: Widest level refined in one piece, in subintervals. A batch's lines are
#: started this many at a time, and a wider deeper level is cut in two by
#: :func:`_cut`, each part refined on its own, so memory stays bounded as the
#: depth cap bounds a depth-first stack.
_LEVEL_NODES = 1024
#: Most subintervals one line may refine, over all depths. The most any test
#: or benchmark input refines is 1,963; a tolerance that cannot be met (such
#: as 1e-300) would otherwise double the open subintervals 48 times.
MAX_SUBINTERVALS = 1 << 18


def adaptive_simpson(fn, lo: float, hi: float, tol: float) -> float:
    """Adaptive Simpson with the standard |S2 - S1|/15 acceptance test: the
    one-line case of :func:`simpson_lines`, with ``fn`` evaluated through
    :func:`evaluate`. Depth is capped; a subinterval that still disagrees at
    the cap keeps its refined estimate, adequate for this diagnostic use.
    Refining more than ``MAX_SUBINTERVALS`` subintervals in all is an
    :class:`EvaluationError`, raised before their points are evaluated."""
    values, failure = simpson_lines(lambda line, s: evaluate(fn, s), np.array([lo], float),
                                    np.array([hi], float), tol)
    if failure is not None:
        raise failure[1]
    return float(values[0])


class _Failed(Exception):
    """The first failure met: its ``args`` are the failing line and its error."""


def _evaluate(fn, line: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``fn(line, s)``; if that raises an :class:`EvaluationError`, the
    points line by line, up to the first line that raises, which fails."""
    try:
        return fn(line, s)
    except EvaluationError as exc:
        if line[0] == line[-1]:
            raise _Failed(int(line[0]), exc)
    values = []
    for run in np.split(np.arange(len(line)), np.flatnonzero(np.diff(line)) + 1):
        try:
            values.append(fn(line[run], s[run]))
        except EvaluationError as exc:
            raise _Failed(int(line[run[0]]), exc)
    return np.concatenate(values)


def simpson_lines(fn, lo: np.ndarray, hi: np.ndarray, tol
                  ) -> tuple[np.ndarray, tuple[int, EvaluationError] | None]:
    """Adaptive Simpson on many lines at once, refined as the module
    docstring says: line i over [lo[i], hi[i]] to ``tol`` (one for all, or
    one per line). ``fn(line, s)`` returns the values of the lines ``line``
    at the points ``s``, two flat arrays of one shape, as a float array of
    that shape. It is called at every line's lo end, hi end and midpoint,
    in that order, then per depth at the two quarter points of each open
    subinterval, the points in line order. Returns the lines' values and
    None, or, at the first failure met, an array of no use and
    ``(i, error)``: line i raised an :class:`EvaluationError`, or would
    refine more than ``MAX_SUBINTERVALS`` subintervals in all.
    """
    tol = np.broadcast_to(np.asarray(tol, dtype=float), lo.shape)
    budget = np.full(len(lo), MAX_SUBINTERVALS)
    values = np.zeros(len(lo))
    try:
        for i in range(0, len(lo), _LEVEL_NODES):
            a, b = lo[i:i + _LEVEL_NODES], hi[i:i + _LEVEL_NODES]
            line, m = np.arange(i, i + len(a)), 0.5 * (a + b)
            ends = _evaluate(fn, np.repeat(line, 3), np.stack([a, b, m], axis=1).ravel())
            fa, fb, fm = ends.reshape(-1, 3).T
            whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
            values[i:i + len(a)] = _refine(fn, line, np.stack([a, m, b], axis=1),
                                           np.stack([fa, fm, fb], axis=1), whole,
                                           tol[i:i + len(a)], 0, budget)
    except _Failed as failed:
        return values, failed.args
    return values, None


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


def _refine(fn, line: np.ndarray, t: np.ndarray, ft: np.ndarray, whole: np.ndarray,
            tol: np.ndarray, depth: int, budget: np.ndarray) -> np.ndarray:
    """Values of the subintervals of one depth, one per row: row i of ``t``
    holds a subinterval's ends and midpoint (a, m, b), of ``ft`` the values
    there, ``whole[i]`` its Simpson value, ``tol[i]`` its tolerance and
    ``line[i]`` its line, the rows sorted by line. ``budget[j]`` counts the
    subintervals line j may still refine; the first failure met raises
    :class:`_Failed`."""
    if len(line) > _LEVEL_NODES:
        h = _cut(line)
        return np.concatenate([
            _refine(fn, line[:h], t[:h], ft[:h], whole[:h], tol[:h], depth, budget),
            _refine(fn, line[h:], t[h:], ft[h:], whole[h:], tol[h:], depth, budget)])
    np.subtract.at(budget, line, 1)
    over = line[budget[line] < 0]
    if over.size:
        raise _Failed(int(over[0]), EvaluationError(
            f"adaptive Simpson needs more than {MAX_SUBINTERVALS} subintervals "
            "for this tolerance"))
    # column 0 is the left half [a, m], column 1 the right half [m, b]
    lo, hi, flo, fhi = t[:, :2], t[:, 1:], ft[:, :2], ft[:, 1:]
    q = 0.5 * (lo + hi)
    fq = _evaluate(fn, np.repeat(line, 2), q.ravel()).reshape(-1, 2)
    half = (hi - lo) / 6.0 * (flo + 4.0 * fq + fhi)
    left, right = half[:, 0], half[:, 1]
    delta = left + right - whole
    out = left + right + delta / 15.0
    if depth < _MAX_DEPTH:
        s = np.flatnonzero(~(np.abs(delta) <= 15.0 * tol))
        if s.size:
            sub = _refine(fn, np.repeat(line[s], 2),
                          np.stack([lo, q, hi], axis=2)[s].reshape(-1, 3),
                          np.stack([flo, fq, fhi], axis=2)[s].reshape(-1, 3),
                          half[s].ravel(), np.repeat(0.5 * tol[s], 2), depth + 1, budget)
            out[s] = sub[0::2] + sub[1::2]
    return out
