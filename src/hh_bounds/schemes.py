"""How 1-D integrals inside rectangle bound expressions get resolved.

NestedDiscrete keeps every bound certified: integrals that must stay below
the target are replaced by composite midpoint values, those that must stay
above by composite trapezoid values, both valid because the integrands are
convex restrictions. ``m`` counts inner subintervals per partition cell, so
a partition into n cells resolves each line integral with m*n subintervals
and the enclosure keeps its O(1/n^2) decay as n grows.

Quadrature resolves every integral with adaptive Simpson instead. Simpson's
error is not one-sided, so this mode is diagnostic, not certified. The
refinement goes one level at a time, and each level's new points are
evaluated in one call, so array-capable callbacks are not called per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .bounds1d import evaluate
from .errors import DomainError


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
#: Widest level refined in one piece. A wider level is split in halves, each
#: refined on its own, so memory stays bounded as the depth cap bounds a
#: depth-first stack.
_LEVEL_NODES = 1024


def adaptive_simpson(fn, lo: float, hi: float, tol: float) -> float:
    """Adaptive Simpson with the standard |S2 - S1|/15 acceptance test.

    The refinement runs level by level: ``fn`` is evaluated through
    :func:`evaluate` once at the ends and the midpoint, then once per depth
    at the two quarter points of every subinterval still open there (a
    level wider than ``_LEVEL_NODES`` subintervals is refined in halves). Each
    subinterval's arithmetic, and the tree in which a split subinterval's
    value is the sum of its halves, are those of the depth-first recursion.
    Depth is capped; a subinterval that still disagrees at the cap keeps its
    refined estimate, which is adequate for this diagnostic use.
    """
    m = 0.5 * (lo + hi)
    fa, fb, fm = evaluate(fn, np.array([lo, hi, m])).tolist()
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    return float(_refine(fn, np.array([[lo, m, hi]]), np.array([[fa, fm, fb]]),
                         np.array([whole]), tol, 0)[0])


def _refine(fn, t: np.ndarray, ft: np.ndarray, whole: np.ndarray, tol: float,
            depth: int) -> np.ndarray:
    """Values of the subintervals of one depth, one per row.

    Row i of ``t`` holds a subinterval's ends and midpoint (a, m, b), of
    ``ft`` the values there, ``whole[i]`` its Simpson value; ``tol`` is the
    tolerance at this depth.
    """
    if len(t) > _LEVEL_NODES:
        h = len(t) // 2
        return np.concatenate([_refine(fn, t[:h], ft[:h], whole[:h], tol, depth),
                               _refine(fn, t[h:], ft[h:], whole[h:], tol, depth)])
    # column 0 is the left half [a, m], column 1 the right half [m, b]
    lo, hi, flo, fhi = t[:, :2], t[:, 1:], ft[:, :2], ft[:, 1:]
    q = 0.5 * (lo + hi)
    fq = evaluate(fn, q)
    half = (hi - lo) / 6.0 * (flo + 4.0 * fq + fhi)
    left, right = half[:, 0], half[:, 1]
    delta = left + right - whole
    out = left + right + delta / 15.0
    if depth < _MAX_DEPTH:
        s = np.flatnonzero(~(np.abs(delta) <= 15.0 * tol))
        if s.size:
            sub = _refine(fn, np.stack([lo, q, hi], axis=2)[s].reshape(-1, 3),
                          np.stack([flo, fq, fhi], axis=2)[s].reshape(-1, 3),
                          half[s].ravel(), 0.5 * tol, depth + 1)
            out[s] = sub[0::2] + sub[1::2]
    return out
