"""Seeded coordinate-convex inputs and their exact integrals.

Every input the benchmark hands to ``hh_bounds`` comes from here, together
with a closed-form value of its double integral. The closed forms are written
from calculus alone and share no code with the package (in particular not
with its Simpson oracle), so they can judge the oracle as well as the bounds.

The expression family is

    f(x, y) = beta + px*x + py*y + sum_i c_i * g_i(x) * h_i(y)

with c_i >= 0 and every factor a nonnegative convex atom on its side of the
rectangle: ``t^2``, ``abs(t-s)``, ``exp(r*t)`` or an affine ``p*t+q`` that
stays >= 0 on the interval. Each partial mapping is then a nonnegative
combination of convex functions, so f is convex on the coordinates, and the
double integral of each product term factorises into two 1-D integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Offset of the large-magnitude variant; valid input, far from unit scale.
BIG_OFFSET = 1e7
#: Rate of the large-magnitude exponential factor exp(BIG_RATE*x).
BIG_RATE = 20.0


def _num(v: float) -> str:
    """Exact source form of a float (repr round-trips; negatives bracketed)."""
    s = repr(float(v))
    return f"({s})" if v < 0 else s


@dataclass(frozen=True)
class Atom:
    """One nonnegative convex factor of a single variable.

    kind is "sq" (t^2), "abs" (|t - s|), "exp" (exp(r*t)) or "lin" (p*t + q).
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    def source(self, var: str) -> str:
        if self.kind == "sq":
            return f"{var}^2"
        if self.kind == "abs":
            return f"abs({var}-{_num(self.a)})"
        if self.kind == "exp":
            return f"exp({_num(self.a)}*{var})"
        return f"({_num(self.a)}*{var}+{_num(self.b)})"

    def integral(self, lo: float, hi: float) -> float:
        """Exact integral of the atom over [lo, hi]."""
        if self.kind == "sq":
            return (hi ** 3 - lo ** 3) / 3.0
        if self.kind == "abs":
            s = self.a
            if s <= lo:
                return ((hi - s) ** 2 - (lo - s) ** 2) / 2.0
            if s >= hi:
                return ((s - lo) ** 2 - (s - hi) ** 2) / 2.0
            return ((s - lo) ** 2 + (hi - s) ** 2) / 2.0
        if self.kind == "exp":
            r = self.a
            return math.exp(r * lo) * math.expm1(r * (hi - lo)) / r
        return self.a * (hi * hi - lo * lo) / 2.0 + self.b * (hi - lo)

    def at(self, t: float) -> float:
        """Value at one point, through ``math`` so that arrays raise TypeError."""
        if self.kind == "sq":
            return t * t
        if self.kind == "abs":
            return math.fabs(t - self.a)
        if self.kind == "exp":
            return math.exp(self.a * t)
        return self.a * t + self.b


@dataclass(frozen=True)
class Instance:
    """A rectangle and a member of the expression family on it."""

    rect: tuple[float, float, float, float]
    beta: float
    px: float
    py: float
    terms: tuple[tuple[float, Atom, Atom], ...]

    def source(self) -> str:
        parts = [_num(self.beta), f"{_num(self.px)}*x", f"{_num(self.py)}*y"]
        parts += [f"{_num(c)}*{g.source('x')}*{h.source('y')}" for c, g, h in self.terms]
        return "+".join(parts)

    def scalar_eval(self, x: float, y: float) -> float:
        """One-point evaluation built on ``math``.

        Raises TypeError on arrays whenever a term has an exp or abs factor.
        """
        acc = self.beta + self.px * x + self.py * y
        for k, g, h in self.terms:
            acc += k * g.at(x) * h.at(y)
        return acc

    def exact(self) -> float:
        """Closed-form double integral over the rectangle."""
        return math.fsum(self._parts())

    def scale(self) -> float:
        """Sum of the magnitudes of the integral's parts (roundoff yardstick)."""
        return math.fsum(abs(p) for p in self._parts())

    def _parts(self) -> list[float]:
        a, b, c, d = self.rect
        wx, wy = b - a, d - c
        parts = [self.beta * wx * wy,
                 self.px * (b * b - a * a) / 2.0 * wy,
                 self.py * (d * d - c * c) / 2.0 * wx]
        parts += [k * g.integral(a, b) * h.integral(c, d) for k, g, h in self.terms]
        return parts


def draw_rect(rng: np.random.Generator) -> tuple[float, float, float, float]:
    a = float(rng.uniform(-1.5, 0.5))
    c = float(rng.uniform(-1.5, 0.5))
    return (a, a + float(rng.uniform(0.6, 2.0)), c, c + float(rng.uniform(0.6, 2.0)))


def _draw_atom(rng: np.random.Generator, lo: float, hi: float) -> Atom:
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return Atom("sq")
    if kind == 1:
        return Atom("abs", float(rng.uniform(lo, hi)))
    if kind == 2:
        rate = float(rng.uniform(-1.5, 1.5))
        return Atom("exp", rate if rate != 0.0 else 1.0)
    p = float(rng.uniform(-1.5, 1.5))
    floor = min(p * lo, p * hi)
    return Atom("lin", p, float(rng.uniform(0.0, 1.0)) - min(floor, 0.0))


def draw_instance(rng: np.random.Generator, big: str | None = None,
                  terms: int | None = None) -> Instance:
    """Draw one family member; ``big`` selects a large-magnitude variant.

    ``terms`` fixes the number of product terms (1 to 3 at random if None).

    ``big="offset"`` adds BIG_OFFSET to the constant term; ``big="exp"`` adds
    the product term exp(BIG_RATE*x)*(y^2). Both stay coordinate-convex and
    sit on the unit square, where exp(BIG_RATE*x) reaches about 5e8.
    """
    rect = draw_rect(rng) if big is None else (0.0, 1.0, 0.0, 1.0)
    a, b, c, d = rect
    beta = float(rng.uniform(-0.5, 1.5))
    px = float(rng.uniform(-0.75, 0.75))
    py = float(rng.uniform(-0.75, 0.75))
    terms = [(float(rng.uniform(0.1, 2.0)), _draw_atom(rng, a, b), _draw_atom(rng, c, d))
             for _ in range(int(rng.integers(1, 4)) if terms is None else terms)]
    if big == "offset":
        beta += BIG_OFFSET
    elif big == "exp":
        terms.append((1.0, Atom("exp", BIG_RATE), Atom("sq")))
    elif big is not None:
        raise ValueError(f"unknown large-magnitude variant {big!r}")
    return Instance(rect, beta, px, py, tuple(terms))


def draw_scalar_instance(rng: np.random.Generator) -> Instance:
    """A family member with one term k*exp(rx*x)*exp(ry*y), for scalar callbacks."""
    rect = draw_rect(rng)
    rx, ry = (float(rng.uniform(0.2, 1.5)) * float(rng.choice([-1.0, 1.0])) for _ in range(2))
    return Instance(rect, float(rng.uniform(-0.5, 1.5)), float(rng.uniform(-0.75, 0.75)),
                    float(rng.uniform(-0.75, 0.75)),
                    ((float(rng.uniform(0.1, 2.0)), Atom("exp", rx), Atom("exp", ry)),))


def draw_constant(rng: np.random.Generator) -> tuple[float, tuple[float, float, float, float]]:
    """A constant function value (exact in decimal) and a rectangle."""
    return round(float(rng.uniform(0.5, 5.0)), 3), draw_rect(rng)
