"""Coordinate-convexity checks and random convex test functions.

The gate first tries a proof. When the function carries an expression tree
(``Fn2D.expr``), one pass over the tree tracks, per variable, whether each
subtree is constant, affine, convex or concave over the rectangle, together
with an interval that encloses its values. It uses
disciplined-convex-programming composition rules (Grant, Boyd & Ye 2006):
sums, negation, a factor of known sign that is constant in the variable,
squares and even powers of affine terms, ``exp`` of convex terms, ``abs``
of affine terms and ``max`` of convex terms. The intervals are float
intervals rounded outward; a polynomial factor whose float interval
straddles 0 is re-checked exactly in rationals. A tree the rules do not
cover, such as one with ``/``, ``min`` or an odd power, is not proved.

Whatever is not proved, black-box callbacks included, is checked by
sampling: random chords along each axis, with the convexity slack
lam*f(u1) + (1-lam)*f(u2) - f(lam*u1 + (1-lam)*u2) required to be
nonnegative up to its own rounding error, so that no valid function is
rejected for its scale. One chord-test body serves both axes; the axis
only decides which coordinate is held fixed. The generators build
functions that are coordinate-convex by construction: sums of products of
nonnegative convex one-variable atoms with nonnegative coefficients, plus
an affine part. Coordinate convexity, unlike joint convexity, is closed
under such products. Each generator draws its function as an expression
tree and evaluates it through the tree's check-free ``expr.program``; the
two-variable one attaches the tree as ``Fn2D.expr``, so the proof and every
bound read one object, and the gate proves its instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds1d import Fn1D, Interval, check_points, evaluate
from .errors import DomainError, PreconditionError
from .expr import MAX_DEPTH, Binary, Call, Node, Number, Unary, Var, program
from .rect import Fn2D, Rect, with_positivity

#: Chord draws per axis, and the absolute floor of each chord's allowance.
GATE_SAMPLES = 10_000
GATE_TOL = 1e-10
#: A chord's allowance beyond GATE_TOL, in eps times its value magnitude: the
#: rounding error of the slack's three-term sum (Higham 2002, ch. 3-4). No
#: valid input of the tests or the benchmark needs more than 1.24.
ROUNDOFF = 4.0


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
    """Outcome of the gate. ``samples`` counts draws over both axes;
    ``max_violation`` is the most negative slack observed (the minimum),
    below -tol in a passed report when its chord's allowance covers it.
    ``samples=0`` means the expression tree proved the function: nothing
    was sampled, so ``max_violation`` is inf and there is no witness."""

    samples: int
    max_violation: float
    witness: Witness | None
    passed: bool


def check_coordinate_convexity(f: Fn2D, r: Rect, samples: int = GATE_SAMPLES,
                               tol: float = GATE_TOL, seed: int = 0) -> ConvexityReport:
    """Prove, or else sample, convexity of both partial mappings.

    When ``f.expr`` is given and the tree proves coordinate convexity on
    ``r``, the report has ``samples=0`` and ``f`` is not evaluated.
    Otherwise, per axis, draws ``samples`` tuples (fixed other-coordinate,
    chord ends u1, u2, blend lam) and evaluates the slack, which passes at
    -(``tol`` + ROUNDOFF*eps*(lam*|f(u1)| + (1-lam)*|f(u2)| + |f(blend)|))
    or above. Deterministic given ``seed``; the worst witness is the
    minimum slack, ties resolved by draw order (x-axis block first).
    ``samples``, ``tol`` and ``seed`` are validated either way; more than
    ``bounds1d.MAX_POINTS`` points in all (6 * ``samples``) is a
    :class:`DomainError` before anything is drawn.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    # three evaluations of ``samples`` points per axis
    check_points(f"a convexity gate with samples={samples}", 6 * samples)
    if not tol >= 0.0:
        raise DomainError(f"tol must be >= 0, got {tol}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if f.expr is not None and _proves(f.expr, r):
        return ConvexityReport(samples=0, max_violation=math.inf, witness=None, passed=True)
    rng = np.random.default_rng(seed)

    max_violation, witness, passed = np.inf, None, True
    k = ROUNDOFF * np.finfo(float).eps
    for axis, chord, other in (("x", (r.a, r.b), (r.c, r.d)), ("y", (r.c, r.d), (r.a, r.b))):
        fixed = rng.uniform(*other, samples)
        u1 = rng.uniform(*chord, samples)
        u2 = rng.uniform(*chord, samples)
        lam = rng.uniform(0.0, 1.0, samples)
        blend = lam * u1 + (1.0 - lam) * u2

        def at(u):
            return (u, fixed) if axis == "x" else (fixed, u)

        f1, f2, fb = (evaluate(f.eval, *at(u)) for u in (u1, u2, blend))
        s = lam * f1 + (1.0 - lam) * f2 - fb
        i = int(np.argmin(s))
        if s[i] < -tol:
            # only then can a chord fail; each term is scaled alone, as their sum can overflow
            allowance = tol + k * lam * np.abs(f1) + k * (1.0 - lam) * np.abs(f2) + k * np.abs(fb)
            passed = passed and bool((s >= -allowance).all())
        if s[i] < max_violation:
            max_violation = float(s[i])
            if max_violation < 0.0:
                x, y = (float(v[i]) for v in at(blend))
                witness = Witness(x=x, y=y, lam=float(lam[i]), axis=axis)
    return ConvexityReport(samples=2 * samples, max_violation=max_violation,
                           witness=witness, passed=passed)


# ---------------------------------------------------------------------------
# Proof from the expression tree

#: Curvature of a subtree in one variable. A constant is also affine, and an
#: affine term is both convex and concave; None means nothing was proved.
CONST, AFFINE, CONVEX, CONCAVE = "const", "affine", "convex", "concave"
_CONVEX = (CONST, AFFINE, CONVEX)
_CONCAVE = (CONST, AFFINE, CONCAVE)


class _Unproved(Exception):
    """A node outside the rules, or a range that is not finite."""


def _proves(node: Node, r: Rect) -> bool:
    """Whether the rules prove ``node`` convex in x and in y over ``r``."""
    try:
        cx, cy, _, _ = _shape(node, r)
    except (_Unproved, OverflowError):
        return False
    return cx in _CONVEX and cy in _CONVEX


def _down(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


def _finite(lo: float, hi: float) -> tuple[float, float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _Unproved
    return lo, hi


def _arith(op: str, a: tuple, b: tuple, down=_down, up=_up) -> tuple:
    """The interval of ``a op b`` for op in + - *, widened by ``down`` and
    ``up``. A sum or product of two nonnegative intervals keeps a lower
    bound of at least 0."""
    (alo, ahi), (blo, bhi) = a, b
    if op == "+":
        lo, hi = alo + blo, ahi + bhi
    elif op == "-":
        lo, hi = alo - bhi, ahi - blo
    else:
        ends = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        lo, hi = min(ends), max(ends)
    lo, hi = down(lo), up(hi)
    if op != "-" and alo >= 0 and blo >= 0:
        lo = max(lo, 0.0)
    return lo, hi


def _add(a: str | None, b: str | None) -> str | None:
    for kind, family in ((CONST, (CONST,)), (AFFINE, (CONST, AFFINE)),
                         (CONVEX, _CONVEX), (CONCAVE, _CONCAVE)):
        if a in family and b in family:
            return kind
    return None


def _negate(c: str | None) -> str | None:
    return {CONVEX: CONCAVE, CONCAVE: CONVEX}.get(c, c)


def _compose(c: str | None, accepts: tuple) -> str | None:
    """A convex outer function of a term of curvature ``c``: constant stays
    constant, and the result is convex when ``c`` is one of ``accepts``."""
    if c == CONST:
        return CONST
    return CONVEX if c in accepts else None


def _product(ca: str | None, cb: str | None, a: Node, b: Node, ra: tuple, rb: tuple,
             r: Rect) -> str | None:
    """Curvature of a*b in one variable, where a and b have curvatures ``ca``
    and ``cb`` and ranges ``ra`` and ``rb``: a factor constant in the
    variable scales the other term by its sign."""
    if ca == CONST:
        return _scaled(cb, a, ra, r)
    if cb == CONST:
        return _scaled(ca, b, rb, r)
    return None


def _scaled(c: str | None, factor: Node, rng: tuple, r: Rect) -> str | None:
    """A term of curvature ``c`` times ``factor``, whose values lie in ``rng``."""
    if c in (CONST, AFFINE, None):
        return c
    lo, hi = rng
    if lo >= 0.0 or (hi > 0.0 and _exact_lower(factor, r) >= 0):
        return c
    return _negate(c) if hi <= 0.0 else None


def _exact_lower(node: Node, r: Rect):
    """The lower end of the interval of a polynomial subtree over ``r``, in
    exact rationals; -1 for a subtree that is not a polynomial."""
    return _exact_min(node, (r.a, r.b), (r.c, r.d))


def _exact_min(node: Node, x: tuple[float, float], y: tuple[float, float]):
    """:func:`_exact_lower` over ``x`` x ``y``."""
    from fractions import Fraction  # only a factor that straddles 0 pays for the import

    def walk(n: Node) -> tuple:
        match n:
            case Number(value=v):
                return Fraction(v), Fraction(v)
            case Var(name=name):
                lo, hi = x if name == "x" else y
                return Fraction(lo), Fraction(hi)
            case Unary(op="neg", arg=a):
                lo, hi = walk(a)
                return -hi, -lo
            case Binary(op="+" | "-" | "*" as op, left=a, right=b):
                return _arith(op, walk(a), walk(b), _same, _same)
        raise _Unproved

    try:
        return walk(node)[0]
    except _Unproved:
        return -1


def _same(v):
    return v


def _abs_range(lo: float, hi: float) -> tuple[float, float]:
    """The interval of |t| over t in [lo, hi]."""
    return (lo, hi) if lo >= 0.0 else (-hi, -lo) if hi <= 0.0 else (0.0, max(-lo, hi))


def _even_power(shape: tuple, p: float) -> tuple:
    """The shape of t**p for an even p >= 2, given the shape of t: convex in
    a variable where t is affine. The interval goes two steps outward for
    the rounding of ``**``."""
    cx, cy, lo, hi = shape
    small, big = _abs_range(lo, hi)
    return (_compose(cx, (AFFINE,)), _compose(cy, (AFFINE,)),
            *_finite(max(0.0, _down(_down(small ** p))), _up(_up(big ** p))))


def _shape(node: Node, r: Rect) -> tuple:
    """(curvature in x, curvature in y, lo, hi) of ``node`` over ``r``."""
    match node:
        case Number(value=v):
            return (CONST, CONST, *_finite(v, v))
        case Var(name="x"):
            return AFFINE, CONST, r.a, r.b
        case Var():
            return CONST, AFFINE, r.c, r.d
        case Unary(op="neg", arg=a):
            cx, cy, lo, hi = _shape(a, r)
            return _negate(cx), _negate(cy), -hi, -lo
        case Unary(op="abs", arg=a):
            cx, cy, lo, hi = _shape(a, r)
            return _compose(cx, (AFFINE,)), _compose(cy, (AFFINE,)), *_abs_range(lo, hi)
        case Unary(op="exp", arg=a):
            cx, cy, lo, hi = _shape(a, r)
            lo, hi = max(0.0, _down(_down(math.exp(lo)))), _up(_up(math.exp(hi)))
            return (_compose(cx, (AFFINE, CONVEX)), _compose(cy, (AFFINE, CONVEX)),
                    *_finite(lo, hi))
        case Call(fn="max", args=(a, b)):
            ax, ay, alo, ahi = _shape(a, r)
            bx, by, blo, bhi = _shape(b, r)
            return (_compose(_add(ax, bx), _CONVEX), _compose(_add(ay, by), _CONVEX),
                    max(alo, blo), max(ahi, bhi))
        case Binary(op="^", left=a, right=Number(value=p)) if p >= 2.0 and p % 2.0 == 0.0:
            return _even_power(_shape(a, r), p)
        case Binary(op="*", left=a, right=b) if a == b:
            return _even_power(_shape(a, r), 2.0)
        case Binary(op="+" | "-" as op, left=a, right=b):
            ax, ay, alo, ahi = _shape(a, r)
            bx, by, blo, bhi = _shape(b, r)
            if op == "-":
                bx, by = _negate(bx), _negate(by)
            return _add(ax, bx), _add(ay, by), *_finite(*_arith(op, (alo, ahi), (blo, bhi)))
        case Binary(op="*", left=a, right=b):
            ax, ay, alo, ahi = _shape(a, r)
            bx, by, blo, bhi = _shape(b, r)
            return (_product(ax, bx, a, b, (alo, ahi), (blo, bhi), r),
                    _product(ay, by, a, b, (alo, ahi), (blo, bhi), r),
                    *_finite(*_arith("*", (alo, ahi), (blo, bhi))))
    raise _Unproved


# ---------------------------------------------------------------------------
# Random convex instances


def _draw_atom(rng: np.random.Generator, iv: Interval, t: Var) -> Node:
    """Draw one atom, a tree in ``t`` convex and nonnegative on ``iv``:
    t*t, |t - center|, exp(rate*t), or slope*t + intercept with the
    intercept lifted until the line is nonnegative on ``iv``, in exact
    rationals over its float coefficients, so that the gate can prove it."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return Binary("*", t, t)
    if kind == 1:
        center = float(rng.uniform(iv.lo, iv.hi))
        return Unary("abs", Binary("-", t, Number(center)))
    if kind == 2:
        rate = float(rng.uniform(-1.5, 1.5))
        return Unary("exp", Binary("*", Number(rate), t))
    slope = float(rng.uniform(-1.5, 1.5))
    intercept = float(rng.uniform(0.0, 1.0))
    low = min(slope * iv.lo + intercept, slope * iv.hi + intercept)
    if low < 0.0:
        intercept -= low
    # the float lift can leave the exact minimum a few ulps below 0
    while True:
        atom = Binary("+", Binary("*", Number(slope), t), Number(intercept))
        if _exact_min(atom, (iv.lo, iv.hi), (iv.lo, iv.hi)) >= 0:
            return atom
        intercept = math.nextafter(intercept, math.inf)


def _check_atom_count(atom_count: int) -> None:
    # each atom adds one level over the at most five of the affine part and
    # the first term, so a generator's tree has at most MAX_DEPTH levels
    if not 0 <= atom_count <= MAX_DEPTH - 5:
        raise DomainError(f"atom_count must be in [0, {MAX_DEPTH - 5}], got {atom_count}")


def random_coordinate_convex(seed: int, r: Rect, atom_count: int) -> Fn2D:
    """A random function convex on the coordinates, reproducible from ``seed``.

    f(x, y) = beta + px*x + py*y + sum_i c_i * g_i(x) * h_i(y) with c_i >= 0
    and every g_i, h_i nonnegative convex on the corresponding side, so each
    partial mapping is a nonnegative combination of convex functions. It is
    drawn as the tree ``expr`` and evaluated by ``program(expr)``, so its
    values are ``eval_ast(f.expr, x, y)`` bit for bit. The positive flag is
    set when the minimum over the sample grid is strictly positive.
    """
    _check_atom_count(atom_count)
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(-0.5, 1.5))
    px = float(rng.uniform(-0.75, 0.75))
    py = float(rng.uniform(-0.75, 0.75))
    x, y = Var("x"), Var("y")
    expr = Binary("+", Binary("+", Number(beta), Binary("*", Number(px), x)),
                  Binary("*", Number(py), y))
    for _ in range(atom_count):
        coeff = float(rng.uniform(0.0, 2.0))
        g, h = _draw_atom(rng, r.x_interval, x), _draw_atom(rng, r.y_interval, y)
        expr = Binary("+", expr, Binary("*", Binary("*", Number(coeff), g), h))
    return with_positivity(program(expr), r, expr)


def random_convex_1d(seed: int, iv: Interval, atom_count: int,
                     ensure_positive: bool = False) -> Fn1D:
    """A random convex function of one variable, reproducible from ``seed``.

    F(t) = beta + p*t + sum_i c_i * atom_i(t) with c_i >= 0 and convex atoms,
    drawn as a tree in ``x`` and evaluated by its ``program``. The atoms are
    nonnegative, so F >= beta + min(p*lo, p*hi); with ``ensure_positive``
    beta is lifted until that floor clears 0.05, which makes positivity a
    construction guarantee rather than a sampling claim.
    """
    _check_atom_count(atom_count)
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(-0.5, 1.5))
    slope = float(rng.uniform(-1.0, 1.0))
    if ensure_positive:
        floor = beta + min(slope * iv.lo, slope * iv.hi)
        if floor < 0.05:
            beta += 0.05 - floor
    x = Var("x")
    expr = Binary("+", Number(beta), Binary("*", Number(slope), x))
    for _ in range(atom_count):
        coeff = float(rng.uniform(0.0, 2.0))
        expr = Binary("+", expr, Binary("*", Number(coeff), _draw_atom(rng, iv, x)))
    run = program(expr)  # y does not occur in the tree
    positive = bool(evaluate(run, np.linspace(iv.lo, iv.hi, 257), 0.0).min() > 0.0)
    return Fn1D(eval=lambda t: run(t, 0.0), positive=positive)
