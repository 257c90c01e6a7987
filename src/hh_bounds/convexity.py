"""Coordinate-convexity checks and random convex test functions.

The gate first tries a proof. When the function carries an expression tree
(``Fn2D.expr``), one pass over the tree tracks, per variable, whether each
subtree is constant, affine, convex or concave over the rectangle, together
with an interval that encloses its values. It uses
disciplined-convex-programming composition rules (Grant, Boyd & Ye 2006):
sums, negation, a factor of known sign that is constant in the variable,
squares and even powers of affine terms, ``exp`` of convex terms, ``abs``
of affine terms and ``max`` of convex terms; each node's rule is picked by
its type, and the curvature of a sum, a negation or a composition is read
from a table. The intervals are float intervals rounded outward; a
polynomial factor whose float interval straddles 0 is re-checked exactly,
in integer arithmetic on its dyadic values: every float is m * 2**e for
integers m and e. A tree the rules do not cover, such as one with ``/``,
``min`` or an odd power, is not proved.

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
_KINDS = (CONST, AFFINE, CONVEX, CONCAVE, None)

#: The curvature of a sum by its terms': the narrowest family holding both.
_ADD = {(a, b): next((kind for kind, family in (
            (CONST, (CONST,)), (AFFINE, (CONST, AFFINE)), (CONVEX, _CONVEX),
            (CONCAVE, _CONCAVE)) if a in family and b in family), None)
        for a in _KINDS for b in _KINDS}
_NEGATE = {CONST: CONST, AFFINE: AFFINE, CONVEX: CONCAVE, CONCAVE: CONVEX, None: None}
#: A convex outer function of a term: a constant stays constant, and the
#: result is convex for an affine term (|t|, t**p) or, when the outer
#: function is also nondecreasing (exp, max), for a convex one.
_OF_AFFINE = {c: CONST if c == CONST else CONVEX if c == AFFINE else None for c in _KINDS}
_OF_CONVEX = {c: CONST if c == CONST else CONVEX if c in _CONVEX else None for c in _KINDS}


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


def _arith(op: str, alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    """The finite interval of ``a op b`` for op in + - *, widened by an ulp
    each way. A sum or product of two nonnegative intervals keeps a lower
    bound of at least 0."""
    if op == "+":
        lo, hi = alo + blo, ahi + bhi
    elif op == "-":
        lo, hi = alo - bhi, ahi - blo
    else:
        ends = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        lo, hi = min(ends), max(ends)
    lo, hi = _down(lo), _up(hi)
    if op != "-" and alo >= 0 and blo >= 0:
        lo = max(lo, 0.0)
    return _finite(lo, hi)


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
    return _NEGATE[c] if hi <= 0.0 else None


def _exact_lower(node: Node, r: Rect) -> int:
    """An integer of the sign of the lower end of a polynomial subtree's
    interval over ``r``, computed exactly; -1 for a subtree that is not a
    polynomial."""
    try:
        return _exact_min(node, (r.a, r.b), (r.c, r.d))[0]
    except _Unproved:
        return -1


def _dyadic(v: float) -> tuple[int, int]:
    """(m, e) with ``v`` = m * 2**e exactly, for a finite ``v``."""
    m, d = v.as_integer_ratio()
    return m, 1 - d.bit_length()


def _aligned(lo: float, hi: float) -> tuple[int, int, int]:
    """(m_lo, m_hi, e) with ``lo`` = m_lo * 2**e and ``hi`` = m_hi * 2**e."""
    (mlo, elo), (mhi, ehi) = _dyadic(lo), _dyadic(hi)
    e = min(elo, ehi)
    return mlo << (elo - e), mhi << (ehi - e), e


def _exact_min(node: Node, x: tuple[float, float],
               y: tuple[float, float]) -> tuple[int, int]:
    """The lower end m * 2**e of the interval of a polynomial subtree over
    ``x`` x ``y``, as (m, e); :class:`_Unproved` for any other subtree.

    Every float is an integer times a power of two, so the walk keeps each
    interval as two integers over one exponent: a sum or difference shifts
    the mantissas to the smaller exponent and adds them, a product
    multiplies them and adds the exponents, and the ends of a product are
    the min and max of four integers. Nothing is rounded or reduced."""
    def walk(n: Node) -> tuple[int, int, int]:
        kind = type(n)
        if kind is Number:
            m, e = _dyadic(n.value)
            return m, m, e
        if kind is Var:
            return _aligned(*(x if n.name == "x" else y))
        if kind is Unary and n.op == "neg":
            lo, hi, e = walk(n.arg)
            return -hi, -lo, e
        if kind is not Binary or n.op not in ("+", "-", "*"):
            raise _Unproved
        (alo, ahi, ea), (blo, bhi, eb) = walk(n.left), walk(n.right)
        if n.op == "*":
            ends = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
            return min(ends), max(ends), ea + eb
        e = min(ea, eb)
        alo, ahi, blo, bhi = alo << ea - e, ahi << ea - e, blo << eb - e, bhi << eb - e
        return (alo + blo, ahi + bhi, e) if n.op == "+" else (alo - bhi, ahi - blo, e)

    lo, _, e = walk(node)
    return lo, e


def _float_up(m: int, e: int) -> float:
    """The least float at or above m * 2**e."""
    f = float(m << e) if e >= 0 else m / (1 << -e)  # both rounded to nearest
    fm, fe = _dyadic(f)
    k = min(fe, e)
    return math.nextafter(f, math.inf) if fm << fe - k < m << e - k else f


def _abs_range(lo: float, hi: float) -> tuple[float, float]:
    """The interval of |t| over t in [lo, hi]."""
    return (lo, hi) if lo >= 0.0 else (-hi, -lo) if hi <= 0.0 else (0.0, max(-lo, hi))


def _even_power(shape: tuple, p: float) -> tuple:
    """The shape of t**p for an even p >= 2, given the shape of t: convex in
    a variable where t is affine. The interval goes two steps outward for
    the rounding of ``**``."""
    cx, cy, lo, hi = shape
    small, big = _abs_range(lo, hi)
    return (_OF_AFFINE[cx], _OF_AFFINE[cy],
            *_finite(max(0.0, _down(_down(small ** p))), _up(_up(big ** p))))


def _shape(node: Node, r: Rect) -> tuple:
    """(curvature in x, curvature in y, lo, hi) of ``node`` over ``r``, by
    the rule for the node's type."""
    return _SHAPES.get(type(node), _unknown)(node, r)


def _unknown(node: Node, r: Rect) -> tuple:
    raise _Unproved


def _number(node: Number, r: Rect) -> tuple:
    v = node.value
    return (CONST, CONST, *_finite(v, v))


def _var(node: Var, r: Rect) -> tuple:
    return (AFFINE, CONST, r.a, r.b) if node.name == "x" else (CONST, AFFINE, r.c, r.d)


def _unary(node: Unary, r: Rect) -> tuple:
    op = node.op
    if op not in ("neg", "abs", "exp"):
        raise _Unproved
    cx, cy, lo, hi = _shape(node.arg, r)
    if op == "neg":
        return _NEGATE[cx], _NEGATE[cy], -hi, -lo
    if op == "abs":
        return (_OF_AFFINE[cx], _OF_AFFINE[cy], *_abs_range(lo, hi))
    lo, hi = max(0.0, _down(_down(math.exp(lo)))), _up(_up(math.exp(hi)))
    return (_OF_CONVEX[cx], _OF_CONVEX[cy], *_finite(lo, hi))


def _call(node: Call, r: Rect) -> tuple:
    if node.fn != "max" or len(node.args) != 2:
        raise _Unproved
    a, b = node.args
    ax, ay, alo, ahi = _shape(a, r)
    bx, by, blo, bhi = _shape(b, r)
    return (_OF_CONVEX[_ADD[ax, bx]], _OF_CONVEX[_ADD[ay, by]],
            max(alo, blo), max(ahi, bhi))


def _binary(node: Binary, r: Rect) -> tuple:
    op, a, b = node.op, node.left, node.right
    if op == "^":
        if type(b) is not Number or not (b.value >= 2.0 and b.value % 2.0 == 0.0):
            raise _Unproved
        return _even_power(_shape(a, r), b.value)
    if op == "*" and (a is b or a == b):
        return _even_power(_shape(a, r), 2.0)
    if op not in ("+", "-", "*"):
        raise _Unproved
    ax, ay, alo, ahi = _shape(a, r)
    bx, by, blo, bhi = _shape(b, r)
    if op == "+":
        return (_ADD[ax, bx], _ADD[ay, by], *_arith(op, alo, ahi, blo, bhi))
    if op == "-":
        return (_ADD[ax, _NEGATE[bx]], _ADD[ay, _NEGATE[by]], *_arith(op, alo, ahi, blo, bhi))
    ra, rb = (alo, ahi), (blo, bhi)
    return (_product(ax, bx, a, b, ra, rb, r), _product(ay, by, a, b, ra, rb, r),
            *_arith(op, alo, ahi, blo, bhi))


_SHAPES = {Number: _number, Var: _var, Unary: _unary, Binary: _binary, Call: _call}


# ---------------------------------------------------------------------------
# Random convex instances


def _draw_atom(rng: np.random.Generator, iv: Interval, t: Var) -> Node:
    """Draw one atom, a tree in ``t`` convex and nonnegative on ``iv``:
    t*t, |t - center|, exp(rate*t), or slope*t + intercept with the
    intercept lifted by :func:`_lift` to the least float at which the line
    is nonnegative on ``iv`` in exact arithmetic over its float
    coefficients, so that the gate can prove it."""
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
    intercept = _lift(slope, float(rng.uniform(0.0, 1.0)), iv.lo, iv.hi)
    return Binary("+", Binary("*", Number(slope), t), Number(intercept))


def _lift(slope: float, intercept: float, lo: float, hi: float) -> float:
    """The intercept that makes slope*t + ``intercept`` nonnegative on
    [``lo``, ``hi``]: lifted in floats by the line's float minimum when that
    is below 0, then, as that can leave the exact minimum a few ulps below
    0, to at least the least float at or above -min(slope*lo, slope*hi),
    computed exactly in integers."""
    low = min(slope * lo + intercept, slope * hi + intercept)
    if low < 0.0:
        intercept -= low
    m, e = _dyadic(slope)
    tlo, thi, et = _aligned(lo, hi)
    floor = _float_up(-min(m * tlo, m * thi), e + et)
    return intercept if intercept >= floor else floor


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
