"""Shared parser corpus: well-formed expressions with their expected trees,
and malformed inputs with the span of the offending token."""

from hh_bounds.expr import Binary, Call, Number, Unary, Var


def num(v):
    return Number(float(v))


def var(name):
    return Var(name)


def neg(a):
    return Unary("neg", a)


def absn(a):
    return Unary("abs", a)


def expn(a):
    return Unary("exp", a)


def add(l, r):
    return Binary("+", l, r)


def sub(l, r):
    return Binary("-", l, r)


def mul(l, r):
    return Binary("*", l, r)


def div(l, r):
    return Binary("/", l, r)


def pow_(l, r):
    return Binary("^", l, r)


def fmax(a, b):
    return Call("max", (a, b))


def fmin(a, b):
    return Call("min", (a, b))


def depth(node):
    """Levels of a tree, a leaf being one."""
    match node:
        case Unary(arg=a):
            return 1 + depth(a)
        case Binary(left=a, right=b) | Call(args=(a, b)):
            return 1 + max(depth(a), depth(b))
    return 1


X = var("x")
Y = var("y")

# (source, expected tree); spans are excluded from equality.
CORPUS = [
    ("x", X),
    ("y", Y),
    ("42", num(42)),
    ("3.5", num(3.5)),
    ("2e3", num(2000)),
    (".5", num(0.5)),
    ("x+y", add(X, Y)),
    ("x-y", sub(X, Y)),
    ("x*y", mul(X, Y)),
    ("x/y", div(X, Y)),
    ("x^2", pow_(X, num(2))),
    ("-x", neg(X)),
    ("--x", neg(neg(X))),
    ("x+y+1", add(add(X, Y), num(1))),
    ("x-y-1", sub(sub(X, Y), num(1))),
    ("x*y*2", mul(mul(X, Y), num(2))),
    ("x+y*2", add(X, mul(Y, num(2)))),
    ("(x+y)*2", mul(add(X, Y), num(2))),
    ("x*(y+2)", mul(X, add(Y, num(2)))),
    ("2+3*4^2", add(num(2), mul(num(3), pow_(num(4), num(2))))),
    ("-x^2", neg(pow_(X, num(2)))),
    ("x^2+y^2", add(pow_(X, num(2)), pow_(Y, num(2)))),
    ("x^2 + abs(y-0.5)", add(pow_(X, num(2)), absn(sub(Y, num(0.5))))),
    ("exp(x)", expn(X)),
    ("abs(y)", absn(Y)),
    ("exp(x+y)", expn(add(X, Y))),
    ("abs(x-0.5)", absn(sub(X, num(0.5)))),
    ("max(x,y)", fmax(X, Y)),
    ("min(x,y)", fmin(X, Y)),
    ("max(x^2,y^2)", fmax(pow_(X, num(2)), pow_(Y, num(2)))),
    ("min(x+y,x*y)", fmin(add(X, Y), mul(X, Y))),
    ("exp(abs(x))", expn(absn(X))),
    ("abs(abs(y))", absn(absn(Y))),
    ("x^2*y", mul(pow_(X, num(2)), Y)),
    ("x*y^2", mul(X, pow_(Y, num(2)))),
    ("x/(y+1)", div(X, add(Y, num(1)))),
    ("(x)", X),
    ("((x+y))", add(X, Y)),
    ("x ^ 2", pow_(X, num(2))),
    ("  x + y  ", add(X, Y)),
    ("x^-2", pow_(X, num(-2))),
    ("2^3", pow_(num(2), num(3))),
    ("1/2*x", mul(div(num(1), num(2)), X)),
    ("x-(y-1)", sub(X, sub(Y, num(1)))),
    ("x+(y+1)", add(X, add(Y, num(1)))),
    ("-(x+y)", neg(add(X, Y))),
    ("-x*y", mul(neg(X), Y)),
    ("x*-y", mul(X, neg(Y))),
    ("max(abs(x-0.5),abs(y-0.5))",
     fmax(absn(sub(X, num(0.5))), absn(sub(Y, num(0.5))))),
    ("exp(x)*exp(y)", mul(expn(X), expn(Y))),
    ("1+abs(x*y-0.25)", add(num(1), absn(sub(mul(X, Y), num(0.25))))),
]

# (source, (lo, hi)) where the reported position must satisfy lo <= pos <= hi,
# i.e. the position points inside the offending token (EOF counts as len).
MALFORMED = [
    ("", (0, 0)),
    ("x +", (3, 3)),
    ("x ++ y", (3, 3)),
    ("2 +* 3", (3, 3)),
    ("(x+y", (4, 4)),
    ("x+y)", (3, 3)),
    ("max(x)", (5, 5)),
    ("min(x,y,x)", (7, 7)),
    ("abs()", (4, 4)),
    ("x^y", (2, 2)),
    ("x^(2)", (2, 2)),
    ("x^2^3", (3, 3)),
    ("2..5", (2, 3)),
    ("foo(x)", (0, 2)),
    ("x y", (2, 2)),
    ("1e", (1, 1)),
    ("@", (0, 0)),
    ("x & y", (2, 2)),
    ("exp x", (4, 4)),
    ("-", (1, 1)),
    ("*x", (0, 0)),
]
