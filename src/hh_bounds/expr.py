"""Tiny arithmetic expression language for functions of x and y.

Grammar, lowest precedence first (whitespace insensitive, no implicit
multiplication). The levels are ``_BINARY_PREC`` and ``_NEG_PREC``, the table
:func:`to_string` prints by, and each binary level is left-associative:

    1  +, -
    2  *, /
    3  unary minus (so -x^2 means -(x^2); before a number that is not raised
       to a power, it makes a negative number)
    4  ^ with a numeric-literal exponent, optionally signed, once per operand
    atoms  number, x, y, (expr), exp(e), abs(e), max(e,e), min(e,e)

Parsing reports the first failure as a :class:`ParseError` carrying the byte
offset of the offending token, including a numeric literal too large to be a
finite float, and a tree or parentheses deeper than MAX_DEPTH, so that no
walk of a tree exhausts Python's stack. Division by zero and other domain
problems are deferred to evaluation, which raises :class:`EvaluationError`
with the source span of the failing subexpression.

Evaluation compiles a tree once, on its first :func:`eval_ast`, into closures
that call numpy directly. Finiteness is checked at the root and wherever an
operation could hide a non-finite operand; only when such a check fires is a
second program, with every node checked, compiled and run, to name the
failing one. :class:`Evaluator` is a tree as a callback of (x, y) whose
values have the broadcast shape and are checked already, so
``bounds1d.evaluate`` takes them as they are.
:func:`program` gives the same closures with no check at all, for callers
that check the values themselves, as ``bounds1d.evaluate`` does for any
other callback.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import EvaluationError, HHBoundsError

Span = tuple[int, int]

#: The deepest tree, and nesting of parentheses, that :func:`parse` accepts;
#: a leaf is one level. The benchmark's deepest expression has 10.
MAX_DEPTH = 100


class ParseError(HHBoundsError):
    def __init__(self, position: int, expected: str, found: str):
        super().__init__(f"at offset {position}: expected {expected}, found {found}")
        self.position = position
        self.expected = expected
        self.found = found


@dataclass(frozen=True)
class Number:
    value: float
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str  # "neg", "abs", "exp"
    arg: "Node"
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str  # "+", "-", "*", "/", "^"
    left: "Node"
    right: "Node"
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str  # "max", "min"
    args: tuple["Node", "Node"]
    span: Span | None = field(default=None, compare=False)


Node = Union[Number, Var, Unary, Binary, Call]


class _Token(NamedTuple):
    kind: str  # "num", "name", "op", "end"
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))")


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None or m.lastgroup is None:
            stripped = src[i:].lstrip()
            if not stripped:
                break
            pos = len(src) - len(stripped)
            raise ParseError(pos, "a token", repr(src[pos]))
        tok = _Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup))
        if tok.kind == "num" and not math.isfinite(float(tok.text)):
            raise ParseError(tok.pos, "a finite number", repr(tok.text))
        toks.append(tok)
        i = m.end()
    toks.append(_Token("end", "", len(src)))
    return toks


#: The operations of each node kind, called exactly as ``a + b``, ``np.exp(a)``,
#: ...; the keys of _UNARY but neg, and of _CALLS, are the functions a source calls
_UNARY = {"neg": operator.neg, "abs": np.abs, "exp": np.exp}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": np.true_divide, "^": np.power}
_CALLS = {"max": np.maximum, "min": np.minimum}
#: The operations that can turn a non-finite operand finite: exp(-inf),
#: 1/inf, 1^inf, min(inf, 0). The others keep a non-finite element non-finite.
_ABSORBING = {"exp", "/", "^", "max", "min"}
#: The precedence of each binary operator and of unary minus, for parsing and
#: printing alike; an atom binds tighter than any of them
_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 5


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.nesting = 0  # parentheses open
        self.depths: dict[int, int] = {}  # levels of each non-leaf node, by id

    @property
    def cur(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind == "op" and tok.text in ("(", ")"):
            self.nesting += 1 if tok.text == "(" else -1
            if self.nesting > MAX_DEPTH:
                self.fail(f"an expression at most {MAX_DEPTH} levels deep")
        self.i += 1
        return tok

    def fail(self, expected: str, tok: _Token | None = None):
        tok = tok or self.cur
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(tok.pos, expected, found)

    def join(self, node: Unary | Binary | Call, tok: _Token) -> Node:
        """``node``, built at ``tok``, unless it is deeper than MAX_DEPTH."""
        depth = 1 + max(self.depths.get(id(child), 1) for child in _children(node))
        if depth > MAX_DEPTH:
            self.fail(f"an expression at most {MAX_DEPTH} levels deep", tok)
        self.depths[id(node)] = depth
        return node

    def expect_op(self, op: str) -> _Token:
        if self.cur.kind == "op" and self.cur.text == op:
            return self.advance()
        self.fail(f"'{op}'")

    def parse(self) -> Node:
        node = self.binary(1)
        if self.cur.kind != "end":
            self.fail("end of input")
        return node

    def binary(self, prec: int) -> Node:
        """The operators of precedence ``prec`` and above, each level
        left-associative; an operand is a unary at or below _NEG_PREC, an atom
        above it."""
        node = self.unary() if prec <= _NEG_PREC else self.atom()
        while _BINARY_PREC.get(self.cur.text, 0) >= prec:
            tok = self.advance()
            right = (self.exponent() if tok.text == "^"
                     else self.binary(_BINARY_PREC[tok.text] + 1))
            if tok.text == "^" and self.cur.text == "^":
                self.fail("a single numeric exponent")
            node = self.join(Binary(tok.text, node, right, span=(node.span[0], right.span[1])),
                             tok)
        return node

    def unary(self) -> Node:
        # signs are read in a loop, not by recursion: depth is checked as nodes
        # are joined, after the operand, so a long run of them would exhaust
        # Python's stack first
        signs = []
        while self.cur.kind == "op" and self.cur.text == "-":
            signs.append(self.advance())
        # a minus directly before a numeric literal that is not the base of
        # ^ makes a negative number, as to_string writes one
        tok = self.cur
        if signs and tok.kind == "num" and self.toks[self.i + 1].text != "^":
            self.advance()
            node = Number(-float(tok.text), span=(signs.pop().pos, tok.pos + len(tok.text)))
        else:
            node = self.binary(_NEG_PREC + 1)
        for tok in reversed(signs):
            node = self.join(Unary("neg", node, span=(tok.pos, node.span[1])), tok)
        return node

    def exponent(self) -> Number:
        # exponents are numeric literals, optionally signed
        neg = None
        if self.cur.kind == "op" and self.cur.text == "-":
            neg = self.advance()
        if self.cur.kind != "num":
            self.fail("a numeric exponent")
        tok = self.advance()
        value = float(tok.text)
        start = neg.pos if neg else tok.pos
        if neg:
            value = -value
        return Number(value, span=(start, tok.pos + len(tok.text)))

    def atom(self) -> Node:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Number(float(tok.text), span=(tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "name":
            if tok.text in ("x", "y"):
                self.advance()
                return Var(tok.text, span=(tok.pos, tok.pos + len(tok.text)))
            if tok.text in _CALLS or (tok.text in _UNARY and tok.text != "neg"):
                return self.call(self.advance())
            self.fail("x, y, a number, or a function name")
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.binary(1)
            self.expect_op(")")
            return node
        self.fail("an expression")

    def call(self, name: _Token) -> Node:
        self.expect_op("(")
        first = self.binary(1)
        if name.text in _CALLS:
            self.expect_op(",")
            second = self.binary(1)
            close = self.expect_op(")")
            return self.join(Call(name.text, (first, second), span=(name.pos, close.pos + 1)),
                             name)
        close = self.expect_op(")")
        return self.join(Unary(name.text, first, span=(name.pos, close.pos + 1)), name)


def parse(src: str) -> Node:
    """Parse an expression in x and y, raising ParseError on the first failure."""
    if not src.strip():
        raise ParseError(0, "an expression", "end of input")
    return _Parser(src).parse()


def _where(node: Node) -> str:
    if node.span is not None:
        return f"at offsets {node.span[0]}..{node.span[1]}"
    return "in subexpression"


def eval_ast(node: Node, x, y):
    """Evaluate at scalars or numpy arrays (elementwise); non-finite results raise.

    The tree is compiled into two programs of closures, each on its first
    use, kept on ``node`` itself (by identity, never by equality:
    ``Number(0.0) == Number(-0.0)``). Both call the same numpy functions and
    operators in the same order, so they give the same values. The fast
    one, compiled on the first call, checks only the root and the non-leaf
    operands of ``exp``, ``/``, ``^``, ``max`` and ``min``; any other
    operation keeps a non-finite element non-finite, so a failing node always
    reaches a check. When a check fires, or the inputs broadcast to nothing
    (where a non-finite scalar can vanish), the strict one is compiled, if
    it is not yet, and runs instead. It checks the root, a leaf root too,
    and every non-leaf node, and raises :class:`EvaluationError` with the
    span of the first that has a non-finite value.
    """
    fast = _compiled(node, False)
    with np.errstate(all="ignore"):
        if np.size(x) and np.size(y):
            try:
                return fast(x, y)
            except EvaluationError:
                pass
        return _compiled(node, True)(x, y)


@dataclass(frozen=True, eq=False)
class Evaluator:
    """``tree`` as a callback of (x, y): :func:`eval_ast`'s values broadcast
    to the broadcast shape of (x, y), a constant's included.

    So a call returns finite floats of that shape, or raises eval_ast's
    :class:`EvaluationError`, which names no point. ``bounds1d.evaluate``
    tells an Evaluator by its type and takes its values as they are, with
    no shape fallback and no second finiteness scan. ``eval_ast`` is looked
    up in this module at each call, so a wrapper put in its place sees
    every evaluation. Equal only to itself, as equal trees may give other
    bits (``Number(0.0) == Number(-0.0)``).
    """

    tree: Node

    def __call__(self, x, y):
        out = eval_ast(self.tree, x, y)
        shape = np.broadcast(x, y).shape
        return out if np.shape(out) == shape else np.broadcast_to(out, shape)


def program(node: Node) -> Callable:
    """``node`` as a function of (x, y) that checks nothing, for callers that
    check the values themselves: :func:`eval_ast`'s operations in its order,
    so its values bit for bit where that returns, and what the arithmetic
    gives (inf, or 0 for ``exp(-inf)``) where it raises. numpy's error state
    is the caller's. Compiled once and kept on ``node``, in the one cache
    that holds every compiled program of a tree, :func:`eval_ast`'s too."""
    return _compiled(node, None)


def separated(node: Node) -> tuple[tuple, tuple] | None:
    """``node`` as signed terms, each a product of factors in one variable at
    most, or None if it is not one.

    A term is a product (``*``, unary ``neg``) of the largest subtrees that
    each mention at most one variable; terms are joined by ``+``, ``-`` and
    ``neg``. The tree is never rewritten, so ``exp(x+y)``, ``(x+y)^2``,
    ``max(x, y)`` and ``x*y/3`` give None. The result is ``(factors,
    terms)``: the distinct factors, each a pair ``(variable, subtree)`` with
    the variable "x", "y", or None for a constant, a subtree met twice
    (equal bits, as :func:`to_string` writes them) listed once; and per
    term its sign, 1.0 or -1.0, and the indices of its factors. In exact
    arithmetic ``node`` is the sum of each term's sign times the product of
    its factors. Worked out once and kept on ``node``, as its programs are.
    """
    try:
        return node.__dict__["_separated"]
    except KeyError:
        out = node.__dict__["_separated"] = _separate(node)
        return out


def _separate(root: Node) -> tuple[tuple, tuple] | None:
    mentions: dict[int, frozenset] = {}  # the variables of each subtree, by id

    def mention(node: Node) -> frozenset:
        if id(node) not in mentions:
            if isinstance(node, Var):
                names = frozenset((node.name,))
            else:
                names = frozenset().union(*map(mention, _children(node)))
            mentions[id(node)] = names
        return mentions[id(node)]

    keys: dict[str, int] = {}
    factors, terms = [], []

    def product(node: Node, sign: float, into: list) -> float | None:
        """The sign of ``node`` as a product, its factors appended to ``into``."""
        if len(mention(node)) < 2:
            key = to_string(node)
            if key not in keys:
                keys[key] = len(factors)
                factors.append((next(iter(mention(node)), None), node))
            into.append(keys[key])
            return sign
        if isinstance(node, Binary) and node.op == "*":
            sign = product(node.left, sign, into)
            return None if sign is None else product(node.right, sign, into)
        if isinstance(node, Unary) and node.op == "neg":
            return product(node.arg, -sign, into)
        return None

    def add(node: Node, sign: float) -> bool:
        """Whether ``node``, times ``sign``, is a sum of terms, added to ``terms``."""
        if isinstance(node, Binary) and node.op in ("+", "-") and len(mention(node)) > 1:
            return add(node.left, sign) and add(node.right, -sign if node.op == "-" else sign)
        if isinstance(node, Unary) and node.op == "neg" and len(mention(node)) > 1:
            return add(node.arg, -sign)
        into: list[int] = []
        sign = product(node, sign, into)
        if sign is None:
            return False
        terms.append((sign, tuple(into)))
        return True

    return (tuple(factors), tuple(terms)) if add(root, 1.0) else None


def _children(node: Node) -> tuple:
    if isinstance(node, Unary):
        return (node.arg,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    return node.args if isinstance(node, Call) else ()


def _compiled(node: Node, strict: bool | None) -> Callable:
    """``node``'s program in mode ``strict`` (see :func:`_compile`), compiled
    on first use and kept on ``node`` by mode."""
    try:
        return node.__dict__["_compiled"][strict]
    except KeyError:
        programs = node.__dict__.setdefault("_compiled", {})
        programs[strict] = run = _compile(node, strict)
        return run


def _compile(root: Node, strict: bool | None) -> Callable:
    """``root`` as a function of (x, y), checking the root and each non-leaf
    node when ``strict``, only the root and the non-leaf operands of
    _ABSORBING when ``strict`` is False, and nothing when it is None."""
    absorbing = () if strict is None else _ABSORBING

    def pair(fn: Callable, a: Node, b: Node, checked: bool) -> Callable:
        # fn(a, b), a number operand passed as its value: one call fewer per
        # evaluation, one closure fewer per compile, and the same arguments
        if isinstance(a, Number):
            value, right = a.value, build(b, checked)
            return lambda x, y: fn(value, right(x, y))
        left = build(a, checked)
        if isinstance(b, Number):
            value = b.value
            return lambda x, y: fn(left(x, y), value)
        right = build(b, checked)
        return lambda x, y: fn(left(x, y), right(x, y))

    def build(node: Node, checked: bool) -> Callable:
        if isinstance(node, Number):
            value = node.value
            return lambda x, y: value
        if isinstance(node, Var):
            return (lambda x, y: x) if node.name == "x" else (lambda x, y: y)
        if isinstance(node, Unary) and node.op in _UNARY:
            fn = _UNARY[node.op]
            arg = build(node.arg, strict or node.op in absorbing)
            run = lambda x, y: fn(arg(x, y))
        elif isinstance(node, Binary) and node.op in _BINARY:
            run = pair(_BINARY[node.op], node.left, node.right, strict or node.op in absorbing)
        elif isinstance(node, Call) and node.fn in _CALLS and len(node.args) == 2:
            run = pair(_CALLS[node.fn], *node.args, strict or node.fn in absorbing)
        else:
            raise EvaluationError(f"malformed syntax tree node {node!r}")
        return check(node, run) if checked else run

    def check(node: Node, run: Callable) -> Callable:
        def checked(x, y):
            out = run(x, y)
            if not np.isfinite(out).all():
                raise EvaluationError(f"non-finite result {_where(node)}")
            return out
        return checked

    run = build(root, strict is not None)
    # build leaves a leaf unchecked, which a leaf root must not be: it passes
    # a non-finite input, or a non-finite number, through unchanged
    if strict is not None and isinstance(root, (Number, Var)):
        run = check(root, run)
    return run


def _prec(node: Node) -> int:
    match node:
        case Binary(op=op):
            return _BINARY_PREC[op]
        case Unary(op="neg"):
            return _NEG_PREC
        case Number(value=v) if math.copysign(1.0, v) < 0.0:
            return _NEG_PREC
        case _:
            return _ATOM_PREC


def to_string(node: Node) -> str:
    """Render with minimal parentheses, so that :func:`parse` gives back an
    equal tree for any tree of finite numbers whose exponents are numbers.

    A negative number is written with its minus, as the parser reads a minus
    directly before a literal; the negation of a number is written ``-(v)``.
    """

    def wrap(child: Node, min_prec: int) -> str:
        s = to_string(child)
        return f"({s})" if _prec(child) < min_prec else s

    match node:
        case Number(value=v):
            return repr(v)
        case Var(name=name):
            return name
        case Unary(op="neg", arg=Number() as arg):
            return f"-({to_string(arg)})"
        case Unary(op="neg", arg=arg):
            return "-" + wrap(arg, _NEG_PREC)
        case Unary(op=op, arg=arg):
            return f"{op}({to_string(arg)})"
        case Call(fn=fn, args=(a, b)):
            return f"{fn}({to_string(a)},{to_string(b)})"
        case Binary(op="^", left=l, right=r):
            return wrap(l, _ATOM_PREC) + "^" + to_string(r)
        case Binary(op=op, left=l, right=r):
            prec = _BINARY_PREC[op]
            return wrap(l, prec) + op + wrap(r, prec + 1)
    raise ValueError(f"malformed syntax tree node {node!r}")
