"""Tiny arithmetic expression language for functions of x and y.

Grammar, lowest precedence first (whitespace insensitive, no implicit
multiplication):

    additive        (+, -)
    multiplicative  (*, /)
    unary minus     (so -x^2 means -(x^2))
    power           (^ with a numeric-literal exponent, optionally signed)
    atoms           number, x, y, (expr), exp(e), abs(e), max(e,e), min(e,e)

Parsing reports the first failure as a :class:`ParseError` carrying the byte
offset of the offending token, including a tree or parentheses deeper than
MAX_DEPTH, so that no walk of a tree exhausts Python's stack. Division by
zero and other domain problems are deferred to evaluation, which raises
:class:`EvaluationError` with the source span of the failing subexpression.

Evaluation compiles a tree once, on its first :func:`eval_ast`, into closures
that call numpy directly. Finiteness is checked at the root and wherever an
operation could hide a non-finite operand; only when such a check fires is the
tree rerun with every node checked, to name the failing one. :func:`program`
gives the same closures with no check at all, for callers that check the
values themselves, such as ``bounds1d.evaluate``.
"""

from __future__ import annotations

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
        toks.append(_Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        i = m.end()
    toks.append(_Token("end", "", len(src)))
    return toks


_FUNCTIONS = {"exp", "abs", "max", "min"}


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
        children = ((node.arg,) if isinstance(node, Unary) else
                    (node.left, node.right) if isinstance(node, Binary) else node.args)
        depth = 1 + max(self.depths.get(id(child), 1) for child in children)
        if depth > MAX_DEPTH:
            self.fail(f"an expression at most {MAX_DEPTH} levels deep", tok)
        self.depths[id(node)] = depth
        return node

    def expect_op(self, op: str) -> _Token:
        if self.cur.kind == "op" and self.cur.text == op:
            return self.advance()
        self.fail(f"'{op}'")

    def parse(self) -> Node:
        node = self.additive()
        if self.cur.kind != "end":
            self.fail("end of input")
        return node

    def additive(self) -> Node:
        node = self.multiplicative()
        while self.cur.kind == "op" and self.cur.text in "+-":
            tok = self.advance()
            right = self.multiplicative()
            node = self.join(Binary(tok.text, node, right, span=(node.span[0], right.span[1])),
                             tok)
        return node

    def multiplicative(self) -> Node:
        node = self.unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            tok = self.advance()
            right = self.unary()
            node = self.join(Binary(tok.text, node, right, span=(node.span[0], right.span[1])),
                             tok)
        return node

    def unary(self) -> Node:
        signs = []
        while self.cur.kind == "op" and self.cur.text == "-":
            signs.append(self.advance())
        node = self.power()
        for tok in reversed(signs):
            node = self.join(Unary("neg", node, span=(tok.pos, node.span[1])), tok)
        return node

    def power(self) -> Node:
        base = self.atom()
        if not (self.cur.kind == "op" and self.cur.text == "^"):
            return base
        tok = self.advance()
        exponent = self.exponent()
        if self.cur.kind == "op" and self.cur.text == "^":
            self.fail("a single numeric exponent")
        return self.join(Binary("^", base, exponent, span=(base.span[0], exponent.span[1])),
                         tok)

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
            if tok.text in _FUNCTIONS:
                return self.call(self.advance())
            self.fail("x, y, a number, or a function name")
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.additive()
            self.expect_op(")")
            return node
        self.fail("an expression")

    def call(self, name: _Token) -> Node:
        self.expect_op("(")
        first = self.additive()
        if name.text in ("max", "min"):
            self.expect_op(",")
            second = self.additive()
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


#: The operations of each node kind, called exactly as ``a + b``, ``np.exp(a)``, ...
_UNARY = {"neg": operator.neg, "abs": np.abs, "exp": np.exp}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": np.true_divide, "^": np.power}
_CALLS = {"max": np.maximum, "min": np.minimum}
#: The operations that can turn a non-finite operand finite: exp(-inf),
#: 1/inf, 1^inf, min(inf, 0). The others keep a non-finite element non-finite.
_ABSORBING = {"exp", "/", "^", "max", "min"}


class _Rerun(Exception):
    """A check of the fast program fired: the strict program names the node."""


def eval_ast(node: Node, x, y):
    """Evaluate at scalars or numpy arrays (elementwise); non-finite results raise.

    The tree is compiled on the first call into two programs of closures,
    kept on ``node`` itself (by identity, never by equality: ``Number(0.0) ==
    Number(-0.0)``). Both call the same numpy functions and operators in the
    same order, so they give the same values. The strict one checks every
    non-leaf node for non-finite values and raises :class:`EvaluationError`
    with the span of the first that has one. The fast one checks only the
    root and the non-leaf operands of ``exp``, ``/``, ``^``, ``max`` and
    ``min``; any other operation keeps a non-finite element non-finite, so a
    failing node always reaches a check. When a check fires, or the inputs
    broadcast to nothing (where a non-finite scalar can vanish), the strict
    program runs instead.
    """
    fast, strict = _programs(node)
    with np.errstate(all="ignore"):
        if np.size(x) and np.size(y):
            try:
                return fast(x, y)
            except _Rerun:
                pass
        return strict(x, y)


def program(node: Node) -> Callable:
    """``node`` as a function of (x, y) that checks nothing, for callers that
    check the values themselves: :func:`eval_ast`'s operations in its order,
    so its values bit for bit where that returns, and what the arithmetic
    gives (inf, or 0 for ``exp(-inf)``) where it raises. numpy's error state
    is the caller's. Compiled once, apart from :func:`eval_ast`'s programs,
    and kept on ``node``."""
    run = node.__dict__.get("_program")
    if run is None:
        run = _compile(node, strict=None)
        object.__setattr__(node, "_program", run)
    return run


def _programs(node: Node) -> tuple[Callable, Callable]:
    """The fast and the strict program of ``node``, compiled on first use."""
    programs = node.__dict__.get("_programs")
    if programs is None:
        programs = (_compile(node, strict=False), _compile(node, strict=True))
        object.__setattr__(node, "_programs", programs)
    return programs


def _compile(root: Node, strict: bool | None) -> Callable:
    """``root`` as a function of (x, y), checking each non-leaf node when
    ``strict``, only the root and the non-leaf operands of _ABSORBING when
    ``strict`` is False, and nothing when it is None."""
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
        if not checked:
            return run
        fail = (lambda: EvaluationError(f"non-finite result {_where(node)}")) if strict else _Rerun

        def check(x, y):
            out = run(x, y)
            if not np.isfinite(out).all():
                raise fail()
            return out
        return check

    return build(root, strict is not None)


_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_ATOM_PREC = 5
_NEG_PREC = 3


def _prec(node: Node) -> int:
    match node:
        case Binary(op=op):
            return _BINARY_PREC[op]
        case Unary(op="neg"):
            return _NEG_PREC
        case _:
            return _ATOM_PREC


def to_string(node: Node) -> str:
    """Render with minimal parentheses; reparsing yields a structurally equal tree."""

    def wrap(child: Node, min_prec: int) -> str:
        s = to_string(child)
        return f"({s})" if _prec(child) < min_prec else s

    match node:
        case Number(value=v):
            return repr(v)
        case Var(name=name):
            return name
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
