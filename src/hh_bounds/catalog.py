"""Built-in named test functions and expression-to-function plumbing.

A named entry is shorthand for the source of an expression, so a name and
its expression resolve to the same function, with the same bits. Like any
parsed expression it carries no tree for now, so the convexity gate samples
it. It evaluates through :class:`expr.Evaluator`, whose values
``bounds1d.evaluate`` takes as they are, already broadcast and checked for
non-finite values. A resolved function is not flagged positive, and
resolving it evaluates nothing. Only :func:`rect.positive_upper` and
``verify`` read the flag, on generated functions, which
:func:`convexity.random_coordinate_convex` flags from the spot grid.
"""

from __future__ import annotations

from .expr import Evaluator, Node, parse
# still importable from here, as before (bench/test_bench.py relies on it)
from .expr import eval_ast  # noqa: F401
from .rect import Fn2D, Rect

_NAMED = {
    "xy": "x*y",
    "sumsq": "x*x+y*y",
    "expsum": "exp(x+y)",
    "absdist": "abs(x-0.5)+abs(y-0.5)",
    "const1": "1",
}

NAMED_FUNCTIONS = tuple(sorted(_NAMED))


def function_from_ast(ast: Node) -> Fn2D:
    """The parsed expression as a function, evaluated by its
    :class:`expr.Evaluator` and not flagged positive."""
    return Fn2D(eval=Evaluator(ast))


def resolve_function(name_or_expr: str, rect: Rect) -> Fn2D:
    """Resolve a named corpus entry, or else parse the string as an expression.

    The function does not depend on ``rect``; the parameter stays for callers
    that pass one."""
    return function_from_ast(parse(_NAMED.get(name_or_expr, name_or_expr)))
