"""Built-in named test functions and expression-to-function plumbing.

A named entry is shorthand for the source of an expression, so a name and
its expression resolve to the same function, with the same bits. Like any
parsed expression it carries no tree for now, so the convexity gate samples
it. It evaluates through :class:`expr.Evaluator`, whose values
``bounds1d.evaluate`` takes as they are, already broadcast and checked for
non-finite values. The positive flag of a resolved function is decided per
rectangle from the sample-grid minimum.
"""

from __future__ import annotations

from .expr import Evaluator, Node, parse
# still importable from here, as before (bench/test_bench.py relies on it)
from .expr import eval_ast  # noqa: F401
from .rect import Fn2D, Rect, with_positivity

_NAMED = {
    "xy": "x*y",
    "sumsq": "x*x+y*y",
    "expsum": "exp(x+y)",
    "absdist": "abs(x-0.5)+abs(y-0.5)",
    "const1": "1",
}

NAMED_FUNCTIONS = tuple(sorted(_NAMED))


def function_from_ast(ast: Node, rect: Rect) -> Fn2D:
    """The parsed expression as a function, evaluated by its
    :class:`expr.Evaluator`."""
    return with_positivity(Evaluator(ast), rect)


def resolve_function(name_or_expr: str, rect: Rect) -> Fn2D:
    """Resolve a named corpus entry, or else parse the string as an expression."""
    return function_from_ast(parse(_NAMED.get(name_or_expr, name_or_expr)), rect)

