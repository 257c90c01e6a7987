"""Built-in named test functions and expression-to-function plumbing.

The named entries are direct callables (not parsed strings) so documentation
examples and acceptance runs do not depend on the expression parser. The
positive flag of a resolved function is decided per rectangle from the
sample-grid minimum.
"""

from __future__ import annotations

import numpy as np

from .expr import Node, eval_ast, parse
from .rect import Fn2D, Rect, with_positivity

_NAMED = {
    "xy": lambda x, y: x * y,
    "sumsq": lambda x, y: x * x + y * y,
    "expsum": lambda x, y: np.exp(x + y),
    "absdist": lambda x, y: np.abs(x - 0.5) + np.abs(y - 0.5),
    "const1": lambda x, y: 1.0 + 0.0 * x + 0.0 * y,
}

NAMED_FUNCTIONS = tuple(sorted(_NAMED))


def function_from_ast(ast: Node, rect: Rect) -> Fn2D:
    """The parsed expression as a function; values always take the shape of
    the broadcast of (x, y), so a constant expression is not mistaken
    for a scalar-only callback."""
    return with_positivity(
        lambda x, y: np.broadcast_to(eval_ast(ast, x, y), np.broadcast(x, y).shape), rect)


def resolve_function(name_or_expr: str, rect: Rect) -> Fn2D:
    """Resolve a named corpus entry, or else parse the string as an expression."""
    if name_or_expr in _NAMED:
        return with_positivity(_NAMED[name_or_expr], rect)
    return function_from_ast(parse(name_or_expr), rect)

