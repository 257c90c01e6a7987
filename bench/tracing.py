"""In-memory span tracing of ``hh_bounds`` from outside the package.

``Tracer.install`` replaces public functions of the package with timing
wrappers. A function is replaced under every name a package module (or the
package itself) holds it by, so ``rect``'s own reference to
``midpoint_lower`` is traced as well as ``bounds1d.midpoint_lower``. Nothing
under ``src/`` changes; ``uninstall`` puts every original back.

Each call of a wrapped function is one span: name, start, end, parent span
and op id. Evaluation of ``f`` itself is the ``eval`` layer. It is not a span
per call (the scalar fallback calls ``f`` once per point, about a million
times per oracle) but is summed into the innermost open span: calls, points
and seconds. A span's self time is its duration minus its child spans and
minus the evaluation time summed into it.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

#: (module, function, span name). Layers are the package modules; the rect
#: module is split so that enclosures and chains can be told apart.
TARGETS = (
    ("oracle", "reference_integral_2d", "oracle"),
    ("convexity", "check_coordinate_convexity", "convexity"),
    ("rect", "discrete_enclosure", "rect.enclosure"),
    ("rect", "classic_chain", "rect.chain"),
    ("rect", "refined_chain", "rect.chain"),
    ("rect", "partition_chain", "rect"),
    ("rect", "centerline_bound", "rect"),
    ("rect", "boundary_bound", "rect"),
    ("rect", "positive_upper", "rect"),
    ("rect", "assemble_classic_terms", "rect"),
    ("rect", "spot_minimum", "rect"),
    ("bounds1d", "midpoint_lower", "bounds1d"),
    ("bounds1d", "trapezoid_upper", "bounds1d"),
    ("schemes", "adaptive_simpson", "schemes"),
    ("expr", "parse", "expr.parse"),
    ("catalog", "resolve_function", "catalog"),
    ("catalog", "function_from_ast", "catalog"),
    ("cli", "main", "cli"),
    ("verify", "run_verification", "verify"),
)

#: Functions whose Fn2D result carries a callback made inside the package;
#: the callback is wrapped so its evaluations count as ``eval``.
CALLBACK_FACTORIES = (("convexity", "random_coordinate_convex"),)

#: Span fields, stored as lists for cheap in-place updates.
OP, NAME, START, END, PARENT, CHILD_S, EVAL_CALLS, EVAL_POINTS, EVAL_S, FLAG = range(10)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._replaced: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, op, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [op, name, time.perf_counter(), 0.0, parent, 0.0, 0, 0, 0.0, False]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] is not None:
            span[PARENT][CHILD_S] += span[END] - span[START]

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str):
        """Context for one benchmark op: the root span all its work nests in."""
        span = self._open(op_id, "op:" + kind)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, fn, name: str, flag=None):
        def traced(*args, **kwargs):
            span = self._open(self._stack[-1][OP] if self._stack else None, name)
            try:
                out = fn(*args, **kwargs)
                if flag is not None:
                    span[FLAG] = flag(out)
                return out
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def wrap_eval(self, fn):
        """Count calls, points and seconds of a callback into the open span."""
        clock = time.perf_counter
        stack = self._stack

        def evaluated(*args):
            t0 = clock()
            try:
                out = fn(*args)
            finally:
                span = stack[-1]
                span[EVAL_S] += clock() - t0
                span[EVAL_CALLS] += 1
            span[EVAL_POINTS] += getattr(out, "size", 1)
            return out

        evaluated.__wrapped__ = fn
        return evaluated

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hh_bounds" and not mod_name.startswith("hh_bounds."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replaced.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._replaced:
            raise RuntimeError("tracer already installed")
        pkg = sys.modules["hh_bounds"]
        for mod_name, fn_name, span_name in TARGETS:
            original = getattr(sys.modules[f"hh_bounds.{mod_name}"], fn_name)
            flag = (lambda rep: not rep.passed) if span_name == "convexity" else None
            self._replace_everywhere(original, self.wrap(original, span_name, flag))
        self._replace_everywhere(pkg.expr.eval_ast, self.wrap_eval(pkg.expr.eval_ast))
        for mod_name, fn_name in CALLBACK_FACTORIES:
            original = getattr(sys.modules[f"hh_bounds.{mod_name}"], fn_name)
            self._replace_everywhere(original, self._wrap_factory(original, pkg.rect.Fn2D))

    def _wrap_factory(self, factory, fn2d):
        def made(*args, **kwargs):
            fn = factory(*args, **kwargs)
            return fn2d(eval=self.wrap_eval(fn.eval), positive=fn.positive)

        made.__wrapped__ = factory
        return made

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line; parents are given by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "op": s[OP], "name": s[NAME],
                    "parent": None if s[PARENT] is None else index[id(s[PARENT])],
                    "start": s[START], "end": s[END], "self_s": self_seconds(s),
                    "eval_calls": s[EVAL_CALLS], "eval_points": s[EVAL_POINTS],
                    "eval_s": s[EVAL_S], "flag": s[FLAG]}) + "\n")


def self_seconds(span: list) -> float:
    return span[END] - span[START] - span[CHILD_S] - span[EVAL_S]


def layer_metrics(spans: list[list], op_kinds: dict[int, str]) -> dict[str, float]:
    """Per-layer totals and ratios from a finished trace.

    ``op_kinds`` maps op id to op kind; it scopes ``oracle.calls_per_chain``
    to the ``chain`` commands. ``<layer>.eval_s`` is the evaluation time
    summed into that layer's spans, so a layer's whole cost is self plus eval.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    points: dict[str, int] = {}
    evals: dict[str, float] = {}
    eval_calls = eval_points = 0
    eval_s = 0.0
    rejections = enclosure_children = chain_oracle_calls = 0
    for s in spans:
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_seconds(s)
        points[name] = points.get(name, 0) + s[EVAL_POINTS]
        evals[name] = evals.get(name, 0.0) + s[EVAL_S]
        eval_calls += s[EVAL_CALLS]
        eval_points += s[EVAL_POINTS]
        eval_s += s[EVAL_S]
        if name == "convexity":
            rejections += int(bool(s[FLAG]))
        elif name == "bounds1d" and s[PARENT] is not None and s[PARENT][NAME] == "rect.enclosure":
            enclosure_children += 1
        elif name == "oracle" and op_kinds.get(s[OP]) == "chain":
            chain_oracle_calls += 1

    def per(num, den):
        return num / den if den else 0.0

    chains = sum(1 for k in op_kinds.values() if k == "chain")
    out = {}
    for layer in ("oracle", "convexity", "rect.enclosure", "rect.chain", "bounds1d", "schemes"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for layer in ("oracle", "convexity", "rect.enclosure", "rect.chain", "bounds1d",
                  "schemes", "catalog", "expr.parse", "cli", "verify"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["rect.self_s"] = sum(v for k, v in self_s.items() if k.startswith("rect"))
    for layer in ("oracle", "convexity", "bounds1d", "schemes"):
        out[f"{layer}.eval_s"] = evals.get(layer, 0.0)
    out["rect.eval_s"] = sum(v for k, v in evals.items() if k.startswith("rect"))
    for layer in ("oracle", "convexity", "schemes"):
        out[f"{layer}.points"] = points.get(layer, 0)
    for layer in ("oracle", "convexity", "bounds1d"):
        out[f"{layer}.points_per_call"] = per(points.get(layer, 0), calls.get(layer, 0))
    out["oracle.calls_per_chain"] = per(chain_oracle_calls, chains)
    out["convexity.rejections"] = rejections
    out["bounds1d.calls_per_enclosure"] = per(enclosure_children, calls.get("rect.enclosure", 0))
    out["eval.calls"] = eval_calls
    out["eval.points"] = eval_points
    out["eval.self_s"] = eval_s
    out["eval.points_per_call"] = per(eval_points, eval_calls)
    out["bench.self_s"] = sum(v for k, v in self_s.items() if k.startswith("op:"))
    return out
