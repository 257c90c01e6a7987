"""Tests of the benchmark itself: its reference integrals and its failure count.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import family  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

pkg = run.load_package()


def _smooth_instances(count: int):
    """Family members without abs factors, where Simpson's estimate is sharp."""
    rng = np.random.default_rng(2017)
    found = []
    while len(found) < count:
        inst = family.draw_instance(rng)
        if all(g.kind != "abs" and h.kind != "abs" for _, g, h in inst.terms):
            found.append(inst)
    return found


@pytest.mark.parametrize("inst", _smooth_instances(4), ids=lambda i: f"terms{len(i.terms)}")
def test_closed_form_matches_oracle_within_its_estimate(inst):
    rect = pkg.Rect(*inst.rect)
    fn = pkg.catalog.resolve_function(inst.source(), rect)
    oracle = pkg.reference_integral_2d(fn, rect, 1024)
    roundoff = 1e-12 * inst.scale()
    assert abs(oracle.value - inst.exact()) <= 2.0 * oracle.error_estimate + roundoff


@pytest.mark.parametrize("atom", [family.Atom("sq"), family.Atom("exp", -1.3),
                                  family.Atom("lin", 0.7, 0.4), family.Atom("abs", 0.25),
                                  family.Atom("abs", -2.0), family.Atom("abs", 3.0)])
def test_atom_integrals_match_oracle_1d(atom):
    iv = pkg.Interval(-0.5, 1.5)
    oracle = pkg.reference_integral_1d(lambda t: np.vectorize(atom.at)(t), iv, 1024)
    # the kink of abs(t - 0.25) sits between grid nodes, so allow Simpson's O(h^2)
    tol = 1e-6 if atom.kind == "abs" else 2.0 * oracle.error_estimate + 1e-13
    assert abs(oracle.value - atom.integral(iv.lo, iv.hi)) <= tol


def test_constant_and_scalar_instances():
    rng = np.random.default_rng(5)
    value, rect = family.draw_constant(rng)
    const = family.Instance(rect, value, 0.0, 0.0, ())
    assert math.isclose(const.exact(), value * (rect[1] - rect[0]) * (rect[3] - rect[2]))
    inst = family.draw_scalar_instance(rng)
    with pytest.raises(TypeError):
        inst.scalar_eval(np.zeros(3), np.zeros(3))
    oracle = pkg.reference_integral_2d(pkg.Fn2D(eval=inst.scalar_eval), pkg.Rect(*inst.rect), 64)
    assert abs(oracle.value - inst.exact()) <= 2.0 * oracle.error_estimate + 1e-12 * inst.scale()


def test_expression_source_round_trips():
    inst = family.draw_instance(np.random.default_rng(9), big="exp")
    ast = pkg.parse(inst.source())
    x, y = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 7)
    want = np.array([inst.scalar_eval(float(a), float(b)) for a, b in zip(x, y)])
    assert np.allclose(pkg.eval_ast(ast, x, y), want, rtol=1e-13)


def _stub(kind, result):
    inst = family.Instance((0.0, 1.0, 0.0, 1.0), 1.0, 0.0, 0.0,
                           ((1.0, family.Atom("sq"), family.Atom("sq")),))
    exact, scale = inst.exact(), inst.scale()
    if kind == "bounds":
        check = workloads.check_bounds(exact, scale)
    else:
        check = workloads.check_solve(exact, scale)
    return workloads.Op(kind, 0, "stub", lambda: result, check), exact


def test_wrong_lower_bound_counts_as_failed():
    good, exact = _stub("bounds", None)
    payload = {"lower": exact - 0.01, "upper": exact + 0.01, "oracle": exact,
               "oracle_error": 1e-12}
    good.call = lambda: workloads.CliResult(0, json.dumps(payload), "")
    bad, _ = _stub("bounds", workloads.CliResult(
        0, json.dumps({**payload, "lower": exact + 1e-6}), ""))
    solve_bad, _ = _stub("solve", ("solved", [(1, exact + 1e-6, exact + 1.0)]))
    gate_exit = workloads.CliResult(3, "", "convexity gate: rejected")
    failed, _ = _stub("bounds", gate_exit)
    refused, _ = _stub("bounds", gate_exit)
    refused.check = workloads.refusable(refused.check)  # as for a large-magnitude input

    def rounds():
        while True:
            yield [good, bad, solve_bad, failed, refused]

    probe = SteadyProbe()
    records = run.run_ops(rounds(), probe, seconds=0.0)
    verdicts = run.judge(records, workloads)
    assert [v.status for v in verdicts] == ["ok", "wrong", "wrong", "failed", "refused"]
    metrics, extra = run.end_to_end(records, verdicts, [1.0], probe)
    assert extra["fail_ratio"][0] == 0.8  # a refusal adds nothing to goodput either
    busy = sum(r.seconds for r in records)
    assert metrics["ops_per_s"][0] == pytest.approx(1.0 / busy)
    assert extra["speed_factor"][0] == 1.0
    assert metrics["op_p50_ms"][0] is None  # the median rank falls on a failure


class SteadyProbe(speed.Probe):
    """A probe that always reads the reference time."""

    def __call__(self):
        self.history.append((time.perf_counter(), speed.REFERENCE_S))
        return speed.REFERENCE_S


def test_speed_factors_use_probes_around_each_op():
    probe = speed.Probe()
    probe.history = [(0.0, 2.0), (0.1, 1.0), (0.2, 1.0), (10.0, 3.0), (20.0, 5.0)]
    ref = speed.REFERENCE_S
    # every probe within MARGIN_S of an op counts, and no other
    assert probe.factors([(0.1, 0.2), (10.0, 20.0)]) == pytest.approx([ref * 0.75, ref / 4.0])


def test_failures_rank_above_successes():
    lat = [5.0, 1.0, 2.0, 3.0, 100.0]
    failed = [True, False, False, False, False]
    assert run.median_ranked(lat, failed, 0.5) == 3.0
    assert run.median_ranked(lat, failed, 0.9) is None


def test_tracer_restores_package_and_keeps_output():
    ops = next(workloads.rounds("cli-expr", pkg, 4))[:3]
    before = [workloads.output_bytes(op.call()) for op in ops]
    originals = (pkg.rect.midpoint_lower, pkg.cli.main, pkg.catalog.eval_ast)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pkg.rect.midpoint_lower is not originals[0]
        after = []
        for i, op in enumerate(ops):
            with tracer.op(i, op.kind):
                after.append(workloads.output_bytes(op.call()))
    finally:
        tracer.uninstall()
    assert (pkg.rect.midpoint_lower, pkg.cli.main, pkg.catalog.eval_ast) == originals
    assert after == before
    layers = tracing.layer_metrics(tracer.spans, {i: op.kind for i, op in enumerate(ops)})
    assert layers["convexity.points_per_call"] == 60_000
    assert layers["eval.points"] > 0 and layers["cli.self_s"] > 0
