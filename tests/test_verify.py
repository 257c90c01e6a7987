import dataclasses
import functools

import numpy as np
import pytest

import hh_bounds.verify
from hh_bounds import DomainError, Fn2D, run_verification
from hh_bounds.convexity import GATE_SAMPLES
from hh_bounds.rect import declare_enclosure
from hh_bounds.verify import M_VALUES, N_VALUES, case_instance

from conftest import assert_each_point_once, lattice_grid, lattice_side

#: run_verification(40, 7) as computed with the explicit 1024-grid oracle:
#: (checked, violations) per property.
PINNED_COUNTS = {
    "enclosure_soundness": (240, 0),
    "centerline_inequality": (120, 0),
    "boundary_inequality": (120, 0),
    "positive_upper_bound": (108, 0),
    "chain_recapture": (200, 0),
    "refined_tightens": (80, 0),
}


def test_counts_pinned_to_explicit_grid_oracle():
    summary = run_verification(40, 7)
    assert summary.all_pass is True
    assert summary.equality_cases == 1
    assert summary.skipped_oracle_checks == 0
    assert {p.name: (p.checked, p.violations) for p in summary.properties} == PINNED_COUNTS


def test_six_enclosures_per_case(monkeypatch):
    calls = []
    finished = []

    def counting(plan, n, m):
        calls.append((n, m))
        finish = declare_enclosure(plan, n, m)

        def counted(values):
            finished.append((n, m))
            return finish(values)
        return counted

    monkeypatch.setattr(hh_bounds.verify, "declare_enclosure", counting)
    # a plan of its own for each positivity flag, not the one kept from earlier runs
    plans = functools.cache(hh_bounds.verify._case_plan.__wrapped__)
    monkeypatch.setattr(hh_bounds.verify, "_case_plan", plans)
    run_verification(3, 7)
    # the equality check reuses the (1, 1) enclosure instead of a seventh
    expected = [(n, m) for n in (1, 2, 4) for m in (1, 2)]
    assert finished == expected * 3
    # declared once per plan, not per case
    assert calls == expected * plans.cache_info().currsize


def _counted_cases(monkeypatch, cases, seed, uncounted):
    """(positive, the broadcast points of each of f's calls) per case of
    ``run_verification(cases, seed)``, leaving out the calls made inside
    the ``verify`` functions named in ``uncounted``."""
    per_case = []
    counting = [True]
    make = hh_bounds.verify.random_coordinate_convex

    def counted_instance(*args):
        f = make(*args)
        per_case.append([f.positive, []])

        def ev(x, y):
            if counting[0]:
                per_case[-1][1].append(np.broadcast_arrays(x, y))
            return f.eval(x, y)
        return Fn2D(eval=ev, positive=f.positive)

    def quiet(call):
        def run(*args, **kwargs):
            counting[0] = False
            try:
                return call(*args, **kwargs)
            finally:
                counting[0] = True
        return run

    monkeypatch.setattr(hh_bounds.verify, "random_coordinate_convex", counted_instance)
    for name in uncounted:
        monkeypatch.setattr(hh_bounds.verify, name, quiet(getattr(hh_bounds.verify, name)))
    run_verification(cases, seed)
    return [tuple(case) for case in per_case]


def test_case_calls_f_at_most_ten_times_outside_the_gate(monkeypatch):
    per_case = _counted_cases(monkeypatch, 20, 1, ["check_coordinate_convexity"])
    # every bound's points in one plan, then the oracle's levels
    assert len(per_case) == 20
    assert max(len(calls) for _, calls in per_case) <= 10


def _declared_points(r, positive: bool) -> set:
    """The points the bounds of a ``verify`` case on ``r`` declare, by how
    they are built, enumerated from the partitions themselves (see
    conftest's ``lattice_grid``)."""
    def side(s, count):
        return lattice_side(r.x_interval if s == "x" else r.y_interval, count)

    grid = lattice_grid
    m = hh_bounds.verify.SCHEME.m
    (ab, cx), (cd, cy) = side("x", 1), side("y", 1)
    out = set()
    for n in N_VALUES:
        (xn, xm), (yn, ym) = side("x", n), side("y", n)
        for k in [mm * n for mm in M_VALUES] + [m * n]:
            (xkn, xkm), (ykn, ykm) = side("x", k), side("y", k)
            if k != m * n:  # an enclosure's lines
                out |= grid(xkm, ym) | grid(xm, ykm) | grid(xkn, yn) | grid(xn, ykn)
                continue
            # the centre-line, boundary and positive bounds at n
            out |= grid(cx, ym) | grid(xm, cy) | grid(cx, ykm) | grid(xkm, cy)
            out |= grid(ab, ykn) | grid(xkn, cd) | grid(ab, yn)
            out |= grid(xn[1:-1], cd)
            if positive:
                out |= grid(xn, ykn) | grid(xkn, yn)
    (xn, xm), (yn, ym) = side("x", m), side("y", m)
    return (out | grid(ab + cx, cd + cy) | grid(xm, cy) | grid(cx, ym)
            | grid(xn, cd + cy) | grid(ab + cx, yn))


def test_case_plan_evaluates_each_distinct_point_once(monkeypatch):
    # one call per case outside the gate and the oracle, at the points the
    # case's bounds declare, each point by how it is built once
    calls = _counted_cases(monkeypatch, 50, 1,
                           ["check_coordinate_convexity", "reference_integral_2d"])
    assert {flag for flag, _ in calls} == {False, True}
    for index, (positive, [(xs, ys)]) in enumerate(calls):
        r, _, _ = case_instance(1, index)
        seen = list(zip(map(float.hex, xs.ravel().tolist()), map(float.hex, ys.ravel().tolist())))
        assert_each_point_once(seen, _declared_points(r, positive), index)


def _gate_samples(monkeypatch, cases, seed):
    """The ``samples`` of every gate report of ``run_verification(cases, seed)``."""
    seen = []
    check = hh_bounds.verify.check_coordinate_convexity

    def recorded(*args, **kwargs):
        rep = check(*args, **kwargs)
        seen.append(rep.samples)
        return rep

    monkeypatch.setattr(hh_bounds.verify, "check_coordinate_convexity", recorded)
    run_verification(cases, seed)
    return seen


def test_gate_proves_most_cases_from_the_tree(monkeypatch):
    # every case is proved: a lifted linear atom is nonnegative in exact
    # rationals, so none is sampled
    seen = _gate_samples(monkeypatch, 60, 1)
    assert seen == [0] * 60


def test_cases_without_a_tree_are_sampled(monkeypatch):
    make = hh_bounds.verify.random_coordinate_convex
    monkeypatch.setattr(hh_bounds.verify, "random_coordinate_convex",
                        lambda *args: dataclasses.replace(make(*args), expr=None))
    assert _gate_samples(monkeypatch, 10, 1) == [2 * GATE_SAMPLES] * 10


@pytest.mark.parametrize("cases, seed, message", [(0, 1, "cases must be >= 1, got 0"),
                                                  (1, -1, "seed must be >= 0, got -1")])
def test_bad_parameters_fail_before_any_case(cases, seed, message, monkeypatch):
    monkeypatch.setattr(hh_bounds.verify, "case_instance", None)  # no case is drawn
    with pytest.raises(DomainError, match=message):
        run_verification(cases, seed)


def test_too_coarse_oracle_skips_every_enclosure_check(monkeypatch):
    # the same oracle values with an estimate that no enclosure gap allows
    want = run_verification(3, 7)
    real = hh_bounds.verify.reference_integral_2d
    monkeypatch.setattr(hh_bounds.verify, "reference_integral_2d",
                        lambda *args: dataclasses.replace(real(*args), error_estimate=1e300))
    got = run_verification(3, 7)
    assert got.skipped_oracle_checks == 18
    assert got.properties[0] == hh_bounds.verify.PropertyStat("enclosure_soundness")
    assert got.properties[1:] == want.properties[1:]
    assert got.all_pass and got.equality_cases == want.equality_cases
