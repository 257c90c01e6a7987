import dataclasses

import numpy as np
import pytest

import hh_bounds.verify
from hh_bounds import DomainError, Fn2D, run_verification
from hh_bounds.convexity import GATE_SAMPLES
from hh_bounds.rect import declare_enclosure

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

        def counted():
            finished.append((n, m))
            return finish()
        return counted

    monkeypatch.setattr(hh_bounds.verify, "declare_enclosure", counting)
    run_verification(3, 7)
    # the equality check reuses the (1, 1) enclosure instead of a seventh
    expected = [(n, m) for _ in range(3) for n in (1, 2, 4) for m in (1, 2)]
    assert calls == expected
    assert finished == expected


def _counted_cases(monkeypatch, cases, seed, measure, uncounted):
    """(positive, sum of ``measure(x, y)`` over f's calls) per case of
    ``run_verification(cases, seed)``, leaving out the calls made inside
    the ``verify`` functions named in ``uncounted``."""
    per_case = []
    counting = [True]
    make = hh_bounds.verify.random_coordinate_convex

    def counted_instance(*args):
        f = make(*args)
        per_case.append([f.positive, 0])

        def ev(x, y):
            if counting[0]:
                per_case[-1][1] += measure(x, y)
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
    per_case = _counted_cases(monkeypatch, 20, 1, lambda x, y: 1,
                              ["check_coordinate_convexity"])
    # every bound's points in one plan, then the oracle's levels
    assert len(per_case) == 20
    assert max(calls for _, calls in per_case) <= 10


def test_case_plan_evaluates_each_distinct_request_once(monkeypatch):
    # Points of a case's plan, bound by bound (m = 16 for the line bounds):
    # enclosures, 2n lines of mn midpoints and 2n+2 of mn+1 nodes at each
    # (n, m): 334; centre-line bounds, 34n at n = 1, 2, 4: 238; boundary
    # bounds, 68n+4: 488; the chains' nine points and lines, less the lower
    # centre lines the n=1 centre-line bound already declared: 143-32; the
    # classic terms, n=1 bounds declared before: 0. A positive f adds the
    # spot grid once, 33^2, and positive_upper's node lines at n = 2, 4,
    # 2(n+1)(16n+1); its n=1 lines are the n=1 boundary lines: 1,937.
    plain = 334 + 238 + 488 + 111
    positive = plain + 33 * 33 + 198 + 650
    per_case = _counted_cases(monkeypatch, 12, 1, lambda x, y: np.broadcast(x, y).size,
                              ["check_coordinate_convexity", "reference_integral_2d"])
    assert {flag for flag, _ in per_case} == {False, True}
    assert per_case == [(flag, positive if flag else plain) for flag, _ in per_case]


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
    # 53 of the first 60 cases of seed 1 are proved (337 of 400); the rest
    # are sampled
    seen = _gate_samples(monkeypatch, 60, 1)
    assert set(seen) == {0, 2 * GATE_SAMPLES}
    assert seen.count(0) == 53


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
