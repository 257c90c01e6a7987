import hh_bounds.verify
from hh_bounds import Fn2D, run_verification
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


def test_case_calls_f_at_most_ten_times_outside_the_gate(monkeypatch):
    per_case = []
    counting = [True]
    make = hh_bounds.verify.random_coordinate_convex
    gate = hh_bounds.verify.check_coordinate_convexity

    def counted_instance(*args):
        f = make(*args)
        per_case.append(0)

        def ev(x, y):
            per_case[-1] += counting[0]
            return f.eval(x, y)
        return Fn2D(eval=ev, positive=f.positive)

    def uncounted_gate(*args, **kwargs):
        counting[0] = False
        try:
            return gate(*args, **kwargs)
        finally:
            counting[0] = True

    monkeypatch.setattr(hh_bounds.verify, "random_coordinate_convex", counted_instance)
    monkeypatch.setattr(hh_bounds.verify, "check_coordinate_convexity", uncounted_gate)
    run_verification(20, 1)
    # every bound's points in one plan, then the oracle's levels
    assert len(per_case) == 20
    assert max(per_case) <= 10
