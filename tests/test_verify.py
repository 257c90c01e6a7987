import hh_bounds.verify
from hh_bounds import discrete_enclosure, run_verification

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

    def counting(*args):
        calls.append(args[2:])
        return discrete_enclosure(*args)

    monkeypatch.setattr(hh_bounds.verify, "discrete_enclosure", counting)
    run_verification(3, 7)
    # the equality check reuses the (1, 1) enclosure instead of a seventh
    assert calls == [(n, m) for _ in range(3) for n in (1, 2, 4) for m in (1, 2)]
