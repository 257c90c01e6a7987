from hh_bounds import run_verification

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
