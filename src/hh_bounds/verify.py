"""Property-verification suite over randomly generated coordinate-convex
instances.

Each case draws a rectangle and a random coordinate-convex function, gates it
through the sampling convexity check, then exercises every inequality the
package implements against the independent Simpson oracle. Margins are
normalized so that "margin >= -tol" always means the property held; the most
negative margin per property is reported as its worst slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexity import ConvexityRejection, check_coordinate_convexity, random_coordinate_convex
from .errors import DomainError
from .oracle import reference_integral_2d
from .rect import (Fn2D, Rect, assemble_classic_terms, boundary_bound, centerline_bound,
                   discrete_enclosure, five_term_chains, positive_upper)
from .schemes import InnerScheme, NestedDiscrete

PROPERTY_NAMES = (
    "enclosure_soundness",
    "centerline_inequality",
    "boundary_inequality",
    "positive_upper_bound",
    "chain_recapture",
    "refined_tightens",
)

REL_TOL = 1e-9
EQ_TOL = 1e-12


@dataclass
class PropertyStat:
    name: str
    checked: int = 0
    violations: int = 0
    worst_slack: float = math.inf
    first_failure: str | None = None

    def record(self, margin: float, tol: float, context: str) -> None:
        self.checked += 1
        if margin < self.worst_slack:
            self.worst_slack = margin
        if margin < -tol:
            self.violations += 1
            if self.first_failure is None:
                self.first_failure = context


@dataclass
class VerifySummary:
    cases: int
    seed: int
    properties: list[PropertyStat]
    equality_cases: int = 0
    skipped_oracle_checks: int = 0

    @property
    def all_pass(self) -> bool:
        return all(p.violations == 0 for p in self.properties)


def case_instance(seed: int, index: int, inject_concave: bool = False
                  ) -> tuple[Rect, Fn2D, str]:
    """Deterministically draw the rectangle and function for one case."""
    case_seed = seed * 1_000_003 + index
    rng = np.random.default_rng(case_seed)
    a = float(rng.uniform(-1.5, 0.5))
    b = a + float(rng.uniform(0.6, 2.2))
    c = float(rng.uniform(-1.5, 0.5))
    d = c + float(rng.uniform(0.6, 2.2))
    rect = Rect(a, b, c, d)
    atoms = int(rng.integers(1, 5))
    fn_seed = case_seed + 500_009
    context = (f"case={index} fn_seed={fn_seed} "
               f"rect=({a!r},{b!r},{c!r},{d!r}) atoms={atoms}")
    if inject_concave:
        cx, cy = rect.center
        fn = Fn2D(eval=lambda x, y: -((x - cx) ** 2) + (y - cy) ** 2)
        return rect, fn, context + " injected-concave"
    return rect, random_coordinate_convex(fn_seed, rect, atoms), context


def _oracle_tol(gap: float) -> float:
    """The oracle error estimate that still lets an enclosure of ``gap`` be checked."""
    return 1e-3 * gap + 1e-12


def _run_case(index: int, seed: int, n_values, m_values, scheme: InnerScheme,
              oracle_grid: int, gate_samples: int, gate_tol: float,
              inject_concave: bool, summary: VerifySummary) -> None:
    """Run one case, recording its margins, skips and equality into ``summary``."""
    rect, f, context = case_instance(seed, index, inject_concave and index == 0)

    gate = check_coordinate_convexity(f, rect, gate_samples, gate_tol,
                                      seed=seed * 1_000_003 + index + 1)
    if not gate.passed:
        raise ConvexityRejection(gate, context)

    stat = {p.name: p for p in summary.properties}
    enclosures = [(n, m, discrete_enclosure(f, rect, n, m))
                  for n in n_values for m in m_values]
    # refine the oracle only as far as the tightest enclosure check needs
    target = _oracle_tol(min(bp.gap for _, _, bp in enclosures))
    oracle = reference_integral_2d(f, rect, oracle_grid, target)
    integral = oracle.value
    scale = max(1.0, abs(integral))

    for n, m, bp in enclosures:
        if oracle.error_estimate > _oracle_tol(bp.gap):
            summary.skipped_oracle_checks += 1
        else:
            margin = min(integral - bp.lower, bp.upper - integral) / scale
            stat["enclosure_soundness"].record(margin, REL_TOL, f"{context} n={n} m={m}")

    for n in n_values:
        lhs, rhs = centerline_bound(f, rect, n, scheme)
        stat["centerline_inequality"].record((rhs - lhs) / max(1.0, abs(rhs)), REL_TOL,
                                             f"{context} n={n}")
        lhs, rhs = boundary_bound(f, rect, n, scheme)
        stat["boundary_inequality"].record((rhs - lhs) / max(1.0, abs(rhs)), REL_TOL,
                                           f"{context} n={n}")
        if f.positive:
            bound = positive_upper(f, rect, n, scheme)
            stat["positive_upper_bound"].record((bound - integral) / max(1.0, abs(bound)),
                                                REL_TOL, f"{context} n={n}")

    classic, refined = five_term_chains(f, rect, scheme, oracle_grid, integral=integral)
    assembled = assemble_classic_terms(f, rect, scheme, oracle_grid, integral=integral)
    for (name, cv), av in zip(classic.terms, assembled):
        margin = -abs(av - cv) / max(1.0, abs(av), abs(cv))
        stat["chain_recapture"].record(margin, EQ_TOL, f"{context} term={name}")

    for idx in (3, 4):
        cv = classic.terms[idx][1]
        rv = refined.terms[idx][1]
        stat["refined_tightens"].record((cv - rv) / max(1.0, abs(cv)), EQ_TOL,
                                        f"{context} term_index={idx}")

    bp1 = next((bp for n, m, bp in enclosures if n == m == 1), None)
    if bp1 is None:
        bp1 = discrete_enclosure(f, rect, 1, 1)
    summary.equality_cases += int(bp1.gap <= EQ_TOL * scale)


def run_verification(cases: int, seed: int, *, n_values=(1, 2, 4), m_values=(1, 2),
                     scheme: InnerScheme = NestedDiscrete(16), oracle_grid: int = 1024,
                     gate_samples: int = 10_000, gate_tol: float = 1e-10,
                     inject_concave: bool = False) -> VerifySummary:
    """Run the whole property suite on ``cases`` random instances.

    Deterministic given ``seed``: cases run in order and each case's results
    depend only on ``seed`` and its index. ``oracle_grid`` is the finest level
    the oracle may refine to.
    """
    if cases < 1:
        raise DomainError(f"cases must be >= 1, got {cases}")

    summary = VerifySummary(cases=cases, seed=seed,
                            properties=[PropertyStat(name) for name in PROPERTY_NAMES])
    for i in range(cases):
        _run_case(i, seed, n_values, m_values, scheme, oracle_grid,
                  gate_samples, gate_tol, inject_concave, summary)
    return summary
