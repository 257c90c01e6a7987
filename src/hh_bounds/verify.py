"""Property-verification suite over randomly generated coordinate-convex
instances.

Each case draws a rectangle and a random coordinate-convex function, gates it
through the convexity check, then exercises every inequality the package
implements against the independent Simpson oracle. The generated function
carries its expression tree, from which the gate proves every case without
sampling. Margins are normalized so that "margin >= -tol" always means the
property held; the most negative margin per property is reported as its
worst slack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .convexity import ConvexityRejection, check_coordinate_convexity, random_coordinate_convex
from .errors import DomainError
from .oracle import DEFAULT_GRID, reference_integral_2d
from .rect import (Fn2D, PointPlan, Rect, declare_boundary_bound, declare_centerline_bound,
                   declare_classic_terms, declare_enclosure, declare_five_term_chains,
                   declare_positive_upper)
from .schemes import NestedDiscrete

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

#: The fixed suite: every case is enclosed at each (n, m) of N_VALUES x
#: M_VALUES, which includes the (1, 1) enclosure the equality count reads,
#: and resolves its line bounds and chains with SCHEME.
N_VALUES = (1, 2, 4)
M_VALUES = (1, 2)
SCHEME = NestedDiscrete()


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


def case_instance(seed: int, index: int) -> tuple[Rect, Fn2D, str]:
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
    return rect, random_coordinate_convex(fn_seed, rect, atoms), context


def _oracle_tol(gap: float) -> float:
    """The oracle error estimate that still lets an enclosure of ``gap`` be checked."""
    return 1e-3 * gap + 1e-12


@functools.cache
def _case_plan(positive: bool) -> tuple:
    """The plan of every bound of a case whose function is ``positive`` or
    not, with the finishing functions of its bounds: built once, as it
    depends on nothing else. A generated function is flagged positive from
    its spot grid, which is what :func:`declare_positive_upper` needs."""
    plan = PointPlan()
    declared = {(n, m): declare_enclosure(plan, n, m) for n in N_VALUES for m in M_VALUES}
    line_bounds = [(n, declare_centerline_bound(plan, n, SCHEME),
                    declare_boundary_bound(plan, n, SCHEME),
                    declare_positive_upper(plan, n, SCHEME) if positive else None)
                   for n in N_VALUES]
    return (plan, declared, line_bounds, declare_five_term_chains(plan, SCHEME),
            declare_classic_terms(plan, SCHEME))


def run_verification(cases: int, seed: int) -> VerifySummary:
    """Run the whole property suite on ``cases`` random instances.

    Deterministic given ``seed``: cases run in order and each case's results
    depend only on ``seed`` and its index. Each case is gated, by a proof
    from its expression tree (or, for a tree the proof does not cover, with
    the gate's default samples and tolerance), enclosed at every (n, m) of
    ``N_VALUES`` x ``M_VALUES``, and checked against an oracle refined at
    most to ``DEFAULT_GRID``. The points of all of a case's bounds are
    evaluated together, before its oracle, on the plan of its positivity
    flag. A case the gate rejects stops the run with a
    :class:`ConvexityRejection` naming the case.
    """
    if cases < 1:
        raise DomainError(f"cases must be >= 1, got {cases}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")

    summary = VerifySummary(cases=cases, seed=seed,
                            properties=[PropertyStat(name) for name in PROPERTY_NAMES])
    stat = {p.name: p for p in summary.properties}
    for index in range(cases):
        rect, f, context = case_instance(seed, index)
        gate = check_coordinate_convexity(f, rect, seed=seed * 1_000_003 + index + 1)
        if not gate.passed:
            raise ConvexityRejection(gate, context)

        # every bound's lines and points, evaluated together before the
        # oracle, whose target the enclosure gaps set
        plan, declared, line_bounds, chains, classic_terms = _case_plan(f.positive)
        values = plan.resolve(f, rect)

        enclosures = {key: finish(values) for key, finish in declared.items()}
        # refine the oracle only as far as the tightest enclosure check needs
        target = _oracle_tol(min(bp.gap for bp in enclosures.values()))
        oracle = reference_integral_2d(f, rect, DEFAULT_GRID, target)
        integral = oracle.value
        scale = max(1.0, abs(integral))

        for (n, m), bp in enclosures.items():
            if oracle.error_estimate > _oracle_tol(bp.gap):
                summary.skipped_oracle_checks += 1
            else:
                margin = min(integral - bp.lower, bp.upper - integral) / scale
                stat["enclosure_soundness"].record(margin, REL_TOL, f"{context} n={n} m={m}")

        for n, centerline, boundary, positive in line_bounds:
            lhs, rhs = centerline(values)
            stat["centerline_inequality"].record((rhs - lhs) / max(1.0, abs(rhs)), REL_TOL,
                                                 f"{context} n={n}")
            lhs, rhs = boundary(values)
            stat["boundary_inequality"].record((rhs - lhs) / max(1.0, abs(rhs)), REL_TOL,
                                               f"{context} n={n}")
            if positive is not None:
                bound = positive(values)
                stat["positive_upper_bound"].record((bound - integral) / max(1.0, abs(bound)),
                                                    REL_TOL, f"{context} n={n}")

        classic, refined = chains(values, integral)
        assembled = classic_terms(values, integral)
        for (name, cv), av in zip(classic.terms, assembled):
            margin = -abs(av - cv) / max(1.0, abs(av), abs(cv))
            stat["chain_recapture"].record(margin, EQ_TOL, f"{context} term={name}")

        for idx in (3, 4):
            cv = classic.terms[idx][1]
            rv = refined.terms[idx][1]
            stat["refined_tightens"].record((cv - rv) / max(1.0, abs(cv)), EQ_TOL,
                                            f"{context} term_index={idx}")

        summary.equality_cases += int(enclosures[1, 1].gap <= EQ_TOL * scale)
    return summary
