import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hh_bounds import (DomainError, EvaluationError, Fn2D, NestedDiscrete,
                       PreconditionError, Quadrature, Rect, assemble_classic_terms,
                       boundary_bound, centerline_bound, classic_chain,
                       discrete_enclosure, five_term_chains, machine_tol,
                       partition_chain, positive_upper, refined_chain)
from hh_bounds.convexity import random_coordinate_convex
from hh_bounds.oracle import reference_integral_2d
import hh_bounds.rect
from hh_bounds import Partition1D
from hh_bounds.bounds1d import MAX_POINTS, Lattice
from hh_bounds.rect import (BLOCK_POINTS, PointPlan, chain_report, declare_boundary_bound,
                            declare_centerline_bound, declare_enclosure,
                            declare_five_term_chains, declare_positive_upper, enclosure_points)
from hh_bounds.schemes import adaptive_simpson, simpson_lines
from hh_bounds.verify import case_instance

from conftest import assert_each_point_once, counting_fn2d, lattice_grid, lattice_side

UNIT2 = Rect(0.0, 1.0, 0.0, 1.0)
XY = Fn2D(eval=lambda x, y: x * y)
SUMSQ = Fn2D(eval=lambda x, y: x * x + y * y)
EXACT_Q = Quadrature(1e-12)


def _bits(x, y) -> list[tuple[str, str]]:
    """The points of a call, as the bits of their coordinates."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return list(zip(map(float.hex, x.ravel().tolist()), map(float.hex, y.ravel().tolist())))


def _grid(xs, ys) -> set[tuple[str, str]]:
    return set(_bits(np.asarray(xs, dtype=float)[:, None], np.asarray(ys, dtype=float)[None, :]))


def _side(r: Rect, side: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and midpoints of ``side`` of ``r`` cut into ``count`` cells."""
    part = Partition1D(r.x_interval if side == "x" else r.y_interval, count)
    return part.nodes(), part.midpoints()


def _built(r: Rect, side: str, count: int) -> tuple[list, list]:
    """Nodes and midpoints of ``side`` of ``r`` cut into ``count`` cells, by
    how they are built (see conftest's ``lattice_side``)."""
    return lattice_side(r.x_interval if side == "x" else r.y_interval, count)


def _enclosure_built(r: Rect, n: int, m: int) -> set:
    """The points the lines of an (n, m) enclosure declare, by how they are built."""
    (xn, xm), (yn, ym) = _built(r, "x", n), _built(r, "y", n)
    (xfn, xfm), (yfn, yfm) = _built(r, "x", m * n), _built(r, "y", m * n)
    return (lattice_grid(xfm, ym) | lattice_grid(xm, yfm) | lattice_grid(xfn, yn)
            | lattice_grid(xn, yfn))


def _enclosure_points(r: Rect, n: int, m: int) -> set[tuple[str, str]]:
    """The points the lines of an (n, m) enclosure declare."""
    (xn, xm), (yn, ym) = _side(r, "x", n), _side(r, "y", n)
    (xfn, xfm), (yfn, yfm) = _side(r, "x", m * n), _side(r, "y", m * n)
    return _grid(xfm, ym) | _grid(xm, yfm) | _grid(xfn, yn) | _grid(xn, yfn)


class TestRect:
    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            Rect(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            Rect(0.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            Rect(0.0, math.nan, 0.0, 1.0)

    def test_rejects_non_finite_width_and_area(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="width"):
                Rect(-1e308, 1e308, 0.0, 1.0)
            with pytest.raises(DomainError, match="width"):
                Rect(0.0, 1.0, -1e308, 1e308)
            with pytest.raises(DomainError, match="area"):
                Rect(0.0, 1e200, 0.0, 1e200)

    def test_geometry(self):
        r = Rect(-1.0, 3.0, 0.0, 2.0)
        assert r.area == pytest.approx(8.0)
        assert r.center == (1.0, 1.0)


class TestChainReport:
    def test_orderings_cover_adjacent_pairs(self):
        rep = chain_report([("a", 1.0), ("b", 2.0), ("c", 1.5)])
        assert [(o.i, o.j) for o in rep.orderings] == [(0, 1), (1, 2)]
        assert rep.orderings[0].satisfied and rep.orderings[0].slack == 1.0
        assert not rep.orderings[1].satisfied and rep.orderings[1].slack == -0.5

    def test_default_tolerance_scales_with_terms(self):
        rep = chain_report([("a", 0.0), ("b", 2e4)])
        assert rep.tolerance == pytest.approx(2e-5)


@pytest.mark.parametrize("call", [
    lambda: partition_chain(SUMSQ, UNIT2, 1, NestedDiscrete(), 1024),
    lambda: five_term_chains(SUMSQ, UNIT2, NestedDiscrete(), 1024),
    lambda: classic_chain(SUMSQ, UNIT2, NestedDiscrete(), 1024),
    lambda: refined_chain(SUMSQ, UNIT2, NestedDiscrete(), 1024),
    lambda: assemble_classic_terms(SUMSQ, UNIT2, NestedDiscrete(), 1024),
], ids=["partition_chain", "five_term_chains", "classic_chain", "refined_chain",
        "assemble_classic_terms"])
def test_integral_is_keyword_only(call):
    # an argument after the scheme is never read as the integral (or an oracle grid)
    with pytest.raises(TypeError):
        call()


class TestPartitionChain:
    def test_xy_equality_n2(self):
        rep = partition_chain(XY, UNIT2, 2, NestedDiscrete(2))
        for _, v in rep.terms:
            assert abs(v - 0.25) <= 1e-12
        assert rep.all_satisfied
        assert all(abs(o.slack) <= 1e-12 for o in rep.orderings)

    def test_constant(self):
        const = Fn2D(eval=lambda x, y: 1.0 + 0.0 * x + 0.0 * y)
        r = Rect(0.0, 2.0, -1.0, 2.0)
        rep = partition_chain(const, r, 3, NestedDiscrete(4))
        for _, v in rep.terms:
            assert v == pytest.approx(r.area, rel=1e-13)

    def test_sumsq_n1_closed_forms(self):
        rep = partition_chain(SUMSQ, UNIT2, 1, EXACT_Q)
        values = rep.values
        assert values[0] == pytest.approx(7.0 / 12.0, abs=1e-11)
        assert values[1] == pytest.approx(2.0 / 3.0, abs=1e-11)
        assert values[2] == pytest.approx(5.0 / 6.0, abs=1e-11)
        assert rep.all_satisfied


class TestDiscreteEnclosure:
    def test_xy_exact(self):
        bp = discrete_enclosure(XY, UNIT2, 2, 2)
        assert abs(bp.lower - 0.25) <= 1e-12
        assert abs(bp.upper - 0.25) <= 1e-12

    def test_constant(self):
        const5 = Fn2D(eval=lambda x, y: 5.0 + 0.0 * x + 0.0 * y)
        bp = discrete_enclosure(const5, Rect(0.0, 2.0, 0.0, 3.0), 1, 1)
        assert bp.lower == pytest.approx(30.0, rel=1e-13)
        assert bp.upper == pytest.approx(30.0, rel=1e-13)

    def test_sumsq_n1_m1_hand_expanded(self):
        # lower: midpoint in each direction hits the center both times
        f = SUMSQ.eval
        lower_expected = 0.5 * f(0.5, 0.5) + 0.5 * f(0.5, 0.5)
        # upper: single trapezoid on each of the four boundary lines
        upper_expected = 0.25 * (0.5 * (f(0.0, 0.0) + f(1.0, 0.0))
                                 + 0.5 * (f(0.0, 1.0) + f(1.0, 1.0))
                                 + 0.5 * (f(0.0, 0.0) + f(0.0, 1.0))
                                 + 0.5 * (f(1.0, 0.0) + f(1.0, 1.0)))
        bp = discrete_enclosure(SUMSQ, UNIT2, 1, 1)
        assert bp.lower == pytest.approx(lower_expected, abs=1e-14)  # = 0.5
        assert bp.upper == pytest.approx(upper_expected, abs=1e-14)  # = 1.0
        assert bp.lower <= 2.0 / 3.0 <= bp.upper

    def test_reports_actual_eval_count(self):
        seen = []

        def ev(x, y):
            seen.extend(_bits(x, y))
            return x * x + y * y

        n, m = 3, 2
        bp = discrete_enclosure(Fn2D(eval=ev), UNIT2, n, m)
        # evals is the declared count: 2n inner-lower integrals at m*n
        # points, (2n+2) upper at m*n+1 points
        assert bp.evals == 2 * n * (m * n) + (2 * n + 2) * (m * n + 1)
        # the lines share their end points and the nodes of the coarser
        # partition: each distinct point is evaluated once
        assert len(seen) == len(set(seen)) == len(_enclosure_points(UNIT2, n, m)) == 76
        assert set(seen) == _enclosure_points(UNIT2, n, m)

    def test_evaluation_error_location(self):
        f = Fn2D(eval=lambda x, y: 1.0 / (x + y))
        with pytest.raises(EvaluationError) as exc:
            discrete_enclosure(f, UNIT2, 1, 1)
        assert exc.value.where is not None
        assert len(exc.value.where) == 2
        with np.errstate(all="ignore"):
            assert not np.isfinite(f.eval(*np.array(exc.value.where)))

    def test_lines_are_evaluated_in_bounded_blocks(self):
        sizes = []

        def ev(x, y):
            out = x * x + y * y
            sizes.append(out.size)
            return out

        discrete_enclosure(Fn2D(eval=ev), UNIT2, 256, 16)
        assert max(sizes) <= BLOCK_POINTS
        # whole lines of up to 4097 points per block, not one call per line
        assert len(sizes) <= 4 * math.ceil(257 / (BLOCK_POINTS // 4097))

    def test_gap_dyadic_monotonicity(self):
        r = Rect(-0.5, 1.0, 0.0, 1.5)
        for seed in (3, 11, 27):
            f = random_coordinate_convex(seed, r, 3)
            for m in (1, 2):
                g_n = discrete_enclosure(f, r, 2, m).gap
                g_2n = discrete_enclosure(f, r, 4, m).gap
                assert g_2n <= g_n + machine_tol(g_n, g_2n)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_generated_enclosures_are_never_inverted(self):
        # rounding in the two sums inverts 32 of these pairs, in 14 cases, by
        # up to 5.6e-16 of max(1, |upper|); BoundPair lets them through
        inverted = []
        for seed in (1, 2, 3):
            for index in range(400):
                r, f, context = case_instance(seed, index)
                for n in (1, 2, 4):
                    for m in (1, 2):
                        bp = discrete_enclosure(f, r, n, m)
                        if not bp.lower <= bp.upper:
                            inverted.append(f"seed={seed} {context} n={n} m={m}")
        assert inverted == []


class TestCenterlineBound:
    def test_xy_n2_equality(self):
        lhs, rhs = centerline_bound(XY, UNIT2, 2, EXACT_Q)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-11)

    def test_constant(self):
        const = Fn2D(eval=lambda x, y: 2.0 + 0.0 * x + 0.0 * y)
        for n in (1, 3):
            lhs, rhs = centerline_bound(const, Rect(0.0, 2.0, 1.0, 4.0), n, NestedDiscrete(4))
            assert lhs == pytest.approx(2 * n * 2.0, rel=1e-13)
            assert rhs == pytest.approx(2 * n * 2.0, rel=1e-13)

    def test_sumsq_n1(self):
        lhs, rhs = centerline_bound(SUMSQ, UNIT2, 1, EXACT_Q)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(7.0 / 6.0, abs=1e-11)
        assert lhs <= rhs

    def test_nested_mode_holds_for_any_m(self):
        r = Rect(-0.25, 1.25, -0.5, 0.75)
        for seed in (2, 8):
            f = random_coordinate_convex(seed, r, 3)
            for n in (1, 2, 3, 5):
                for m in (1, 2, 3):
                    lhs, rhs = centerline_bound(f, r, n, NestedDiscrete(m))
                    assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


class TestBoundaryBound:
    def test_xy_n1_equality(self):
        lhs, rhs = boundary_bound(XY, UNIT2, 1, EXACT_Q)
        assert lhs == pytest.approx(1.0, abs=1e-11)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        const = Fn2D(eval=lambda x, y: 3.0 + 0.0 * x + 0.0 * y)
        for n in (1, 4):
            lhs, rhs = boundary_bound(const, Rect(0.0, 1.0, 0.0, 2.0), n, NestedDiscrete(4))
            assert lhs == pytest.approx(4 * n * 3.0, rel=1e-13)
            assert rhs == pytest.approx(4 * 3.0 + 4 * (n - 1) * 3.0, rel=1e-13)

    def test_sumsq_n2(self):
        lhs, rhs = boundary_bound(SUMSQ, UNIT2, 2, EXACT_Q)
        assert lhs == pytest.approx(20.0 / 3.0, abs=1e-10)
        assert rhs == pytest.approx(7.0, abs=1e-12)
        assert lhs <= rhs


class TestPositiveUpper:
    def test_xy_n1(self):
        xy_pos = Fn2D(eval=XY.eval, positive=True)
        bound = positive_upper(xy_pos, UNIT2, 1, EXACT_Q)
        assert bound == pytest.approx(0.5, abs=1e-11)
        assert 0.25 <= bound

    def test_constant_slack_bound(self):
        const = Fn2D(eval=lambda x, y: 1.0 + 0.0 * x + 0.0 * y, positive=True)
        bound = positive_upper(const, UNIT2, 1, NestedDiscrete(1))
        assert bound == pytest.approx(2.0, rel=1e-13)

    def test_sumsq_n2_closed_form(self):
        ss = Fn2D(eval=SUMSQ.eval, positive=True)
        bound = positive_upper(ss, UNIT2, 2, EXACT_Q)
        assert bound == pytest.approx(37.0 / 24.0, abs=1e-10)
        assert 2.0 / 3.0 <= bound
        # cross-check against the equivalent weighted form for two cells:
        # (1/8) * int[3 f(x,0) + 2 f(x,1/2) + 3 f(x,1)] dx, plus the symmetric part
        alt = (1 / 8) * (3 * (1 / 3) + 2 * (1 / 3 + 1 / 4) + 3 * (1 / 3 + 1)) * 2
        assert bound == pytest.approx(alt, abs=1e-10)

    def test_requires_flag(self):
        with pytest.raises(PreconditionError):
            positive_upper(SUMSQ, UNIT2, 1, EXACT_Q)

    def test_negative_sample_is_hard_error(self):
        lying = Fn2D(eval=lambda x, y: x + y - 1.0, positive=True)
        with pytest.raises(PreconditionError):
            positive_upper(lying, UNIT2, 1, EXACT_Q)


class TestChains:
    def test_xy_all_quarter(self):
        for chain in (classic_chain, refined_chain):
            rep = chain(XY, UNIT2, NestedDiscrete(16))
            for _, v in rep.terms:
                assert abs(v - 0.25) <= 1e-12
            assert rep.all_satisfied

    def test_constant(self):
        const = Fn2D(eval=lambda x, y: 4.0 + 0.0 * x + 0.0 * y)
        r = Rect(0.0, 2.0, 0.0, 0.5)
        for chain in (classic_chain, refined_chain):
            rep = chain(const, r, NestedDiscrete(4))
            for _, v in rep.terms:
                assert v == pytest.approx(4.0, rel=1e-12)

    def test_sumsq_classic_closed_forms(self):
        rep = classic_chain(SUMSQ, UNIT2, EXACT_Q)
        expected = (0.5, 7.0 / 12.0, 2.0 / 3.0, 5.0 / 6.0, 1.0)
        for (_, v), e in zip(rep.terms, expected):
            assert v == pytest.approx(e, abs=1e-9)
        assert rep.all_satisfied
        assert all(o.slack > 0 for o in rep.orderings)

    def test_sumsq_refined_closed_forms(self):
        rep = refined_chain(SUMSQ, UNIT2, EXACT_Q)
        expected = (0.5, 7.0 / 12.0, 2.0 / 3.0, 17.0 / 24.0, 0.75)
        for (_, v), e in zip(rep.terms, expected):
            assert v == pytest.approx(e, abs=1e-9)
        assert rep.all_satisfied

    @pytest.mark.parametrize("m", [1, 2, 16])
    def test_sumsq_nested_closed_forms(self, m):
        # midpoint and trapezoid values of t^2 on [0, 1] with m subintervals
        # are 1/3 - 1/(12 m^2) and 1/3 + 1/(6 m^2)
        head = (0.5, 7.0 / 12.0 - 1.0 / (12 * m * m), 2.0 / 3.0)
        classic = head + (5.0 / 6.0 + 1.0 / (6 * m * m), 1.0)
        refined = head + (17.0 / 24.0 + 1.0 / (6 * m * m), 0.75)
        scheme = NestedDiscrete(m)
        for values, expected in (
                (classic_chain(SUMSQ, UNIT2, scheme, integral=2.0 / 3.0).values, classic),
                (refined_chain(SUMSQ, UNIT2, scheme, integral=2.0 / 3.0).values, refined),
                (assemble_classic_terms(SUMSQ, UNIT2, scheme, integral=2.0 / 3.0), classic)):
            assert values == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_refined_tightens_classic(self):
        r = Rect(-0.5, 1.5, 0.25, 2.0)
        for seed in (1, 6, 13, 21):
            f = random_coordinate_convex(seed, r, 3)
            scheme = NestedDiscrete(16)
            c = classic_chain(f, r, scheme).values
            f_ = refined_chain(f, r, scheme).values
            assert f_[3] <= c[3] + machine_tol(c[3])
            assert f_[4] <= c[4] + machine_tol(c[4])

    def test_refined_even_inner_count_certified(self):
        r = Rect(0.0, 1.0, 0.0, 1.0)
        f = random_coordinate_convex(4, r, 3)
        for m in (2, 4, 6, 16):
            assert refined_chain(f, r, NestedDiscrete(m)).all_satisfied

    def test_both_chains_from_five_array_calls(self):
        calls = []

        def ev(x, y):
            calls.append(np.broadcast(x, y).shape)
            return np.exp(x - 0.5 * y) + x * x * y * y

        f = Fn2D(eval=ev)
        r = Rect(-0.5, 1.5, 0.25, 2.0)
        scheme = NestedDiscrete(5)
        classic, refined = five_term_chains(f, r, scheme, integral=1.25)
        assert len(calls) <= 5
        assert repr(classic) == repr(classic_chain(f, r, scheme, integral=1.25))
        assert repr(refined) == repr(refined_chain(f, r, scheme, integral=1.25))

    def test_quadrature_error_names_both_coordinates(self):
        f = Fn2D(eval=lambda x, y: np.log(x + y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as exc:
                classic_chain(f, UNIT2, Quadrature(1e-9), integral=0.0)
        assert len(exc.value.where) == 2
        with np.errstate(all="ignore"):
            assert not np.isfinite(f.eval(*np.array(exc.value.where)))


class TestPointPlan:
    def test_each_partition_built_once_per_plan(self, monkeypatch):
        built = []

        def counting(counts):
            built.append(sorted(counts))
            return Lattice(counts)

        monkeypatch.setattr(hh_bounds.rect, "Lattice", counting)
        r = Rect(-0.5, 1.5, 0.25, 2.0)
        f = random_coordinate_convex(6, r, 2)
        plan = PointPlan()
        finish = [declare_enclosure(plan, 2, 2), declare_enclosure(plan, 4, 1)]
        for n in (1, 2, 4):
            finish += [declare_centerline_bound(plan, n, NestedDiscrete(2)),
                       declare_boundary_bound(plan, n, NestedDiscrete(2)),
                       declare_positive_upper(plan, n, NestedDiscrete(2))]
        values = plan.resolve(f, r)
        # cell counts 1, 2, 4 and line counts 2, 4, 8, one lattice per side
        assert built == [[1, 2, 4, 8]] * 2
        assert [g(values) for g in finish[2:5]] == [centerline_bound(f, r, 1, NestedDiscrete(2)),
                                                   boundary_bound(f, r, 1, NestedDiscrete(2)),
                                                   positive_upper(f, r, 1, NestedDiscrete(2))]
        assert finish[0](values) == discrete_enclosure(f, r, 2, 2)
        # the plan depends only on what was declared: another rectangle and
        # function reuse its lattices
        r2 = Rect(0.0, 1.0, -1.0, 0.5)
        f2 = random_coordinate_convex(7, r2, 3)
        built.clear()
        values = plan.resolve(f2, r2)
        assert built == []
        assert finish[1](values) == discrete_enclosure(f2, r2, 4, 1)

    @staticmethod
    def _small_plan_points(r: Rect) -> tuple[list, set]:
        """The points of each call of one resolve on ``r`` of a plan of
        small requests, with the points its bounds declare."""
        calls = []

        def ev(x, y):
            calls.append(_bits(x, y))
            return np.exp(x - y) + x * x

        plan = PointPlan()
        for n, m in ((1, 1), (2, 2), (3, 2), (4, 1)):
            declare_enclosure(plan, n, m)
        declare_boundary_bound(plan, 3, NestedDiscrete(2))
        declare_positive_upper(plan, 2, NestedDiscrete(1))
        declare_five_term_chains(plan, NestedDiscrete(4))
        plan.resolve(Fn2D(eval=ev, positive=True), r)
        (xn1, xm1), (yn1, ym1) = _built(r, "x", 1), _built(r, "y", 1)
        (xn3, _), (yn3, _) = _built(r, "x", 3), _built(r, "y", 3)
        (xn6, _), (yn6, _) = _built(r, "x", 6), _built(r, "y", 6)
        (xn4, xm4), (yn4, ym4) = _built(r, "x", 4), _built(r, "y", 4)
        (xn2, _), (yn2, _) = _built(r, "x", 2), _built(r, "y", 2)
        declared = (
            set().union(*(_enclosure_built(r, n, m) for n, m in ((1, 1), (2, 2), (3, 2), (4, 1))))
            | lattice_grid(xn6, yn1) | lattice_grid(xn1, yn6) | lattice_grid(xn1, yn3)
            | lattice_grid(xn3[1:-1], yn1) | lattice_grid(xn2, yn2)
            | lattice_grid(xm1 + xn1, ym1 + yn1) | lattice_grid(xm4, ym1)
            | lattice_grid(xm1, ym4) | lattice_grid(xn4, yn1 + ym1) | lattice_grid(xn1 + xm1, yn4))
        return calls, declared

    def test_small_plan_evaluates_each_distinct_point_once_in_one_call(self):
        # one call at the declared points, each point by how it is built
        # once: a midpoint and a finer node with the same bits are two points
        calls, declared = self._small_plan_points(Rect(-0.5, 1.5, 0.25, 2.0))
        assert len(calls) == 1
        assert_each_point_once(calls[0], declared)
        assert (len(calls[0]), len(set(calls[0]))) == (148, 132)

    def test_points_built_apart_are_evaluated_apart_where_their_bits_agree(self):
        # on the unit square 0.5 is exact, so many midpoints share their
        # bits with finer nodes, and node 1 of 2 cells with node 3 of 6
        calls, declared = self._small_plan_points(UNIT2)
        assert len(calls) == 1
        assert_each_point_once(calls[0], declared)
        assert len(set(calls[0])) < len(calls[0])

    @pytest.mark.parametrize("bad, where", [
        # the center is declared before the corner (a, d)
        ([(0.5, 0.5), (0.0, 1.0)], (0.0, 1.0)),
        # the edge midpoint (0.5, d) is declared before (a, 0.5)
        ([(0.5, 1.0), (0.0, 0.5)], (0.0, 0.5)),
    ])
    def test_flat_call_fails_at_the_first_failing_point_by_its_nodes(self, bad, where):
        # the points of the flat call are ordered by their nodes (x lo, x hi,
        # y lo, y hi), not by declaration, and a failure is the first failing
        # point in that order
        def ev(x, y):
            x, y = np.broadcast_arrays(x, y)
            out = np.exp(x - y) + x * y
            for bx, by in bad:
                out = np.where((x == bx) & (y == by), np.nan, out)
            return out

        with pytest.raises(EvaluationError, match="non-finite value") as exc:
            five_term_chains(Fn2D(eval=ev), UNIT2, integral=0.25)
        assert exc.value.where == where

    def test_request_above_the_threshold_is_evaluated_in_row_blocks(self, monkeypatch):
        # at n=2048 the lines and the sides, 2 x 2049 points each, are
        # requests of at least PACK_POINTS, each evaluated as broadcast row
        # blocks after the flat call that holds the caps, 2 x 2047 points
        shapes = []

        def ev(x, y):
            shapes.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
            return np.exp(x - y) + x * x

        f, r = Fn2D(eval=ev), Rect(-0.5, 1.5, 0.25, 2.0)
        blocks = boundary_bound(f, r, 2048, NestedDiscrete(1))
        assert shapes == [(2 * 2047,)] + [(2, 2049)] * 3
        # with a higher threshold, one flat call at the 2 x 2049 + 2 x 2047
        # distinct points gives the same values up to the order of the sums
        shapes.clear()
        monkeypatch.setattr(hh_bounds.rect, "PACK_POINTS", 1 << 20)
        plan = PointPlan()
        flat = declare_boundary_bound(plan, 2048, NestedDiscrete(1))(plan.resolve(f, r))
        assert shapes == [(2 * 2049 + 2 * 2047,)]
        magnitude = boundary_bound(Fn2D(eval=lambda x, y: np.abs(ev(x, y))), r, 2048,
                                   NestedDiscrete(1))
        for got, want, size in zip(flat, blocks, magnitude):
            assert abs(got - want) <= 1e-15 * size


class TestBudget:
    @pytest.mark.parametrize("n, m, points", [(100_000, 16, 640_003_400_002),
                                              (1_000_000_000, 16, 64_000_000_034_000_000_002),
                                              (2048, 16, 268_505_090)])
    def test_oversized_enclosure_fails_before_evaluating(self, n, m, points, monkeypatch):
        built = []
        monkeypatch.setattr(hh_bounds.rect, "Lattice",
                            lambda counts: built.append(counts) or Lattice(counts))
        f, count = counting_fn2d(lambda x, y: x * x + y * y)
        with pytest.raises(DomainError, match=f"n={n}, m={m} needs {points} points"):
            discrete_enclosure(f, UNIT2, n, m)
        assert count["n"] == 0 and built == []

    def test_largest_benchmark_enclosure_is_within_the_cap(self):
        assert enclosure_points(1024, 16) == 67_143_682 < MAX_POINTS // 3

    def test_oversized_line_request_fails_before_evaluating(self):
        f, count = counting_fn2d(lambda x, y: x * y)
        with pytest.raises(DomainError, match="more than the cap"):
            five_term_chains(f, UNIT2, NestedDiscrete(1_000_000_000), integral=0.25)
        assert count["n"] == 0


    def test_oversized_plan_fails_before_evaluating(self, monkeypatch):
        # the chain declares the 9 points of its stencil, 16 on each lower
        # center line and 51 on each direction's three upper lines: each
        # request fits under a cap of 100, the plan's 143 do not
        monkeypatch.setattr(hh_bounds.bounds1d, "MAX_POINTS", 100)
        built = []
        monkeypatch.setattr(hh_bounds.rect, "Lattice",
                            lambda counts: built.append(counts) or Lattice(counts))
        f, count = counting_fn2d(lambda x, y: x * y)
        with pytest.raises(DomainError, match="a point plan needs 143 points"):
            five_term_chains(f, UNIT2, NestedDiscrete(16), integral=0.25)
        assert count["n"] == 0 and built == []
        monkeypatch.setattr(hh_bounds.bounds1d, "MAX_POINTS", 143)
        five_term_chains(f, UNIT2, NestedDiscrete(16), integral=0.25)
        # by how they are built, the upper lines along x and along y share
        # the 4 corners, and the stencil's corners and edge midpoints lie on
        # them; its center is a midpoint, not node 8 of 16, though on the
        # unit square their bits agree
        assert count["n"] == 143 - 4 - 8


class TestPartitionSize:
    @pytest.mark.parametrize("scheme", [NestedDiscrete(), EXACT_Q])
    @pytest.mark.parametrize("bound", [
        lambda f, n, scheme: discrete_enclosure(f, UNIT2, n, getattr(scheme, "m", 16)),
        lambda f, n, scheme: centerline_bound(f, UNIT2, n, scheme),
        lambda f, n, scheme: boundary_bound(f, UNIT2, n, scheme),
        lambda f, n, scheme: positive_upper(f, UNIT2, n, scheme),
        lambda f, n, scheme: partition_chain(f, UNIT2, n, scheme, integral=1.0),
    ], ids=["discrete_enclosure", "centerline_bound", "boundary_bound", "positive_upper",
            "partition_chain"])
    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_is_a_domain_error(self, n, bound, scheme):
        f, count = counting_fn2d(lambda x, y: x * x + y * y, positive=True)
        with pytest.raises(DomainError, match=f"^n must be >= 1, got {n}$"):
            bound(f, n, scheme)
        # no bound evaluates f; positive_upper's spot check runs first
        assert count["n"] in (0, hh_bounds.rect.SPOT_GRID ** 2)


def _simpson_by_line(f: Fn2D, r: Rect, lines: list, tol: float) -> list[str]:
    """adaptive_simpson along each (along, at) line of ``lines`` alone, in bits."""
    return sorted(
        adaptive_simpson(f.restrict_y(t), r.a, r.b, tol).hex() if along == "x"
        else adaptive_simpson(f.restrict_x(t), r.c, r.d, tol).hex() for along, t in lines)


def _side_lines(r: Rect, n: int) -> list:
    """The lines through the nodes and midpoints of each side cut into n cells."""
    out = []
    for along, part in (("x", Partition1D(r.y_interval, n)), ("y", Partition1D(r.x_interval, n))):
        out += [(along, t) for t in part.midpoints().tolist() + part.nodes().tolist()]
    return out


class TestQuadratureLines:
    R = Rect(-0.5, 1.5, 0.25, 2.0)

    @pytest.mark.parametrize("level_nodes", [None, 1])
    @pytest.mark.parametrize("ev", [
        lambda x, y: np.exp(x - 0.5 * y) + np.abs(x - 0.3) * y * y,
        lambda x, y: math.exp(x - 0.5 * y) + abs(x - 0.3) * y * y,
    ], ids=["numpy", "math"])
    @pytest.mark.parametrize("bounds", ["chains", "partition"])
    def test_refined_together_as_alone(self, bounds, ev, level_nodes, monkeypatch):
        if level_nodes is not None:
            monkeypatch.setattr(hh_bounds.schemes, "_LEVEL_NODES", level_nodes)
        refined = []

        def capturing(*args):
            values, failure = simpson_lines(*args)
            refined.extend(v.hex() for v in values.tolist())
            return values, failure

        monkeypatch.setattr(hh_bounds.rect, "simpson_lines", capturing)
        f, r, q = Fn2D(eval=ev), self.R, Quadrature(1e-10)
        if bounds == "chains":
            five_term_chains(f, r, q, integral=1.0)
            lines = [("x", t) for t in (r.c, r.center[1], r.d)] + [
                ("y", t) for t in (r.a, r.center[0], r.b)]
        else:
            partition_chain(f, r, 3, q, integral=1.0)
            lines = _side_lines(r, 3)
        assert sorted(refined) == _simpson_by_line(f, r, lines, q.tol)

    def test_a_line_at_two_tolerances_is_two_lines(self):
        f = Fn2D(eval=lambda x, y: np.exp(x - 0.5 * y) + x * x * y)
        plan = PointPlan()
        coarse = declare_centerline_bound(plan, 2, Quadrature(1e-4))
        fine = declare_centerline_bound(plan, 2, Quadrature(1e-12))
        values = plan.resolve(f, self.R)
        assert coarse(values) == centerline_bound(f, self.R, 2, Quadrature(1e-4))
        assert fine(values) == centerline_bound(f, self.R, 2, Quadrature(1e-12))
        assert coarse(values)[1] != fine(values)[1]

    def test_distinct_lines_match_a_first_request_dedup(self):
        # node 1 of 2 cells is node 2 of 4, so the two partitions share node
        # lines, while the boundary bound's lines at x = a, b and y = c, d
        # stay apart under their own tolerance
        plan = PointPlan()
        hh_bounds.rect._declare_partition_sums(plan, 2, Quadrature(1e-9))
        hh_bounds.rect._declare_partition_sums(plan, 4, Quadrature(1e-9))
        declare_boundary_bound(plan, 1, Quadrature(1e-10))
        plan._compile()

        def keys(req):
            # each line by construction: its direction, the two nodes of the
            # other side whose mean is its point, as fractions, and its tolerance
            count, positions = req.at
            return [(req.along, Fraction(p // 2, count), Fraction((p + 1) // 2, count), req.tol)
                    for p in positions]

        quadrature = [req for _, req, _ in plan._adds
                      if isinstance(req, hh_bounds.rect._QuadratureLines)]
        expected = {}
        for key in (key for req in quadrature for key in keys(req)):
            expected.setdefault(key, len(expected))
        assert sum(len(keys(req)) for req in quadrature) == 32 and len(expected) == 26

        def fraction(i):
            # node i of the two sides' lattices, x then y, as a fraction
            side = plan._sides["x"]
            if i >= side.size:
                i, side = i - side.size, plan._sides["y"]
            part = int(np.searchsorted(side.offsets, i, side="right")) - 1
            return Fraction(int(i - side.offsets[part]), side.counts[part])

        along_x, lo, hi, tol = plan._quad
        assert [(("x" if a else "y"), fraction(l), fraction(h), t) for a, l, h, t in
                zip(along_x.tolist(), lo.tolist(), hi.tolist(), tol.tolist())] == list(expected)

        # the lines' values follow the points and no large line request
        offset, pos = plan._pairs.shape[1], 0
        assert plan._lines == []
        for _, req, _ in sorted(plan._adds, key=lambda add: add[0]):
            size = len(req.at[1]) * (len(req.pts[1]) if isinstance(req, hh_bounds.rect._Lines)
                                     else 1)
            src, pos = plan._src[pos:pos + size], pos + size
            if isinstance(req, hh_bounds.rect._QuadratureLines):
                assert src.tolist() == [offset + expected[key] for key in keys(req)]
        assert pos == plan._src.size

    def test_one_evaluation_per_depth(self):
        calls = []

        def ev(x, y):
            calls.append(np.concatenate([x, y]))
            return np.exp(x + 0.5 * y) + np.abs(x - 0.3) * y * y

        five_term_chains(Fn2D(eval=ev), UNIT2, Quadrature(1e-10), integral=1.0)
        # the nine points, then the six lines' ends and midpoints and one
        # call per depth: the finest points, 2**-(depth + 2), are the
        # quarter points of the deepest subintervals
        lines = calls[1:]
        finest = max(math.frexp(float(t).as_integer_ratio()[1])[1] - 1
                     for t in np.concatenate(lines))
        assert lines[0].size == 2 * 6 * 3
        assert len(lines) <= finest

    def test_many_lines_are_started_in_pieces(self):
        sizes = []

        def ev(x, y):
            sizes.append(x.size)
            return x * x + y * y

        partition_chain(Fn2D(eval=ev), UNIT2, 1000, Quadrature(), integral=1.0)
        # 4,002 lines, on which Simpson's rule is exact: their ends and
        # midpoints, then their quarter points, in pieces of at most
        # _LEVEL_NODES lines
        assert sum(sizes) == 4002 * 5
        assert max(sizes) <= 3 * hh_bounds.schemes._LEVEL_NODES

    @pytest.mark.parametrize("case", ["deep", "budget"])
    def test_failure_names_the_first_failing_line_in_declaration_order(self, case,
                                                                      monkeypatch):
        # the center line along x, the first declared, fails at depth 4 or
        # runs out of subintervals; the boundary line y = 0 fails at depth 1
        monkeypatch.setattr(hh_bounds.schemes, "MAX_SUBINTERVALS", 64)

        def ev(x, y):
            center = np.exp(3.0 * x) if case == "deep" else np.sin(1e3 * x)
            bad = (((y == 0.5) & (x == 3.0 / 64.0) & (case == "deep"))
                   | ((y == 0.0) & (x == 0.125)))
            return np.where(bad, np.nan, np.where(y == 0.5, center, x * x + y * y))

        with pytest.raises(EvaluationError) as exc:
            five_term_chains(Fn2D(eval=ev), UNIT2, Quadrature(1e-10), integral=1.0)
        if case == "deep":
            assert exc.value.where == (3.0 / 64.0, 0.5)
        else:
            assert str(exc.value) == ("line along x at y=0.5: adaptive Simpson needs more "
                                      "than 64 subintervals for this tolerance")

    @pytest.mark.parametrize("n, bad, where", [
        # the large line request along x at y = 0.5 fails, and so does the
        # quadrature line along y at x = 0.5, declared before it
        (4096, [(0.5, 3.0 / 64.0), (1.0 / 8192.0, 0.5)], (1.0 / 8192.0, 0.5)),
        # the large line request along y at x = 0.5 fails, declared before
        # the failing quadrature line
        (4096, [(0.5, 3.0 / 64.0), (0.5, 1.0 / 8192.0)], (0.5, 1.0 / 8192.0)),
        # a point, declared after the failing quadrature line along y
        (2, [(0.5, 0.125), (0.75, 0.5)], (0.75, 0.5)),
    ])
    def test_a_plan_fails_in_phase_order(self, n, bad, where):
        # the points first, then the large line requests, then the
        # quadrature lines, whatever the order they were declared in
        def ev(x, y):
            x, y = np.broadcast_arrays(x, y)
            out = np.exp(3.0 * x + 2.0 * y)
            for bx, by in bad:
                out = np.where((x == bx) & (y == by), np.nan, out)
            return out

        # at n = 4096 the lhs sums 4096 midpoints per center line, as a
        # large line request; at n = 2 two midpoints, as points
        with pytest.raises(EvaluationError) as exc:
            centerline_bound(Fn2D(eval=ev), UNIT2, n, Quadrature(1e-10))
        assert exc.value.where == where


class TestAssembly:
    def test_quadrature_shares_lines_between_bounds(self, monkeypatch):
        lines = []

        def counting(fn, lo, hi, tol):
            lines.append(len(lo))
            return simpson_lines(fn, lo, hi, tol)

        monkeypatch.setattr(hh_bounds.rect, "simpson_lines", counting)
        r = Rect(-0.4, 1.3, -0.2, 1.1)
        f = random_coordinate_convex(4, r, 3)
        q = Quadrature(1e-9)
        terms = assemble_classic_terms(f, r, q, integral=1.0)
        # the lines at x = a, b and y = c, d of the partition and boundary
        # bounds coincide, and so do the center lines of the partition and
        # centerline bounds: each distinct line once, all in one call
        assert lines == [6]
        c_lhs, _ = centerline_bound(f, r, 1, q)
        lower, _, upper = partition_chain(f, r, 1, q, integral=1.0).values
        _, b_rhs = boundary_bound(f, r, 1, q)
        assert terms == (c_lhs / 2.0, lower / r.area, 1.0 / r.area, upper / r.area, b_rhs / 4.0)

    def test_matches_classic_chain_both_schemes(self):
        r = Rect(-0.3, 1.2, 0.1, 2.0)
        for seed in (5, 17, 29):
            f = random_coordinate_convex(seed, r, 3)
            for scheme in (NestedDiscrete(16), Quadrature(1e-11)):
                chain = classic_chain(f, r, scheme)
                asm = assemble_classic_terms(f, r, scheme)
                for (_, cv), av in zip(chain.terms, asm):
                    assert abs(av - cv) <= 1e-12 * max(1.0, abs(av), abs(cv))


class TestNestingConsistency:
    def test_nested_brackets_quadrature(self):
        r = Rect(-0.5, 1.0, -0.25, 1.25)
        for seed in (7, 19):
            f = random_coordinate_convex(seed, r, 3)
            oracle = reference_integral_2d(f, r, 512).value
            for n in (1, 2, 4):
                exact = partition_chain(f, r, n, Quadrature(1e-11), integral=oracle)
                disc = partition_chain(f, r, n, NestedDiscrete(3), integral=oracle)
                tol = 1e-9 * max(1.0, abs(oracle))
                assert disc.values[0] <= exact.values[0] + tol
                assert disc.values[2] >= exact.values[2] - tol
                assert disc.all_satisfied


def _weighted_points(r: Rect, n: int, m: int) -> dict[str, list[tuple[float, float, float]]]:
    """Every NestedDiscrete output at (n, m) as (weight, x, y) terms, each
    weight the product of the bound's line weight and the rule's point
    weight, taken from the formulas of the bounds' docstrings."""
    lx, ly = r.b - r.a, r.d - r.c
    cx, cy = r.center
    (xn, xm), (yn, ym) = _side(r, "x", n), _side(r, "y", n)
    (xfn, xfm), (yfn, yfm) = _side(r, "x", m * n), _side(r, "y", m * n)
    (x1n, x1m), (y1n, y1m) = _side(r, "x", m), _side(r, "y", m)

    def ends(k, end=0.5, inner=1.0):
        return [end if i in (0, k) else inner for i in range(k + 1)]

    def lines(along, at, at_w, pts, pt_w):
        return [(wa * wp, p, a) if along == "x" else (wa * wp, a, p)
                for a, wa in zip(at, at_w) for p, wp in zip(pts, pt_w)]

    hx, hy = lx / (m * n), ly / (m * n)
    out = {
        "lower": lines("x", ym, [ly / (2 * n)] * n, xfm, [hx] * (m * n))
        + lines("y", xm, [lx / (2 * n)] * n, yfm, [hy] * (m * n)),
        "upper": lines("x", yn, [w * ly / (2 * n) for w in ends(n)], xfn,
                       [w * hx for w in ends(m * n)])
        + lines("y", xn, [w * lx / (2 * n) for w in ends(n)], yfn,
                [w * hy for w in ends(m * n)]),
        "centerline lhs": lines("y", [cx], [1.0], ym, [1.0] * n)
        + lines("x", [cy], [1.0], xm, [1.0] * n),
        "centerline rhs": lines("y", [cx], [n / ly], yfm, [hy] * (m * n))
        + lines("x", [cy], [n / lx], xfm, [hx] * (m * n)),
        "boundary lhs": lines("y", [r.a, r.b], [n / ly] * 2, yfn, [w * hy for w in ends(m * n)])
        + lines("x", [r.c, r.d], [n / lx] * 2, xfn, [w * hx for w in ends(m * n)]),
        "boundary rhs": lines("y", [r.a, r.b], [1.0] * 2, yn, [1.0] * (n + 1))
        + lines("x", [r.c, r.d], [1.0] * 2, xn[1:-1], [1.0] * (n - 1)),
        "positive": lines("y", xn, [w * lx / (4 * n) for w in ends(n, n + 1, 2)], yfn,
                          [w * hy for w in ends(m * n)])
        + lines("x", yn, [w * ly / (4 * n) for w in ends(n, n + 1, 2)], xfn,
                [w * hx for w in ends(m * n)]),
        "center": [(1.0, cx, cy)],
        "midline_avg": lines("x", [cy], [0.5 / lx], x1m, [lx / m] * m)
        + lines("y", [cx], [0.5 / ly], y1m, [ly / m] * m),
        "boundary_avg": lines("x", [r.c, r.d], [0.25 / lx] * 2, x1n,
                              [w * lx / m for w in ends(m)])
        + lines("y", [r.a, r.b], [0.25 / ly] * 2, y1n, [w * ly / m for w in ends(m)]),
        "corner_avg": lines("y", [r.a, r.b], [0.25] * 2, [r.c, r.d], [1.0] * 2),
        "boundary_midline_avg": lines("x", [r.c, cy, r.d], [0.125 / lx, 0.25 / lx, 0.125 / lx],
                                      x1n, [w * lx / m for w in ends(m)])
        + lines("y", [r.a, cx, r.b], [0.125 / ly, 0.25 / ly, 0.125 / ly], y1n,
                [w * ly / m for w in ends(m)]),
        "nine_point_avg": lines("y", [r.a, cx, r.b], [0.25, 0.5, 0.25], [r.c, cy, r.d],
                                [0.25, 0.5, 0.25]),
    }
    return out


def test_gathered_outputs_match_an_exact_sum_of_their_weighted_points():
    # each output moves from the exactly rounded sum of its weighted points
    # by at most 1e-15 times the sum of their magnitudes
    for index in range(20):
        r, f, _ = case_instance(17, index)
        n, m = 1 + index % 4, 1 + index % 3
        scheme = NestedDiscrete(m)
        bp = discrete_enclosure(f, r, n, m)
        classic, refined = five_term_chains(f, r, scheme, integral=0.0)
        got = {"lower": bp.lower, "upper": bp.upper,
               **dict(zip(("centerline lhs", "centerline rhs"),
                          centerline_bound(f, r, n, scheme))),
               **dict(zip(("boundary lhs", "boundary rhs"), boundary_bound(f, r, n, scheme))),
               **dict(classic.terms), **dict(refined.terms)}
        if f.positive:
            got["positive"] = positive_upper(f, r, n, scheme)
        del got["mean"]
        points = _weighted_points(r, n, m)
        for name, value in got.items():
            terms = [w * float(f.eval(np.array(x), np.array(y))) for w, x, y in points[name]]
            exact, size = math.fsum(terms), math.fsum(map(abs, terms))
            assert abs(value - exact) <= 1e-15 * size, (index, name, value, exact)
