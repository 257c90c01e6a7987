import math

import numpy as np
import pytest

from hh_bounds import (DomainError, Fn2D, Interval, Rect,
                       check_coordinate_convexity, random_convex_1d,
                       random_coordinate_convex, spot_minimum)

UNIT2 = Rect(0.0, 1.0, 0.0, 1.0)


class TestChecker:
    def test_bilinear_passes(self):
        rep = check_coordinate_convexity(Fn2D(eval=lambda x, y: x * y), UNIT2,
                                         samples=1000, tol=1e-10, seed=3)
        assert rep.passed
        assert rep.max_violation >= -1e-13  # slack is identically 0 up to roundoff
        assert rep.samples == 2000

    def test_concave_in_x_fails_with_x_witness(self):
        rep = check_coordinate_convexity(Fn2D(eval=lambda x, y: -(x * x) + 0.0 * y),
                                         UNIT2, samples=1000, tol=1e-10, seed=3)
        assert not rep.passed
        assert rep.max_violation < 0
        assert rep.witness is not None
        assert rep.witness.axis == "x"
        assert 0.0 <= rep.witness.lam <= 1.0

    def test_sumsq_passes(self):
        rep = check_coordinate_convexity(Fn2D(eval=lambda x, y: x * x + y * y),
                                         Rect(-2.0, 1.0, 0.5, 3.0),
                                         samples=1000, tol=1e-10, seed=0)
        assert rep.passed
        assert rep.max_violation >= -1e-13

    def test_witness_present_whenever_negative(self):
        # tiny concavity below tol: passes, but the witness is still reported
        eps = 1e-12
        rep = check_coordinate_convexity(Fn2D(eval=lambda x, y: -eps * x * x + y),
                                         UNIT2, samples=2000, tol=1e-10, seed=1)
        assert rep.passed
        assert rep.max_violation < 0
        assert rep.witness is not None

    def test_deterministic_given_seed(self):
        f = Fn2D(eval=lambda x, y: x * x + np.abs(y - 0.3))
        a = check_coordinate_convexity(f, UNIT2, 500, 1e-10, seed=9)
        b = check_coordinate_convexity(f, UNIT2, 500, 1e-10, seed=9)
        assert a == b

    def test_validates_parameters(self):
        f = Fn2D(eval=lambda x, y: x + y)
        with pytest.raises(DomainError):
            check_coordinate_convexity(f, UNIT2, samples=0)
        with pytest.raises(DomainError):
            check_coordinate_convexity(f, UNIT2, tol=-1.0)
        # max_violation >= -nan is False: a NaN tolerance would reject everything
        with pytest.raises(DomainError):
            check_coordinate_convexity(f, UNIT2, tol=math.nan)

    def test_evaluation_pattern(self):
        # three calls per axis (u1, u2, blend), x-axis first, each over all
        # samples: a merged block was slower on generated functions, and the
        # order decides which failing point an EvaluationError names
        calls = []

        def ev(x, y):
            calls.append((x, y))
            return x * x + y * y

        check_coordinate_convexity(Fn2D(eval=ev), UNIT2, samples=257)
        assert len(calls) == 6
        assert all(np.shape(x) == np.shape(y) == (257,) for x, y in calls)
        assert all(calls[k][1] is calls[0][1] for k in (1, 2))
        assert all(calls[k][0] is calls[3][0] for k in (4, 5))
        assert not np.array_equal(calls[0][0], calls[1][0])

    def test_flags_saddle_within_100_seeds(self):
        # concave in x, convex in y; every one of 100 seeded runs must reject
        f = Fn2D(eval=lambda x, y: -((x - 0.5) ** 2) + y * y)
        rejections = sum(
            not check_coordinate_convexity(f, UNIT2, 10_000, 1e-10, seed=s).passed
            for s in range(100))
        assert rejections == 100


class TestGenerator2D:
    def test_generated_functions_pass_checker(self):
        r = Rect(-1.0, 0.8, -0.3, 1.5)
        for seed in range(30):
            f = random_coordinate_convex(seed, r, 1 + seed % 4)
            rep = check_coordinate_convexity(f, r, 10_000, 1e-10, seed=seed + 1)
            assert rep.passed, f"seed {seed}: {rep}"

    def test_affine_only_variant(self):
        f = random_coordinate_convex(11, UNIT2, 0)
        rep = check_coordinate_convexity(f, UNIT2, 2000, 1e-10, seed=2)
        assert rep.passed

    def test_determinism(self):
        r = Rect(0.0, 2.0, -1.0, 1.0)
        f = random_coordinate_convex(123, r, 3)
        g = random_coordinate_convex(123, r, 3)
        pts = np.random.default_rng(0).uniform(-1.0, 2.0, (2, 50))
        assert np.array_equal(f.eval(pts[0], pts[1]), g.eval(pts[0], pts[1]))

    def test_positive_flag_matches_grid(self):
        r = Rect(-0.5, 1.0, 0.0, 1.25)
        seen_positive = 0
        for seed in range(40):
            f = random_coordinate_convex(seed, r, 2)
            lo = spot_minimum(f, r)
            assert f.positive == (lo > 0.0)
            seen_positive += int(f.positive)
        assert 0 < seen_positive < 40  # the corpus mixes positive and not

    def test_rejects_negative_atom_count(self):
        with pytest.raises(DomainError):
            random_coordinate_convex(1, UNIT2, -1)


class TestGenerator1D:
    def _slack_min(self, fn, iv, samples, seed):
        rng = np.random.default_rng(seed)
        u1 = rng.uniform(iv.lo, iv.hi, samples)
        u2 = rng.uniform(iv.lo, iv.hi, samples)
        lam = rng.uniform(0.0, 1.0, samples)
        s = lam * fn.eval(u1) + (1 - lam) * fn.eval(u2) - fn.eval(lam * u1 + (1 - lam) * u2)
        return float(np.min(s))

    def test_generated_are_convex(self):
        iv = Interval(-1.2, 1.7)
        for seed in range(25):
            fn = random_convex_1d(seed, iv, 1 + seed % 4)
            assert self._slack_min(fn, iv, 5000, seed) >= -1e-10

    def test_ensure_positive(self):
        iv = Interval(-2.0, 0.5)
        for seed in range(25):
            fn = random_convex_1d(seed, iv, 2, ensure_positive=True)
            assert fn.positive
            grid = np.linspace(iv.lo, iv.hi, 501)
            assert float(fn.eval(grid).min()) > 0.0
