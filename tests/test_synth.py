import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfbox.ingest import derive_box_scheme
from mfbox.partition import MomentGrid
from mfbox.pipeline import analyze_series
from mfbox.synth import (
    CascadeSpec,
    analytic_binomial_alpha,
    analytic_binomial_tau,
    binomial_cascade,
    constant_series,
    random_positive_series,
)


class TestConstantSeries:
    def test_basic(self):
        s = constant_series(240, 5.0)
        assert s.length == 240
        assert np.all(s.values == 5.0)
        assert np.all(constant_series(405, 1.0).values == 1.0)

    def test_tiny_value_is_valid(self):
        s = constant_series(240, 1e-8)
        # scale-free weights: same spectrum as value 1.0
        a = analyze_series(s).spectrum
        b = analyze_series(constant_series(240, 1.0)).spectrum
        assert_allclose(a.alpha, b.alpha, atol=1e-10, rtol=0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            constant_series(240, 0.0)
        with pytest.raises(ValueError):
            constant_series(240, -3.0)


class TestRandomPositive:
    def test_iid_lognormal_shape(self):
        s = random_positive_series(240, "iid-lognormal", seed=0, sigma=0.01)
        assert s.length == 240
        assert np.all(s.values > 0)
        assert 0.9 < s.values.mean() < 1.1

    def test_intraday_walk_magnitude(self):
        s = random_positive_series(240, "intraday-walk", seed=0, sigma=0.0005, initial=15000)
        assert np.all(s.values > 0)
        assert 14000 < s.values.min() and s.values.max() < 16000

    def test_deterministic_given_seed(self):
        a = random_positive_series(240, "intraday-walk", seed=42, sigma=0.001)
        b = random_positive_series(240, "intraday-walk", seed=42, sigma=0.001)
        assert np.array_equal(a.values, b.values)
        c = random_positive_series(240, "intraday-walk", seed=43, sigma=0.001)
        assert not np.array_equal(a.values, c.values)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            random_positive_series(240, "brownian", seed=0)

    def test_overflowing_walk_is_rejected(self):
        # exp overflows and underflows along the path; no value is redrawn into a non-walk
        with np.errstate(over="ignore", under="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                random_positive_series(240, "intraday-walk", seed=0, sigma=100.0)


class TestCascade:
    def test_two_level_split(self):
        s = binomial_cascade(CascadeSpec(p=0.6, levels=2))
        assert_allclose(s.values, [0.36, 0.24, 0.24, 0.16], atol=1e-15)

    def test_one_level(self):
        assert_allclose(binomial_cascade(CascadeSpec(p=0.6, levels=1)).values, [0.6, 0.4])

    @pytest.mark.parametrize("p,levels,mass", [(0.6, 12, 1.0), (0.7, 8, 3.5), (0.52, 5, 0.25)])
    def test_mass_conserved(self, p, levels, mass):
        s = binomial_cascade(CascadeSpec(p=p, levels=levels, total_mass=mass))
        assert s.length == 2 ** levels
        assert math.isclose(math.fsum(s.values), mass, rel_tol=1e-12)

    def test_random_orientation_preserves_multiset(self):
        spec = CascadeSpec(p=0.6, levels=8)
        det = binomial_cascade(spec)
        rnd = binomial_cascade(spec, seed=7)
        assert not np.array_equal(det.values, rnd.values)
        assert_allclose(np.sort(det.values), np.sort(rnd.values), rtol=1e-12)

    def test_seeded_orientation_reproducible(self):
        spec = CascadeSpec(p=0.6, levels=8)
        assert np.array_equal(binomial_cascade(spec, seed=3).values,
                              binomial_cascade(spec, seed=3).values)

    def test_half_split_is_uniform(self):
        s = binomial_cascade(CascadeSpec(p=0.5, levels=8))
        assert np.allclose(s.values, s.values[0])
        spec = analyze_series(s).spectrum
        assert spec.delta_alpha <= 1e-9

    def test_invalid_specs(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                CascadeSpec(p=bad, levels=4)
        with pytest.raises(ValueError):
            CascadeSpec(p=0.6, levels=0)
        with pytest.raises(ValueError):
            CascadeSpec(p=0.6, levels=4, total_mass=0.0)


class TestAnalyticTau:
    def test_normalization_identities(self):
        assert analytic_binomial_tau(0.6, 0.0) == -1.0
        assert abs(analytic_binomial_tau(0.6, 1.0)) < 1e-15

    def test_q2_value(self):
        assert math.isclose(analytic_binomial_tau(0.6, 2.0), -math.log2(0.52), rel_tol=1e-14)
        assert math.isclose(analytic_binomial_tau(0.6, 2.0), 0.943416, abs_tol=1e-6)

    def test_limiting_width(self):
        # alpha(-inf) - alpha(+inf) = log2(p / (1-p))
        width = analytic_binomial_alpha(0.6, -400.0) - analytic_binomial_alpha(0.6, 400.0)
        assert math.isclose(width, math.log2(1.5), rel_tol=1e-12)
        assert math.isclose(math.log2(1.5), 0.58496, abs_tol=1e-5)
        assert math.isclose(analytic_binomial_alpha(0.6, 400.0), -math.log2(0.6), rel_tol=1e-12)
        assert math.isclose(analytic_binomial_alpha(0.6, -400.0), -math.log2(0.4), rel_tol=1e-12)

    def test_alpha_is_tau_derivative(self):
        q = np.linspace(-30, 30, 601)
        tau = analytic_binomial_tau(0.55, q)
        num = np.gradient(tau, q, edge_order=2)
        assert_allclose(num, analytic_binomial_alpha(0.55, q), atol=1e-4, rtol=0)

    def test_extreme_orders_finite(self):
        assert np.isfinite(analytic_binomial_tau(0.6, 120.0))
        assert np.isfinite(analytic_binomial_tau(0.6, -120.0))

    def test_p_validation(self):
        with pytest.raises(ValueError):
            analytic_binomial_tau(1.0, 2.0)
        with pytest.raises(ValueError):
            analytic_binomial_alpha(0.0, 2.0)


class TestPipelineVsOracle:
    def test_cascade_tau_matches_closed_form(self):
        c = binomial_cascade(CascadeSpec(p=0.6, levels=12))
        scheme = derive_box_scheme(c.length)
        assert scheme.sizes == tuple(2 ** j for j in range(13))
        grid = MomentGrid.from_range(-10, 10, 1.0)
        me = analyze_series(c, scheme, grid).exponents
        assert np.max(np.abs(me.tau - analytic_binomial_tau(0.6, grid.q_values))) <= 0.05
