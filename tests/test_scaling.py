import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfbox.ingest import PriceSeries, derive_box_scheme
from mfbox.partition import MomentGrid, partition_surface
from mfbox.scaling import (
    MassExponents,
    _ols,
    fit_mass_exponents,
    tau_linearity_report,
)
from mfbox.synth import constant_series


def random_series(seed, T=240, sigma=0.3):
    rng = np.random.default_rng(seed)
    return PriceSeries(f"s{seed}", np.exp(sigma * rng.standard_normal(T)))


def fitted(series, grid=None):
    grid = grid or MomentGrid.from_range()
    return fit_mass_exponents(partition_surface(series, derive_box_scheme(series.length), grid))


def synthetic_exponents(q, tau):
    """MassExponents around a closed-form tau, for exercising the report op."""
    slope, _ = _ols(q, tau)
    return MassExponents(grid=MomentGrid(q), tau=tau, r=np.ones_like(tau),
                         alpha_bar=float(slope), alpha_bar_stderr=0.0)


class TestConstantSeries:
    def test_tau_is_q_minus_one(self):
        me = fitted(constant_series(240, 5.0))
        q = me.grid.q_values
        assert_allclose(me.tau, q - 1.0, atol=1e-12, rtol=0)
        assert abs(me.alpha_bar - 1.0) < 1e-13

    def test_perfect_fit_correlations(self):
        me = fitted(constant_series(240, 5.0))
        q = me.grid.q_values
        # exact log-linear surface: r carries the slope sign; flat q=1 row is
        # the normalization identity, pinned to 0
        strong = np.abs(q - 1.0) > 0.5
        assert np.all(np.abs(me.r[strong]) > 1.0 - 1e-9)
        assert np.all(np.sign(me.r[strong]) == np.sign(q[strong] - 1.0))
        assert me.r[me.grid.index_of(1.0)] == 0.0

    def test_flat_identity_row_r_is_scale_stable(self):
        s = random_series(12)
        scaled = PriceSeries(s.day_id, s.values * 7.3)
        r_a, r_b = fitted(s).r, fitted(scaled).r
        assert_allclose(r_a, r_b, atol=1e-9, rtol=0)


class TestFitAgainstPolyfit:
    @pytest.mark.parametrize("seed", range(3))
    def test_slopes_match_polyfit(self, seed):
        s = random_series(seed)
        surf = partition_surface(s, derive_box_scheme(240), MomentGrid.from_range())
        me = fit_mass_exponents(surf)
        x = np.log(np.asarray(surf.scheme.sizes, dtype=float))
        expect = np.array([np.polyfit(x, row, 1)[0] for row in surf.log_chi])
        assert_allclose(me.tau, expect, atol=1e-10, rtol=0)

    def test_correlations_match_corrcoef(self):
        s = random_series(5)
        surf = partition_surface(s, derive_box_scheme(240), MomentGrid.from_range())
        me = fit_mass_exponents(surf)
        x = np.log(np.asarray(surf.scheme.sizes, dtype=float))
        i = me.grid.index_of(-7.0)
        assert np.isclose(me.r[i], np.corrcoef(x, surf.log_chi[i])[0, 1], atol=1e-12)

    def test_alpha_bar_stderr_oracle(self):
        me = fitted(random_series(8))
        q = me.grid.q_values
        coef = np.polyfit(q, me.tau, 1)
        resid = me.tau - np.polyval(coef, q)
        ssr = float(resid @ resid)
        sxx = float(np.sum((q - q.mean()) ** 2))
        expect = np.sqrt(ssr / (q.size - 2) / sxx)
        assert np.isclose(me.alpha_bar, coef[0], atol=1e-13)
        assert np.isclose(me.alpha_bar_stderr, expect, rtol=1e-9)


class TestAnchors:
    @pytest.mark.parametrize("seed", range(5))
    def test_tau_0_and_1(self, seed):
        me = fitted(random_series(seed, sigma=1.0))
        assert abs(me.tau[me.grid.index_of(0.0)] + 1.0) < 1e-10
        assert abs(me.tau[me.grid.index_of(1.0)]) < 1e-10


class TestScaleEquivariance:
    def test_positive_rescale_changes_nothing_measurable(self):
        s = random_series(4)
        scaled = PriceSeries(s.day_id, s.values * 7.3)
        grid = MomentGrid.from_range()
        surf_a = partition_surface(s, derive_box_scheme(240), grid)
        surf_b = partition_surface(scaled, derive_box_scheme(240), grid)
        assert_allclose(surf_a.log_chi, surf_b.log_chi, atol=1e-10, rtol=0)
        me_a, me_b = fit_mass_exponents(surf_a), fit_mass_exponents(surf_b)
        assert_allclose(me_a.tau, me_b.tau, atol=1e-11, rtol=0)
        assert abs(me_a.alpha_bar - me_b.alpha_bar) < 1e-12


class TestLinearityReport:
    def test_exact_line_has_zero_residual(self):
        q = np.arange(-120.0, 121.0)
        me = synthetic_exponents(q, q - 1.0)
        assert tau_linearity_report(me) == 0.0
        assert me.alpha_bar == 1.0

    def test_quadratic_tau_against_polyfit_oracle(self):
        eps = 1e-5
        q = np.arange(-120.0, 121.0)
        tau = q - eps * q ** 2 / 2 - 1.0
        me = synthetic_exponents(q, tau)
        residual = tau_linearity_report(me)
        coef = np.polyfit(q, tau, 1)
        oracle = np.max(np.abs(tau - np.polyval(coef, q)))
        assert np.isclose(residual, oracle, rtol=1e-12)
        # closed form: extreme residual eps/2 * (q_max^2 - mean(q^2))
        closed = eps / 2 * (120.0 ** 2 - np.mean(q ** 2))
        assert np.isclose(residual, closed, rtol=1e-9)
        assert np.isclose(me.alpha_bar, 1.0, atol=1e-12)

    def test_monofractal_day_reports_tiny_residual(self):
        me = fitted(random_series(0, sigma=0.001))
        assert tau_linearity_report(me) < 1e-3
        assert abs(me.alpha_bar - 1.0) < 1e-3
