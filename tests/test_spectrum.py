import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfbox.partition import MomentGrid, partition_surface
from mfbox.pipeline import analyze_series
from mfbox.scaling import MassExponents, fit_mass_exponents
from mfbox.spectrum import legendre_spectrum
from mfbox.synth import (
    CascadeSpec,
    analytic_binomial_alpha,
    analytic_binomial_tau,
    binomial_cascade,
    constant_series,
    random_positive_series,
)
from mfbox.ingest import derive_box_scheme


def exponents_from_tau(q, tau):
    grid = MomentGrid(q)
    slope = np.polyfit(q, tau, 1)[0]
    return MassExponents(grid=grid, tau=np.asarray(tau, dtype=float), r=np.ones(q.size),
                         alpha_bar=float(slope), alpha_bar_stderr=0.0)


class TestLinearTau:
    def test_collapses_to_a_point(self):
        q = np.arange(-120.0, 121.0)
        spec = legendre_spectrum(exponents_from_tau(q, q - 1.0))
        assert_allclose(spec.alpha, np.ones_like(q), atol=1e-13, rtol=0)
        assert_allclose(spec.f, np.ones_like(q), atol=1e-11, rtol=0)
        assert spec.delta_alpha < 1e-12
        assert abs(spec.f_mid - 1.0) < 1e-11


class TestQuadraticTau:
    """Closed-form Legendre of tau = q - eps q^2 / 2 - 1 on q in [-120, 120]:
    alpha = 1 - eps q, delta_alpha = 240 eps, f at both alpha extremes
    1 - eps 120^2 / 2, so F = 0.928 for eps = 1e-5."""

    eps = 1e-5
    q = np.arange(-120.0, 121.0)

    def spectrum(self):
        tau = self.q - self.eps * self.q ** 2 / 2 - 1.0
        return legendre_spectrum(exponents_from_tau(self.q, tau))

    def test_alpha_exact_for_quadratic(self):
        spec = self.spectrum()
        assert_allclose(spec.alpha, 1.0 - self.eps * self.q, atol=1e-12, rtol=0)

    def test_width_and_midpoint(self):
        spec = self.spectrum()
        assert np.isclose(spec.delta_alpha, 240 * self.eps, rtol=1e-9)
        assert np.isclose(spec.f_mid, 1.0 - self.eps * 120.0 ** 2 / 2, rtol=1e-9)
        assert np.isclose(spec.f_mid, 0.928, atol=1e-9)
        # consistency with the scatter law slope -q_max/4 for symmetric quadratics
        assert np.isclose(spec.f_mid, 1.0 - 30.0 * spec.delta_alpha, atol=1e-9)

    def test_stats_record(self):
        spec = self.spectrum()
        assert np.isclose(spec.delta_alpha, 0.0024, atol=1e-12)
        assert np.isclose(spec.f_mid, 0.928, atol=1e-9)


class TestConstructionIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_q_alpha_minus_f_equals_tau(self, seed):
        rng = np.random.default_rng(seed)
        s = random_positive_series(240, "iid-lognormal", seed=seed, sigma=1.0)
        analysis = analyze_series(s)
        spec, q = analysis.spectrum, analysis.spectrum.grid.q_values
        assert_allclose(q * spec.alpha - spec.f, analysis.exponents.tau, atol=1e-12, rtol=0)
        del rng

    def test_delta_alpha_nonnegative(self):
        s = random_positive_series(240, "intraday-walk", seed=11, sigma=0.0005, initial=15000)
        assert analyze_series(s).spectrum.delta_alpha >= 0.0


class TestBinomialOracle:
    def test_analytic_path_alpha_monotone_and_f_peak(self):
        q = np.arange(-20.0, 21.0)
        alpha = analytic_binomial_alpha(0.6, q)
        assert np.all(np.diff(alpha) <= 1e-15)
        tau = analytic_binomial_tau(0.6, q)
        spec = legendre_spectrum(exponents_from_tau(q, tau))
        i0 = spec.grid.index_of(0.0)
        assert np.isclose(spec.f[i0], 1.0, atol=1e-9)
        assert spec.f.max() <= spec.f[i0] + 1e-9

    def test_empirical_cascade_spectrum_matches_analytic(self):
        c = binomial_cascade(CascadeSpec(p=0.6, levels=12))
        grid = MomentGrid.from_range(-20, 20, 1.0)
        spec = analyze_series(c, grid=grid).spectrum
        q = grid.q_values
        interior = (q >= -19) & (q <= 19)  # edges carry one-sided difference error
        assert_allclose(spec.alpha[interior], analytic_binomial_alpha(0.6, q[interior]),
                        atol=5e-3, rtol=0)
        assert np.all(np.diff(spec.alpha) <= 1e-12)

    def test_empirical_monofractal_alpha_nearly_monotone(self):
        s = random_positive_series(240, "intraday-walk", seed=3, sigma=0.0005, initial=15000)
        spec = analyze_series(s).spectrum
        assert np.all(np.diff(spec.alpha) <= 1e-6)


class TestExtremaSelection:
    def test_extrema_searched_over_whole_grid(self):
        # tau engineered so alpha peaks in the interior, not at q_min
        q = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
        tau = np.array([-5.2, -3.9, -2.5, -1.0, 0.0, 1.0, 2.0])
        spec = legendre_spectrum(exponents_from_tau(q, tau))
        assert spec.alpha.argmax() not in (0, q.size - 1)
        assert np.isclose(spec.delta_alpha, spec.alpha.max() - spec.alpha.min(), rtol=0)

    def test_tie_break_toward_extreme_q(self):
        # linear tau: every alpha ties; the convention must reproduce F = 1
        q = np.arange(-10.0, 11.0)
        spec = legendre_spectrum(exponents_from_tau(q, q - 1.0))
        assert np.isclose(spec.f_mid, 1.0, atol=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="3"):
            legendre_spectrum(exponents_from_tau(np.array([0.0, 1.0]), np.array([-1.0, 0.0])))


def test_constant_series_full_pipeline():
    spec = analyze_series(constant_series(240, 5.0)).spectrum
    assert spec.delta_alpha <= 1e-9
    assert abs(spec.f_mid - 1.0) <= 1e-9
