import logging
import math

import numpy as np
import pytest

import mfbox.bootstrap
from mfbox.bootstrap import (
    BootstrapConfig,
    batch_summary,
    bootstrap_analysis,
    derive_replicate_seed,
    permuted_values,
    replicate_clouds,
    scatter_fit,
)
from mfbox.ingest import PriceSeries, derive_box_scheme
from mfbox.partition import MomentGrid
from mfbox.pipeline import analyze_series
from mfbox.synth import CascadeSpec, binomial_cascade, constant_series, random_positive_series

SMALL_GRID = MomentGrid.from_range(-8, 8, 1.0)


def walk_day(seed=0, T=240):
    return random_positive_series(T, "intraday-walk", seed=seed, sigma=0.0005, initial=15000)


def run_small(series, B=25, seed=99, n_jobs=1, grid=SMALL_GRID):
    scheme = derive_box_scheme(series.length)
    cfg = BootstrapConfig(replicates=B, master_seed=seed)
    return bootstrap_analysis(series, scheme, grid, cfg, n_jobs=n_jobs)


class TestSeeding:
    def test_mix_is_deterministic_and_64bit(self):
        a = derive_replicate_seed(12345, 7)
        assert a == derive_replicate_seed(12345, 7)
        assert 0 <= a < 2 ** 64

    def test_mix_separates_inputs(self):
        seeds = {derive_replicate_seed(s, i) for s in (0, 1, 2) for i in range(100)}
        assert len(seeds) == 300


class TestShuffle:
    def test_multiset_preserved(self):
        s = walk_day(1, T=60)
        sh = permuted_values(s.values, 0, 7)
        assert np.array_equal(np.sort(sh), np.sort(s.values))
        assert sh.shape == s.values.shape and sh.dtype == s.values.dtype

    def test_deterministic_per_index(self):
        v = walk_day(1, T=60).values
        assert np.array_equal(permuted_values(v, 3, 7), permuted_values(v, 3, 7))
        assert not np.array_equal(permuted_values(v, 3, 7), permuted_values(v, 4, 7))
        assert not np.array_equal(permuted_values(v, 3, 7), permuted_values(v, 3, 8))

    def test_length_one_is_identity(self):
        # a single value admits exactly one permutation
        out = permuted_values(np.array([5.0]), 0, 123)
        assert np.array_equal(out, [5.0])


class TestScatterFit:
    def test_two_point_line(self):
        k, b = scatter_fit(np.array([[0.0, 1.0], [0.01, 0.7]]))
        assert math.isclose(k, -30.0, rel_tol=1e-12)
        assert math.isclose(b, 1.0, rel_tol=1e-12)

    def test_quadratic_tau_family_collapses_to_closed_form(self):
        # symmetric quadratic tau with q_max = 120 gives F = 1 - 30 delta_alpha
        eps = np.linspace(1e-6, 5e-5, 40)
        pts = np.column_stack([240 * eps, 1 - eps * 120 ** 2 / 2])
        k, b = scatter_fit(pts)
        assert math.isclose(k, -30.0, rel_tol=1e-9)
        assert math.isclose(b, 1.0, rel_tol=1e-9)

    def test_degenerate_and_short_inputs(self):
        with pytest.raises(ValueError, match="identical"):
            scatter_fit(np.array([[0.1, 1.0], [0.1, 0.9]]))
        with pytest.raises(ValueError):
            scatter_fit(np.array([[0.1, 1.0]]))


class TestBootstrapAnalysis:
    def test_report_shape_and_pvalue_arithmetic(self):
        rep = run_small(walk_day(2, T=60), B=25)
        assert rep.replicates.shape == (25, 2)
        assert np.all(rep.replicates[:, 0] >= 0.0)
        # p-values are plain fractions recomputable from the cloud
        p1 = np.count_nonzero(rep.delta_alpha <= rep.replicates[:, 0]) / 25
        p2 = np.count_nonzero(rep.f_mid >= rep.replicates[:, 1]) / 25
        assert rep.p1 == p1 and rep.p2 == p2
        assert round(rep.p1 * 25) == pytest.approx(rep.p1 * 25)
        assert rep.significant_1 == (rep.p1 <= 0.05)
        assert rep.significant_2 == (rep.p2 <= 0.05)

    def test_p1_is_one_iff_every_replicate_at_least_as_wide(self):
        rep = run_small(walk_day(3, T=60), B=20)
        assert (rep.p1 == 1.0) == bool(np.all(rep.replicates[:, 0] >= rep.delta_alpha))

    def test_constant_series_degenerate_cloud(self):
        rep = run_small(constant_series(60, 5.0), B=10)
        # every permutation of a constant day is the day itself
        assert rep.k is None and rep.b is None
        assert rep.p1 == 1.0 and rep.p2 == 1.0

    def test_bit_identical_across_runs_and_workers(self):
        s = walk_day(4, T=120)
        a = run_small(s, B=24, n_jobs=1)
        b = run_small(s, B=24, n_jobs=1)
        c = run_small(s, B=24, n_jobs=2)
        assert np.array_equal(a.replicates, b.replicates)
        assert np.array_equal(a.replicates, c.replicates)
        assert (a.p1, a.p2, a.k, a.b) == (c.p1, c.p2, c.k, c.b)

    @pytest.mark.parametrize("n_jobs", [1, 2, 0])
    def test_scheduler_merges_in_day_and_index_order(self, n_jobs):
        days = [walk_day(10, T=60), walk_day(11, T=120), constant_series(60, 2.0, day_id="flat")]
        pairs = [(d, derive_box_scheme(d.length)) for d in days]
        cfg = BootstrapConfig(replicates=9, master_seed=5)
        clouds = replicate_clouds(pairs, SMALL_GRID, cfg, n_jobs=n_jobs)
        assert len(clouds) == 3
        for (day, scheme), cloud in zip(pairs, clouds):
            report = bootstrap_analysis(day, scheme, SMALL_GRID, cfg, n_jobs=n_jobs)
            assert np.array_equal(cloud, report.replicates)
            # row i is replicate i of this day, however the blocks were scheduled
            for i in (0, 4, 8):
                shuffled = PriceSeries(day.day_id, permuted_values(day.values, i, 5))
                spec = analyze_series(shuffled, scheme, SMALL_GRID).spectrum
                assert tuple(cloud[i]) == (spec.delta_alpha, spec.f_mid)

    def test_p1_close_to_p2_on_monofractal_input(self):
        rep = run_small(walk_day(5), B=100, grid=MomentGrid.from_range())
        assert abs(rep.p1 - rep.p2) <= 0.1

    def test_disagreement_is_logged_not_fatal(self, caplog):
        c = binomial_cascade(CascadeSpec(p=0.6, levels=8))
        with caplog.at_level(logging.WARNING, logger="mfbox.bootstrap"):
            rep = run_small(c, B=20, grid=MomentGrid.from_range())
        assert abs(rep.p1 - rep.p2) > 0.1
        assert any("disagree" in r.message for r in caplog.records)

    def test_original_point_near_fitted_line(self):
        # exchangeable input: the original is one more draw from the cloud
        iid = random_positive_series(240, "iid-lognormal", seed=6, sigma=0.01)
        rep = run_small(iid, B=150, grid=MomentGrid.from_range())
        fitted = rep.k * rep.replicates[:, 0] + rep.b
        sd = np.std(rep.replicates[:, 1] - fitted)
        assert abs(rep.f_mid - (rep.k * rep.delta_alpha + rep.b)) <= 3 * sd


class TestReplicatePath:
    """Replicates skip the permutation-invariant work but not the full chain's result or guards."""

    CASES = {
        "walk240": (walk_day(12), MomentGrid.from_range()),
        "cascade4096": (binomial_cascade(CascadeSpec(p=0.6, levels=12)), MomentGrid.from_range(-5, 5, 1.0)),
        "divisors96": (random_positive_series(96, "iid-lognormal", seed=3, sigma=0.3), SMALL_GRID),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cloud_rows_equal_full_chain(self, case):
        day, grid = self.CASES[case]
        scheme = derive_box_scheme(day.length)
        [cloud] = replicate_clouds([(day, scheme)], grid, BootstrapConfig(replicates=12, master_seed=3))
        for i in (0, 1, 7, 11):
            shuffled = PriceSeries(day.day_id, permuted_values(day.values, i, 3))
            spec = analyze_series(shuffled, scheme, grid).spectrum
            assert tuple(cloud[i]) == (spec.delta_alpha, spec.f_mid)

    def test_prime_length_cloud_is_the_original_point(self):
        day = walk_day(13, T=241)
        assert derive_box_scheme(241).sizes == (1, 241)
        rep = run_small(day, B=20, grid=MomentGrid.from_range())
        assert np.array_equal(rep.replicates, np.tile([rep.delta_alpha, rep.f_mid], (20, 1)))
        assert rep.p1 == rep.p2 == 1.0
        assert rep.k is None and rep.b is None

    def _run_walk(self):
        day = walk_day(14)
        cfg = BootstrapConfig(replicates=5, master_seed=1)
        return replicate_clouds([(day, derive_box_scheme(240))], MomentGrid.from_range(), cfg, n_jobs=1)

    def test_chi1_guard_runs_per_replicate(self, monkeypatch):
        real, calls = mfbox.bootstrap._log_moment_sums, []
        i1 = MomentGrid.from_range().index_of(1.0)

        def off_in_third_replicate(log_weights, q):
            out = real(log_weights, q)
            calls.append(None)
            if len(calls) == 2 + 2 * 12 + 5:  # l = 1, T once, then 12 sizes per replicate
                out[i1] += 1e-11
            return out

        monkeypatch.setattr(mfbox.bootstrap, "_log_moment_sums", off_in_third_replicate)
        with pytest.raises(ValueError, match="q=1"):
            self._run_walk()
        assert len(calls) == 2 + 2 * 12 + 12

    def test_tau0_anchor_runs_per_replicate(self, monkeypatch):
        real, calls = mfbox.bootstrap.fit_tau, []

        def off_in_fourth_replicate(log_chi, ln_sizes, i0, i1):
            calls.append(None)
            if len(calls) == 4:  # slope of ln N(l) = ln T - ln l becomes -1 / (1 + 1e-9)
                ln_sizes = ln_sizes * (1.0 + 1e-9)
            return real(log_chi, ln_sizes, i0, i1)

        monkeypatch.setattr(mfbox.bootstrap, "fit_tau", off_in_fourth_replicate)
        with pytest.raises(ValueError, match=r"tau\(0\)"):
            self._run_walk()
        assert len(calls) == 4


class TestBatchSummary:
    def test_fractions(self):
        reports = [run_small(walk_day(s, T=60), B=20) for s in range(4)]
        summary = batch_summary(reports, level=0.05)
        assert summary.pct_p1_significant == sum(r.p1 <= 0.05 for r in reports) / 4
        assert summary.pct_p2_significant == sum(r.p2 <= 0.05 for r in reports) / 4
        assert len(summary.per_day) == 4

    def test_all_insignificant_gives_zero(self):
        reports = [run_small(constant_series(60, 1.0), B=5)]
        assert batch_summary(reports, 0.05).pct_p1_significant == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            batch_summary([], 0.05)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(replicates=0)
        with pytest.raises(ValueError):
            BootstrapConfig(significance_level=0.0)
        with pytest.raises(ValueError):
            BootstrapConfig(significance_level=1.0)
