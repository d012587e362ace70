import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mfbox.ingest import PriceSeries, derive_box_scheme
from mfbox.measure import build_box_measure
from mfbox.partition import (
    MomentGrid,
    PartitionSurface,
    log_partition_value,
    partition_surface,
)
from mfbox.synth import constant_series


def random_series(seed, T=240, sigma=1.0):
    rng = np.random.default_rng(seed)
    return PriceSeries(f"s{seed}", np.exp(sigma * rng.standard_normal(T)))


class TestMomentGrid:
    def test_default_range(self):
        g = MomentGrid.from_range()
        assert g.size == 241
        assert g.q_values[0] == -120.0 and g.q_values[-1] == 120.0
        assert g.q_values[g.index_of(0.0)] == 0.0
        assert g.q_values[g.index_of(1.0)] == 1.0

    def test_half_step(self):
        g = MomentGrid.from_range(-2, 3, 0.5)
        assert 0.0 in g.q_values and 1.0 in g.q_values
        assert g.size == 11

    @pytest.mark.parametrize("step", [4.0, 0.4, 3.0])
    def test_step_must_hit_one(self, step):
        with pytest.raises(ValueError):
            MomentGrid.from_range(-120, 120, step)

    def test_range_must_straddle(self):
        with pytest.raises(ValueError):
            MomentGrid.from_range(0, 120, 1)
        with pytest.raises(ValueError):
            MomentGrid.from_range(-120, 1, 1)

    def test_explicit_values_validated(self):
        MomentGrid(np.array([-3.0, 0.0, 1.0, 2.5]))  # non-uniform is fine
        with pytest.raises(ValueError, match="q = 0 and q = 1"):
            MomentGrid(np.array([-3.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="increasing"):
            MomentGrid(np.array([0.0, 1.0, 1.0]))


class TestLogPartitionValue:
    def setup_method(self):
        self.pair = build_box_measure(PriceSeries("d", [1.0, 2.0, 3.0, 4.0]), 2)  # u = .3/.7

    def test_q2(self):
        assert math.isclose(log_partition_value(self.pair, 2.0), math.log(0.58), abs_tol=1e-14)

    def test_q1_normalization(self):
        assert abs(log_partition_value(self.pair, 1.0)) < 1e-14

    def test_qm1(self):
        expect = math.log(1 / 0.3 + 1 / 0.7)
        assert math.isclose(log_partition_value(self.pair, -1.0), expect, abs_tol=1e-13)

    def test_q0_counts_boxes(self):
        m = build_box_measure(random_series(0), 10)
        assert log_partition_value(m, 0.0) == math.log(24.0)

    @pytest.mark.parametrize("q", [-120.0, -7.0, 0.5, 3.0, 120.0])
    def test_against_high_precision_oracle(self, q):
        m = build_box_measure(random_series(5, T=24), 4)
        with mpmath.workdps(60):
            u = [mpmath.exp(mpmath.mpf(float(lw))) for lw in m.log_weights]
            expect = float(mpmath.log(mpmath.fsum(ui ** mpmath.mpf(q) for ui in u)))
        assert math.isclose(log_partition_value(m, q), expect, abs_tol=1e-12)

    def test_no_overflow_at_extreme_q(self):
        # smallest weight ~1e-3: |q ln u| ~ 830, far beyond exp range
        vals = np.full(240, 1.0)
        vals[0] = 1e-3 * 239 / (1 - 1e-3)  # u_0 close to 1e-3
        m = build_box_measure(PriceSeries("d", vals), 1)
        assert np.exp(m.log_weights).min() < 2e-3
        for q in (-120.0, 120.0):
            assert math.isfinite(log_partition_value(m, q))


class TestSurface:
    def test_constant_series_closed_form(self):
        grid = MomentGrid.from_range()
        scheme = derive_box_scheme(240)
        surf = partition_surface(constant_series(240, 5.0), scheme, grid)
        N = np.asarray(scheme.box_counts, dtype=float)
        expect = (1.0 - grid.q_values)[:, None] * np.log(N)[None, :]
        assert_allclose(surf.log_chi, expect, atol=1e-11, rtol=0)

    def test_single_box_column_is_zero(self):
        s = random_series(1)
        surf = partition_surface(s, derive_box_scheme(240), MomentGrid.from_range())
        assert np.all(surf.log_chi[:, -1] == 0.0)

    def test_small_series_hand_computed(self):
        s = PriceSeries("d", [1.0, 2.0, 3.0, 4.0])
        scheme = derive_box_scheme(4, override=[1, 2, 4])
        grid = MomentGrid(np.array([0.0, 1.0, 2.0]))
        surf = partition_surface(s, scheme, grid)
        row_q2 = surf.log_chi[2]
        assert math.isclose(row_q2[0], math.log(0.30), abs_tol=1e-13)  # sum u^2 at l=1
        assert math.isclose(row_q2[1], math.log(0.58), abs_tol=1e-13)
        assert row_q2[2] == 0.0

    def test_normalization_rows(self):
        for seed in range(5):
            surf = partition_surface(random_series(seed), derive_box_scheme(240),
                                     MomentGrid.from_range())
            i0, i1 = surf.grid.index_of(0.0), surf.grid.index_of(1.0)
            assert np.max(np.abs(surf.log_chi[i1])) < 1e-12
            expect0 = np.log(np.asarray(surf.scheme.box_counts, dtype=float))
            assert np.array_equal(surf.log_chi[i0], expect0)

    def test_convex_in_q(self):
        surf = partition_surface(random_series(7), derive_box_scheme(240),
                                 MomentGrid.from_range())
        second = np.diff(surf.log_chi, n=2, axis=0)
        assert second.min() >= -1e-9

    def test_shuffle_invariance_at_unit_and_full_box(self):
        s = random_series(3)
        rng = np.random.default_rng(123)
        shuffled = PriceSeries("d", rng.permutation(s.values))
        for l in (1, 240):
            m0, m1 = build_box_measure(s, l), build_box_measure(shuffled, l)
            for q in (-120.0, -2.0, 0.0, 1.0, 3.5, 120.0):
                assert log_partition_value(m0, q) == log_partition_value(m1, q)

    def test_finite_everywhere_for_cascade_contrast(self):
        from mfbox.synth import CascadeSpec, binomial_cascade

        c = binomial_cascade(CascadeSpec(p=0.7, levels=10))
        surf = partition_surface(c, derive_box_scheme(1024), MomentGrid.from_range())
        assert np.all(np.isfinite(surf.log_chi))

    def test_scheme_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            partition_surface(random_series(0, T=120), derive_box_scheme(240),
                              MomentGrid.from_range())

    def test_rejects_broken_matrix(self):
        s = random_series(0)
        surf = partition_surface(s, derive_box_scheme(240), MomentGrid.from_range())
        bad = np.array(surf.log_chi)
        bad[surf.grid.index_of(1.0), 0] = 0.5
        with pytest.raises(ValueError, match="q=1"):
            PartitionSurface(grid=surf.grid, scheme=surf.scheme, log_chi=bad)


@st.composite
def days_and_permutations(draw):
    """A day of length 2..512 with magnitudes in [1e-300, 1e300], and a permutation of it.

    The cap of 1e300 keeps T * max finite, so every box mass is finite.
    """
    T = draw(st.integers(2, 512))
    lo = draw(st.floats(-300.0, 300.0))
    hi = draw(st.floats(lo, 300.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.minimum(10.0 ** rng.uniform(lo, hi, T), 1e300)
    return PriceSeries("h", values), PriceSeries("h", rng.permutation(values))


class TestSurfaceProperties:
    @settings(max_examples=40, deadline=None)
    @given(days_and_permutations())
    def test_normalization_rows_and_permutation_invariant_columns(self, pair):
        day, shuffled = pair
        scheme, grid = derive_box_scheme(day.length), MomentGrid.from_range()
        a = partition_surface(day, scheme, grid).log_chi
        b = partition_surface(shuffled, scheme, grid).log_chi
        ln_counts = np.log(np.asarray(scheme.box_counts, dtype=float))
        for surf in (a, b):
            assert np.max(np.abs(surf[grid.index_of(1.0)])) <= 1e-12
            assert np.max(np.abs(surf[grid.index_of(0.0)] - ln_counts)) <= 1e-12
        # l = 1 is the first scheme size and l = T the last
        assert np.array_equal(a[:, 0], b[:, 0])
        assert np.array_equal(a[:, -1], b[:, -1])
