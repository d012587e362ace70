import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import mfbox.partition
from mfbox.ingest import PriceSeries, derive_box_scheme
from mfbox.measure import box_log_weights
from mfbox.partition import (
    MomentGrid,
    _log_moment_sums,
    log_chi_columns,
    partition_surface,
)
from mfbox.scaling import _ols, fit_tau
from mfbox.spectrum import legendre_transform
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

    @pytest.mark.parametrize("bounds", [(-120, math.inf, 1), (-math.inf, 120, 1),
                                        (-120, 120, math.inf), (-120, 120, math.nan)],
                             ids=["q_max-inf", "q_min-inf", "q_step-inf", "q_step-nan"])
    def test_bounds_must_be_finite(self, bounds):
        with pytest.raises(ValueError, match="^q_min, q_max and q_step must be finite, got "):
            MomentGrid.from_range(*bounds)

    def test_order_count_is_bounded(self):
        # the count is checked before any array is built: a subnormal step gives an
        # infinite count, not an overflow on the way to the lattice indices
        assert MomentGrid.from_range(-49_999, 50_000, 1).size == 100_000
        for bounds in [(-50_000, 50_000, 1), (-120, 120, 5e-324)]:
            with pytest.raises(ValueError, match="has more than 100,000 orders"):
                MomentGrid.from_range(*bounds)

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
        with pytest.raises(ValueError, match="at least 3 orders"):
            MomentGrid(np.array([0.0, 1.0]))


def ln_chi(values, l, q):
    """ln chi_q of ``values`` in boxes of ``l``, through the kernel every surface uses."""
    log_weights = box_log_weights(np.asarray(values, dtype=float), l)[1]
    return float(_log_moment_sums(log_weights, np.asarray([float(q)]))[0])


class TestLogPartitionValue:
    pair = [1.0, 2.0, 3.0, 4.0]  # in boxes of 2: u = .3/.7

    def test_q2(self):
        assert math.isclose(ln_chi(self.pair, 2, 2.0), math.log(0.58), abs_tol=1e-14)

    def test_q1_normalization(self):
        assert abs(ln_chi(self.pair, 2, 1.0)) < 1e-14

    def test_qm1(self):
        expect = math.log(1 / 0.3 + 1 / 0.7)
        assert math.isclose(ln_chi(self.pair, 2, -1.0), expect, abs_tol=1e-13)

    def test_q0_counts_boxes(self):
        assert ln_chi(random_series(0).values, 10, 0.0) == math.log(24.0)

    @pytest.mark.parametrize("q", [-120.0, -7.0, 0.5, 3.0, 120.0])
    def test_against_high_precision_oracle(self, q):
        values = random_series(5, T=24).values
        with mpmath.workdps(60):
            u = [mpmath.exp(mpmath.mpf(float(lw))) for lw in box_log_weights(values, 4)[1]]
            expect = float(mpmath.log(mpmath.fsum(ui ** mpmath.mpf(q) for ui in u)))
        assert math.isclose(ln_chi(values, 4, q), expect, abs_tol=1e-12)

    def test_no_overflow_at_extreme_q(self):
        # smallest weight ~1e-3: |q ln u| ~ 830, far beyond exp range
        vals = np.full(240, 1.0)
        vals[0] = 1e-3 * 239 / (1 - 1e-3)  # u_0 close to 1e-3
        assert np.exp(box_log_weights(vals, 1)[1]).min() < 2e-3
        for q in (-120.0, 120.0):
            assert math.isfinite(ln_chi(vals, 1, q))


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
        # Step 0.5 keeps q = 3.5 and every other order -120..120 on the grid.
        scheme, grid = derive_box_scheme(240), MomentGrid.from_range(q_step=0.5)
        ends = [scheme.sizes.index(1), scheme.sizes.index(240)]
        a = partition_surface(s, scheme, grid).log_chi[:, ends]
        assert np.array_equal(a, partition_surface(shuffled, scheme, grid).log_chi[:, ends])

    def test_finite_everywhere_for_cascade_contrast(self):
        from mfbox.synth import CascadeSpec, binomial_cascade

        c = binomial_cascade(CascadeSpec(p=0.7, levels=10))
        surf = partition_surface(c, derive_box_scheme(1024), MomentGrid.from_range())
        assert np.all(np.isfinite(surf.log_chi))

    def test_scheme_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            partition_surface(random_series(0, T=120), derive_box_scheme(240),
                              MomentGrid.from_range())

    def test_rejects_broken_matrix(self, monkeypatch):
        # The guard runs where the surface is computed, so break the kernel it calls.
        grid = MomentGrid.from_range()

        def broken(values, sizes, q, out):
            log_chi_columns(values, sizes, q, out)
            out[..., grid.index_of(1.0), 0] = 0.5

        monkeypatch.setattr(mfbox.partition, "log_chi_columns", broken)
        with pytest.raises(ValueError, match="^ln chi at q=1 deviates from 0 beyond 1e-12$"):
            partition_surface(random_series(0), derive_box_scheme(240), grid)


COMPOSITE_LENGTHS = [T for T in range(4, 513) if any(T % d == 0 for d in range(2, T))]


@st.composite
def days_and_permutations(draw):
    """A day of composite length 4..512 with magnitudes in [1e-300, 1e300], and a permutation of it.

    A prime length has only the sizes (1, T), which no box scheme accepts. The cap of
    1e300 keeps T * max finite, so every box mass is finite.
    """
    T = draw(st.sampled_from(COMPOSITE_LENGTHS))
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


# Row lengths on both sides of numpy's 8-term pairwise-summation block, and two long ones.
ROW_LENGTHS = list(range(1, 21)) + [120, 2048]


@st.composite
def batches(draw, min_length=1):
    """A batch shape (k,) or (2, k) with k in 1..9, a row length and a seeded generator."""
    k = draw(st.integers(1, 9))
    shape = draw(st.sampled_from([(k,), (2, k)]))
    n = draw(st.sampled_from([n for n in ROW_LENGTHS if n >= min_length]))
    return shape, n, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


def magnitudes(rng, shape):
    return 10.0 ** rng.uniform(-50.0, 50.0, shape)


def log_moment_sums_by_plain_numpy(log_weights, q):
    """``_log_moment_sums`` with a broadcast product q * ln u and numpy's sum over each row."""
    z = np.sort(log_weights)[..., None, :] * q[:, None]
    shift = np.where(q >= 0.0, z[..., -1], z[..., 0])
    z -= shift[..., None]
    np.exp(z, out=z)
    return shift + np.log(z.sum(axis=-1))


class TestLogMomentSums:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(batches(), st.sampled_from([np.arange(-120.0, 121.0, 8.0), np.arange(-8.0, 9.0),
                                       np.array([-2.5, 0.0, 1.0, 3.5])]), st.integers(0, 3))
    def test_same_bits_as_plain_numpy(self, batch, q, zeros):
        # einsum writes +0.0 where the broadcast product gives -0.0: at q = 0, and on an
        # exact 0 (or -0) log-weight, which every N = 1 row has. Rows of N < 8 also check the
        # strided sums against numpy's.
        shape, n, rng = batch
        log_weights = box_log_weights(magnitudes(rng, shape + (n,)), 1)[1]
        cells = rng.integers(0, log_weights.size, zeros)
        log_weights.flat[cells] = rng.choice([0.0, -0.0], zeros)
        got = _log_moment_sums(log_weights, q)
        want = log_moment_sums_by_plain_numpy(log_weights, q)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBatchedRows:
    """Each array function of the replicate path gives, row by row, the bits of its 1-D call."""

    @settings(max_examples=60, deadline=None)
    @given(batches(), st.sampled_from([1, 2, 3, 5, 7, 8, 12]))
    def test_box_log_weights(self, batch, l):
        shape, n, rng = batch
        values = magnitudes(rng, shape + (n * l,))
        raw, log_weights = box_log_weights(values, l)
        assert raw.shape == log_weights.shape == shape + (n,)
        for row in np.ndindex(shape):
            raw_1, log_weights_1 = box_log_weights(values[row], l)
            assert np.array_equal(raw[row], raw_1)
            assert np.array_equal(log_weights[row], log_weights_1)

    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_log_moment_sums(self, batch):
        shape, n, rng = batch
        q = np.arange(-120.0, 121.0, 8.0)
        log_weights = box_log_weights(magnitudes(rng, shape + (n,)), 1)[1]
        sums = _log_moment_sums(log_weights, q)
        assert sums.shape == shape + (q.size,)
        for row in np.ndindex(shape):
            assert np.array_equal(sums[row], _log_moment_sums(log_weights[row], q))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 17), st.sampled_from([49, 12, 60, 240]), st.integers(0, 2 ** 32 - 1))
    def test_log_chi_columns(self, k, T, seed):
        # k from 1 up to n_q = 17, below, between and above the box sizes: each column's box
        # measure is taken on all k rows at once, its log-sum-exp l rows at a time
        values = magnitudes(np.random.default_rng(seed), (k, T))
        scheme, grid = derive_box_scheme(T), MomentGrid.from_range(-8, 8, 1.0)
        log_chi = np.full((k, grid.size, len(scheme.sizes)), np.nan)
        log_chi_columns(values, scheme.sizes, grid.q_values, log_chi)
        for row, day in zip(log_chi, values):
            assert np.array_equal(row, partition_surface(PriceSeries("d", day), scheme, grid).log_chi)

    @settings(max_examples=60, deadline=None)
    @given(batches(min_length=2))
    def test_fit_tau(self, batch):
        shape, n_l, rng = batch
        grid = MomentGrid.from_range(-8, 8, 1.0)
        q, i0, i1 = grid.q_values, grid.index_of(0.0), grid.index_of(1.0)
        ln_sizes = np.log(np.arange(1.0, n_l + 1.0))
        # (1 - q) ln N(l) plus noise that vanishes on the q = 0 and q = 1 rows
        noise = 0.01 * rng.standard_normal(shape + (q.size, n_l)) * (q * (q - 1.0))[:, None]
        log_chi = (1.0 - q)[:, None] * (np.log(2048.0) - ln_sizes) + noise
        tau = fit_tau(log_chi, ln_sizes, i0, i1)
        assert tau.shape == shape + (q.size,)
        for row in np.ndindex(shape):
            assert np.array_equal(tau[row], fit_tau(log_chi[row], ln_sizes, i0, i1))

    @settings(max_examples=60, deadline=None)
    @given(batches(min_length=2), st.integers(1, 20))
    def test_ols(self, batch, m):
        # BLAS gives a row of a matrix-vector product bits that depend on the matrix's row
        # count, so the unit that keeps its bits is one (m, n) matrix: a surface for fit_tau.
        shape, n, rng = batch
        x, y = rng.standard_normal(n), rng.standard_normal(shape + (m, n))
        slope, intercept = _ols(x, y)
        assert slope.shape == intercept.shape == shape + (m,)
        for row in np.ndindex(shape):
            slope_1, intercept_1 = _ols(x, y[row])
            assert np.array_equal(slope[row], slope_1) and np.array_equal(intercept[row], intercept_1)

    @settings(max_examples=60, deadline=None)
    @given(batches(min_length=3), st.booleans())
    def test_legendre_transform_and_its_tie_rule(self, batch, uniform):
        shape, n_q, rng = batch
        q = np.arange(n_q) - n_q // 2.0 if uniform else np.cumsum(rng.uniform(0.1, 2.0, n_q))
        # Per row: random floats, small integers (exact ties of alpha on a uniform
        # grid) or an integer line (alpha constant).
        kinds = rng.integers(0, 3, shape)[..., None]
        tau = np.where(kinds == 0, rng.standard_normal(shape + (n_q,)),
                       np.where(kinds == 1, rng.integers(0, 3, shape + (n_q,)),
                                rng.integers(-3, 4, shape + (1,)) * q + 1.0))
        alpha, f, delta_alpha, f_mid = legendre_transform(tau, q)
        assert alpha.shape == f.shape == shape + (n_q,)
        assert delta_alpha.shape == f_mid.shape == shape
        for row in np.ndindex(shape):
            alpha_1, f_1, delta_alpha_1, f_mid_1 = legendre_transform(tau[row], q)
            assert np.array_equal(alpha[row], alpha_1) and np.array_equal(f[row], f_1)
            assert delta_alpha[row] == delta_alpha_1 and f_mid[row] == f_mid_1
            i_min = np.flatnonzero(alpha_1 == alpha_1.min())[-1]
            i_max = np.flatnonzero(alpha_1 == alpha_1.max())[0]
            assert delta_alpha_1 == alpha_1[i_max] - alpha_1[i_min]
            assert f_mid_1 == 0.5 * (f_1[i_min] + f_1[i_max])

    def test_legendre_ties_pick_last_minimum_and_first_maximum_per_row(self):
        q = np.arange(-3.0, 4.0)
        # (tau row, last index of min alpha, first index of max alpha); on this
        # integer grid alpha is exact, and f differs between the tied points.
        rows = [
            ([1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0], 6, 0),  # alpha = 2 everywhere
            ([2.0, 2.0, 3.0, 3.0, 1.0, 1.0, 1.0], 4, 1),    # min at 3, 4; max at 1, 2
            ([2.0, 2.0, 1.0, 0.0, 0.0, 2.0, 2.0], 6, 4),    # min at 2, 6; max at 4, 5
            ([1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0], 6, 4),    # min at 2, 3, 6; max at 4, 5
        ]
        tau = np.array([row for row, _, _ in rows])
        alpha, f, delta_alpha, f_mid = legendre_transform(np.stack([tau, tau[::-1]]), q)
        for block, order in ((0, rows), (1, rows[::-1])):
            for r, (_, i_min, i_max) in enumerate(order):
                a, f_row = alpha[block, r], f[block, r]
                assert np.flatnonzero(a == a.min())[-1] == i_min
                assert np.flatnonzero(a == a.max())[0] == i_max
                assert delta_alpha[block, r] == a[i_max] - a[i_min]
                assert f_mid[block, r] == 0.5 * (f_row[i_min] + f_row[i_max])
