import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose

from mfbox.ingest import PriceSeries, derive_box_scheme
from mfbox.measure import box_log_weights, build_box_measure
from mfbox.synth import constant_series


def random_series(seed, T=240, sigma=1.0):
    rng = np.random.default_rng(seed)
    return PriceSeries(f"s{seed}", np.exp(sigma * rng.standard_normal(T)))


class TestExamples:
    def test_pair_boxes(self):
        m = build_box_measure(PriceSeries("d", [1.0, 2.0, 3.0, 4.0]), 2)
        assert_allclose(m.raw_mass, [3.0, 7.0], rtol=0)
        assert_allclose(np.exp(m.log_weights), [0.3, 0.7], atol=1e-15)

    def test_single_box(self):
        m = build_box_measure(PriceSeries("d", [1.0, 2.0, 3.0, 4.0]), 4)
        assert_allclose(m.raw_mass, [10.0], rtol=0)
        assert_allclose(np.exp(m.log_weights), [1.0], atol=1e-15)

    def test_uniform_measure(self):
        m = build_box_measure(constant_series(240, 5.0), 10)
        assert m.box_count == 24
        assert_allclose(m.raw_mass, np.full(24, 50.0), rtol=0)
        assert_allclose(np.exp(m.log_weights), np.full(24, 1 / 24), atol=1e-15)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_mass_conservation(self, seed):
        s = random_series(seed)
        total = math.fsum(s.values)
        for l in derive_box_scheme(240).sizes:
            m = build_box_measure(s, l)
            assert math.isclose(math.fsum(m.raw_mass), total, rel_tol=1e-12)
            # normalized weights sum to 1
            assert abs(math.fsum(np.exp(m.log_weights)) - 1.0) < 1e-12

    def test_refinement_consistency(self):
        s = random_series(11)
        fine = build_box_measure(s, 2).raw_mass
        for coarse_l in (4, 6, 10, 240):
            coarse = build_box_measure(s, coarse_l).raw_mass
            rebuilt = fine.reshape(coarse.size, coarse_l // 2).sum(axis=1)
            assert_allclose(coarse, rebuilt, rtol=1e-12)

    def test_unit_box_multiset_shuffle_invariant(self):
        s = random_series(2, T=64)
        rng = np.random.default_rng(9)
        shuffled = PriceSeries("d", rng.permutation(s.values))
        a = build_box_measure(s, 1).raw_mass
        b = build_box_measure(shuffled, 1).raw_mass
        assert np.array_equal(np.sort(a), np.sort(b))

    def test_box_count_exact(self):
        s = random_series(3)
        for l in (1, 6, 40, 240):
            assert build_box_measure(s, l).box_count == 240 // l


def fsum_box_masses(values, l):
    """Reference: each box summed with compensated summation, one box at a time."""
    return np.array([math.fsum(row) for row in values.reshape(values.size // l, l)])


class TestNumpyBoxSums:
    @pytest.mark.parametrize("T", [240, 390, 4096, 97])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_masses_match_fsum_loop(self, T, scale):
        rng = np.random.default_rng(T)
        values = scale * np.exp(3.0 * rng.standard_normal(T)) / np.exp(15.0)
        # a prime length has no scheme, only its two trivial sizes
        for l in (1, T) if T == 97 else derive_box_scheme(T).sizes:
            raw, _ = box_log_weights(values, l)
            assert_allclose(raw, fsum_box_masses(values, l), rtol=l * np.finfo(float).eps, atol=0)


class TestBitIdenticalRewrites:
    """The forms ``box_log_weights`` uses give the bits of the plainer forms they replace."""

    @pytest.mark.parametrize("l", range(1, 13))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(1, 17), st.integers(16, 60), st.sampled_from([0.01, 1.0, 50.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_box_sums_have_the_bits_of_the_reshape_sum(self, l, k, n, spread, seed):
        # Canary on numpy: its sum of fewer than 8 values runs left to right. If that order
        # changes, the strided adds of last_axis_sums for l < 8 no longer give the masses of
        # the reshape-sum. From l = 8 its pairwise order differs from the strided one.
        # n >= 16 boxes per row make a difference in order show in some mass.
        values = 10.0 ** np.random.default_rng(seed).uniform(-spread, spread, (k, n * l))
        raw, _ = box_log_weights(values, l)
        assert np.array_equal(raw, values.reshape(k, n, l).sum(axis=-1))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=300),
                  elements=st.floats(allow_nan=False)))
    def test_fsum_of_a_memoryview_equals_fsum_of_a_list(self, rows):
        def outcome(row_input):
            try:
                return math.fsum(row_input).hex()
            except (OverflowError, ValueError) as exc:  # a total past the range, or inf - inf
                return repr(exc)

        for row in rows:
            assert outcome(memoryview(row)) == outcome(row.tolist())


class TestErrors:
    def test_non_divisor(self):
        with pytest.raises(ValueError, match="divide"):
            build_box_measure(PriceSeries("d", [1.0, 2.0, 3.0]), 2)

    def test_overflowing_box_sum_raises_before_any_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="box masses must be positive and finite"):
                box_log_weights(np.full((2, 4), 1.5e308), 2)

    def test_immutability(self):
        m = build_box_measure(PriceSeries("d", [1.0, 2.0, 3.0, 4.0]), 2)
        with pytest.raises(ValueError):
            m.raw_mass[0] = 5.0
        with pytest.raises(ValueError):
            m.log_weights[0] = 0.0
