"""Differential test: mfbox against the independent restatement in ``benchmarks/oracle.py``.

The golden hashes pin summation order and numpy's SIMD path; this test pins the
numbers instead. Every quantity the artifacts carry must agree with the oracle
to 1e-9 on generated days, grids and schemes, so it still holds after a change
that moves only round-off bits.
"""

from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbox import (
    BootstrapConfig,
    MomentGrid,
    PriceSeries,
    analyze_series,
    bootstrap_analysis,
    derive_box_scheme,
)
from mfbox.scaling import tau_linearity_report

ORACLE = Path(__file__).resolve().parents[1] / "benchmarks" / "oracle.py"
ATOL = 1e-9
LENGTHS = (12, 60, 96, 120, 240, 390)


def load_oracle():
    # Executed from its source text, so nothing is written next to the file.
    namespace = {"__name__": "oracle"}
    exec(compile(ORACLE.read_text(encoding="utf-8"), str(ORACLE), "exec"), namespace)
    return namespace


oracle = load_oracle()
close = oracle["close"]


def prices(kind: str, T: int, seed: int, sigma: float, exponent: int) -> np.ndarray:
    """One day of T positive prices of the given kind, scaled by 10**exponent."""
    rng = np.random.default_rng(seed)
    if kind == "walk":
        values = 100.0 * np.exp(np.cumsum(0.01 * sigma * rng.standard_normal(T)))
    elif kind == "lognormal":
        values = np.exp(sigma * rng.standard_normal(T))
    elif kind == "tied":
        values = rng.choice(1.0 + rng.integers(1, 10, rng.integers(2, 5)), T)
    else:  # near-constant: a relative spread of at most 1e-9 * sigma
        values = 7.0 * (1.0 + 1e-9 * sigma * rng.random(T))
    return values * 10.0 ** exponent


@st.composite
def cases(draw):
    T = draw(st.sampled_from(LENGTHS))
    values = prices(draw(st.sampled_from(["walk", "lognormal", "tied", "near-constant"])), T,
                    draw(st.integers(0, 2**32 - 1)), draw(st.floats(1e-4, 3.0)),
                    draw(st.integers(-200, 200)))
    divisors = [d for d in range(1, T + 1) if T % d == 0]
    boxes = draw(st.none() | st.lists(st.sampled_from(divisors), min_size=3, unique=True))
    step = draw(st.sampled_from([1.0, 0.5]))
    q_min = -step * draw(st.integers(1, int(120 / step)))
    q_max = step * draw(st.integers(int(1 / step) + 1, int(120 / step)))
    return (PriceSeries("d", values), derive_box_scheme(T, override=boxes),
            MomentGrid.from_range(q_min, q_max, step))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_day_matches_oracle(case):
    series, scheme, grid = case
    day = analyze_series(series, scheme, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = oracle["analyze"](series.values[None, :], scheme.sizes, grid.q_values)
    ex, sp = day.exponents, day.spectrum
    assert close(day.surface.log_chi, want["log_chi"][0])
    assert close(ex.tau, want["tau"][0])
    assert close(ex.r, want["r"][0])
    assert close(sp.alpha, want["alpha"][0])
    assert close(sp.f, want["f"][0])
    assert close(ex.alpha_bar, want["alpha_bar"][0])
    assert close(ex.alpha_bar_stderr, want["alpha_bar_stderr"][0])
    assert close(tau_linearity_report(ex), want["max_tau_residual"][0])
    assert close(sp.delta_alpha, want["delta_alpha"][0])
    assert close(sp.f_mid, want["F"][0])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cases(), st.integers(2, 20), st.integers(0, 2**64 - 1))
def test_shuffle_cloud_matches_oracle(case, B, seed):
    series, scheme, grid = case
    cfg = BootstrapConfig(replicates=B, master_seed=seed)
    report = bootstrap_analysis(series, scheme, grid, cfg)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = oracle["shuffle_test"](series.values, scheme.sizes, grid.q_values, B, seed)
    assert close(report.replicates, want["replicates"])
    widths, fs = want["replicates"][:, 0], want["replicates"][:, 1]
    if report.k is not None:
        # The tolerances of benchmarks/workloads.py::_tolerances, restated so that the
        # recorded benchmark reference is not loaded: moving every cloud point by up to ATOL
        # moves k by at most ATOL * (1 + |k|) / std(widths), to first order.
        tol_k = ATOL * (1.0 + abs(want["k"])) / widths.std()
        tol_b = ATOL * (1.0 + abs(want["k"])) + tol_k * abs(widths.mean())
        assert close(report.k, want["k"], tol_k)
        assert close(report.b, want["b"], tol_b)
    # A cloud point within ATOL of the original may fall on either side of it.
    if np.all(np.abs(widths - want["delta_alpha"]) > ATOL):
        assert report.p1 == want["p1"]
    if np.all(np.abs(fs - want["F"]) > ATOL):
        assert report.p2 == want["p2"]
