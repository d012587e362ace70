"""Reference implementation of the box-counting chain, used to check outputs.

This is a plain restatement of the method in the package README, written
independently of ``mfbox`` and vectorized across series: box masses by
reshape-sum, ln chi_q(l) by a max-shifted log-sum-exp over the sorted
log-weights, tau(q) by least squares on ln l, alpha by quadratic-exact finite
differences, f = q*alpha - tau. Its results agree with the package to about
1e-12, far inside the 1e-9 tolerance the checks use. It is never timed.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

# Largest temporary (series x q x boxes) the log-sum-exp builds at once.
_BLOCK_ELEMENTS = 1 << 21


def replicate_seed(master_seed: int, index: int) -> int:
    """splitmix64 finalizer of master_seed + (index + 1) * golden ratio."""
    z = (int(master_seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def shuffled(values: np.ndarray, master_seed: int, count: int) -> np.ndarray:
    """(count, T) array: row i is replicate i's permutation of ``values``."""
    return np.stack([
        np.random.default_rng(replicate_seed(master_seed, i)).permutation(values)
        for i in range(count)
    ])


def log_chi(series: np.ndarray, sizes, q: np.ndarray) -> np.ndarray:
    """ln chi_q(l) for each row of ``series``: shape (rows, n_q, n_l)."""
    rows, T = series.shape
    out = np.empty((rows, q.size, len(sizes)))
    for j, l in enumerate(sizes):
        n = T // l
        mass = series.reshape(rows, n, l).sum(axis=2)
        lw = np.log(mass) - np.log(mass.sum(axis=1, keepdims=True))
        lw.sort(axis=1)
        step = max(1, _BLOCK_ELEMENTS // (q.size * n))
        for a in range(0, rows, step):
            z = q[None, :, None] * lw[a:a + step, None, :]
            top = z.max(axis=2)
            out[a:a + step, :, j] = top + np.log(np.exp(z - top[:, :, None]).sum(axis=2))
    return out


def _slope(x: np.ndarray, y: np.ndarray):
    """OLS slope, intercept and slope standard error of y (last axis) on x."""
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = (y - y.mean(axis=-1, keepdims=True)) @ xc / sxx
    intercept = y.mean(axis=-1) - slope * x.mean()
    resid = y - (slope[..., None] * x + intercept[..., None])
    stderr = np.sqrt((resid ** 2).sum(axis=-1) / (x.size - 2) / sxx) if x.size > 2 else np.nan
    return slope, intercept, stderr, resid


def analyze(series: np.ndarray, sizes, q: np.ndarray, with_tables: bool = True) -> dict:
    """The per-day quantities the package writes, for each row of ``series``."""
    chi = log_chi(series, sizes, q)
    x = np.log(np.asarray(sizes, dtype=np.float64))
    xc = x - x.mean()
    sxx = float(xc @ xc)
    yc = chi - chi.mean(axis=2, keepdims=True)
    sxy = yc @ xc
    tau = sxy / sxx
    alpha = np.gradient(tau, q, axis=1, edge_order=2)
    f = q * alpha - tau
    rows = np.arange(series.shape[0])
    # Extremum ties: last index for alpha_min, first for alpha_max.
    i_min = q.size - 1 - np.argmin(alpha[:, ::-1], axis=1)
    i_max = np.argmax(alpha, axis=1)
    out = {
        "delta_alpha": alpha[rows, i_max] - alpha[rows, i_min],
        "F": 0.5 * (f[rows, i_min] + f[rows, i_max]),
    }
    if with_tables:
        syy = (yc ** 2).sum(axis=2)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = sxy / np.sqrt(sxx * syy)
        # Same conventions as the written tables: exactly collinear rows
        # report sign(tau), rows flat to round-off report 0.
        collinear = syy - sxy ** 2 / sxx <= 1e-14 * syy
        r = np.where(collinear, np.sign(tau), r)
        r = np.clip(np.where(syy <= len(sizes) * 1e-24, 0.0, r), -1.0, 1.0)
        bar, _, stderr, resid = _slope(q, tau)
        out.update(
            log_chi=chi, tau=tau, r=r, alpha=alpha, f=f, alpha_bar=bar,
            alpha_bar_stderr=stderr, max_tau_residual=np.abs(resid).max(axis=1),
        )
    return out


def shuffle_test(values: np.ndarray, sizes, q: np.ndarray, replicates: int, master_seed: int) -> dict:
    """Original (delta_alpha, F), replicate cloud, its line and the p-values."""
    orig = analyze(values[None, :], sizes, q, with_tables=False)
    cloud = analyze(shuffled(values, master_seed, replicates), sizes, q, with_tables=False)
    d0, f0 = float(orig["delta_alpha"][0]), float(orig["F"][0])
    x, y = cloud["delta_alpha"], cloud["F"]
    k, b, _, _ = _slope(x, y[None, :])
    return {
        "delta_alpha": d0,
        "F": f0,
        "replicates": np.column_stack([x, y]),
        "k": float(k[0]),
        "b": float(b[0]),
        "p1": np.count_nonzero(d0 <= x) / replicates,
        "p2": np.count_nonzero(f0 >= y) / replicates,
    }


def close(a, b, atol: float = 1e-9) -> bool:
    """Equal within atol; None (a NaN written as null) matches only NaN/None."""
    if a is None or b is None:
        return (a is None or math.isnan(a)) and (b is None or math.isnan(b))
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol))
