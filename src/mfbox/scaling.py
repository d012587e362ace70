"""Mass exponents tau(q) from the power-law scaling of chi_q(l) in l.

tau(q) is the unweighted least-squares slope of ln chi_q(l) against ln l
over every scheme size; no scaling-range selection is applied. The mean
singularity slope alpha_bar is in turn the least-squares slope of tau(q)
against q, reported with its OLS standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import MomentGrid, PartitionSurface

_TAU_ANCHOR_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MassExponents:
    """Per-q scaling exponents with their fit correlations.

    ``tau[i]`` and ``r[i]`` follow ``grid.q_values``; ``alpha_bar`` is the
    slope of tau on q and ``alpha_bar_stderr`` its OLS standard error.
    """

    grid: MomentGrid
    tau: np.ndarray
    r: np.ndarray
    alpha_bar: float
    alpha_bar_stderr: float


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slope and intercept of each row of ``y`` (..., n) against ``x`` (n,).

    Both results have the leading shape of ``y``. Raises ValueError when every x
    is identical (no line can be fitted).
    """
    xc = x - x.mean()
    sxx = xc @ xc
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x values identical")
    y_mean = y.mean(axis=-1)
    slope = (y - y_mean[..., None]) @ xc / sxx
    return slope, y_mean - slope * x.mean()


def fit_tau(log_chi: np.ndarray, ln_sizes: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """tau(q): OLS slopes of each ln chi row against ln l, anchor-checked.

    ``log_chi`` is (..., n_q, n_l) and tau (..., n_q). Exact tiling forces tau(0) = -1
    and tau(1) = 0 for every fitted surface (rows ``i0`` and ``i1``); a violation
    beyond 1e-10 means the surface was built wrong and raises ValueError.
    """
    tau = _ols(ln_sizes, log_chi)[0]
    if np.max(np.abs(tau[..., i1])) > _TAU_ANCHOR_TOL:
        raise ValueError("tau(1) deviates from 0 beyond 1e-10")
    if np.max(np.abs(tau[..., i0] + 1.0)) > _TAU_ANCHOR_TOL:
        raise ValueError("tau(0) deviates from -1 beyond 1e-10")
    return tau


def fit_mass_exponents(surface: PartitionSurface) -> MassExponents:
    """Fit tau(q) and the per-q Pearson correlations from a surface.

    All box sizes enter each fit with equal weight, including l = 1 and
    l = T. When a row of ln chi is exactly collinear (zero residual), the
    correlation is pinned to sign(slope) so perfect fits report +-1.
    """
    x, grid = surface.scheme.ln_sizes, surface.grid
    tau = fit_tau(surface.log_chi, x, grid.index_of(0.0), grid.index_of(1.0))

    xc = x - x.mean()
    sxx = float(xc @ xc)
    Y = surface.log_chi
    yc = Y - Y.mean(axis=1, keepdims=True)
    syy = np.einsum("ij,ij->i", yc, yc)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = tau * np.sqrt(sxx / syy)
    # Exactly collinear rows: r is the slope sign. Rows flat at the surface's
    # own 1e-12 tolerance (the q=1 identity row) have no correlation to
    # measure; their slope and r are round-off, pinned to 0.
    ssr = syy - tau ** 2 * sxx
    collinear = ssr <= 1e-14 * syy
    r[collinear] = np.sign(tau[collinear])
    flat = syy <= x.size * 1e-24
    r[flat] = 0.0
    r = np.clip(r, -1.0, 1.0)
    tau.flags.writeable = r.flags.writeable = False

    q = grid.q_values
    alpha_bar, intercept = _ols(q, tau)
    resid, qc = tau - (alpha_bar * q + intercept), q - q.mean()
    stderr = math.sqrt(float(resid @ resid) / (q.size - 2) / float(qc @ qc))
    return MassExponents(
        grid=grid, tau=tau, r=r, alpha_bar=float(alpha_bar), alpha_bar_stderr=stderr
    )


def tau_linearity_report(exponents: MassExponents) -> float:
    """The largest deviation of tau from its least-squares line in q (slope alpha_bar).

    A small maximum residual is the direct evidence that the measure is
    monofractal (tau linear in q).
    """
    q, tau = exponents.grid.q_values, exponents.tau
    slope, intercept = _ols(q, tau)
    return float(np.max(np.abs(tau - (slope * q + intercept))))
