"""Mass exponents tau(q) from the power-law scaling of chi_q(l) in l.

tau(q) is the unweighted least-squares slope of ln chi_q(l) against ln l
over every scheme size; no scaling-range selection is applied. The mean
singularity slope alpha_bar is in turn the least-squares slope of tau(q)
against q, reported with its OLS standard error.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._text import atomic_write_text, fmt_float
from .partition import MomentGrid, PartitionSurface

_TAU_ANCHOR_TOL = 1e-10


@dataclass(frozen=True)
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

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.float64).copy()
        r = np.asarray(self.r, dtype=np.float64).copy()
        if tau.shape != (self.grid.size,) or r.shape != (self.grid.size,):
            raise ValueError("tau and r must match the moment grid")
        if np.max(np.abs(r)) > 1.0:
            raise ValueError("correlation coefficient outside [-1, 1]")
        tau.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "r", r)


class TauLinearityReport(NamedTuple):
    alpha_bar: float
    alpha_bar_stderr: float
    max_abs_residual_from_line: float


def _ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept, and standard error of the slope for y on x.

    Raises ValueError when every x is identical (no line can be fitted).
    """
    n = x.size
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x values identical")
    slope = float(xc @ yc) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    if n > 2:
        stderr = math.sqrt(float(resid @ resid) / (n - 2) / sxx)
    else:
        stderr = float("nan")
    return slope, intercept, stderr


def fit_mass_exponents(surface: PartitionSurface) -> MassExponents:
    """Fit tau(q) and the per-q Pearson correlations from a surface.

    All box sizes enter each fit with equal weight, including l = 1 and
    l = T. When a row of ln chi is exactly collinear (zero residual), the
    correlation is pinned to sign(slope) so perfect fits report +-1.
    """
    sizes = np.asarray(surface.scheme.sizes, dtype=np.float64)
    if sizes.size < 2:
        raise ValueError("need at least 2 box sizes to fit scaling exponents")
    x = np.log(sizes)
    xc = x - x.mean()
    sxx = float(xc @ xc)

    Y = surface.log_chi
    yc = Y - Y.mean(axis=1, keepdims=True)
    sxy = yc @ xc
    tau = sxy / sxx

    syy = np.einsum("ij,ij->i", yc, yc)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = sxy / np.sqrt(sxx * syy)
    # Exactly collinear rows: r is the slope sign. Rows flat at the surface's
    # own 1e-12 tolerance (the q=1 identity row) have no correlation to
    # measure; their slope and r are round-off, pinned to 0.
    ssr = syy - sxy ** 2 / sxx
    collinear = ssr <= 1e-14 * syy
    r[collinear] = np.sign(tau[collinear])
    flat = syy <= sizes.size * 1e-24
    r[flat] = 0.0
    r = np.clip(r, -1.0, 1.0)

    # Exact tiling forces tau(0) = -1 and tau(1) = 0 for any fitted surface;
    # a violation means the surface was built wrong.
    if abs(tau[surface.grid.index_of(1.0)]) > _TAU_ANCHOR_TOL:
        raise ValueError("tau(1) deviates from 0 beyond 1e-10")
    if abs(tau[surface.grid.index_of(0.0)] + 1.0) > _TAU_ANCHOR_TOL:
        raise ValueError("tau(0) deviates from -1 beyond 1e-10")

    alpha_bar, _, stderr = _ols_slope(surface.grid.q_values, tau)
    return MassExponents(
        grid=surface.grid, tau=tau, r=r, alpha_bar=alpha_bar, alpha_bar_stderr=stderr
    )


def tau_linearity_report(exponents: MassExponents) -> TauLinearityReport:
    """The fitted alpha_bar line through (q, tau) and the largest deviation from it.

    A small maximum residual is the direct evidence that the measure is
    monofractal (tau linear in q).
    """
    q, tau, slope = exponents.grid.q_values, exponents.tau, exponents.alpha_bar
    intercept = float(tau.mean() - slope * q.mean())
    resid = tau - (slope * q + intercept)
    return TauLinearityReport(
        alpha_bar=slope,
        alpha_bar_stderr=exponents.alpha_bar_stderr,
        max_abs_residual_from_line=float(np.max(np.abs(resid))),
    )


def write_tau_csv(exponents: MassExponents, path) -> None:
    buf = io.StringIO()
    buf.write("q,tau,r\n")
    for qi, ti, ri in zip(exponents.grid.q_values, exponents.tau, exponents.r):
        buf.write(f"{fmt_float(qi)},{fmt_float(ti)},{fmt_float(ri)}\n")
    atomic_write_text(path, buf.getvalue())
