"""Singularity spectrum (alpha, f(alpha)) via the Legendre transform of tau.

alpha(q) = dtau/dq is evaluated with finite differences on the moment grid:
quadratic-exact central differences at interior points (non-uniform spacing
supported) and quadratic-exact one-sided differences at the two endpoints.
f is then defined through the transform identity f = q * alpha - tau, which
therefore holds exactly by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import MomentGrid
from .scaling import MassExponents


@dataclass(frozen=True, eq=False)
class SingularitySpectrum:
    """alpha(q), f(alpha(q)), and the two scalar diagnostics.

    ``delta_alpha`` is the spectrum width max(alpha) - min(alpha);
    ``f_mid`` is [f(alpha_min) + f(alpha_max)] / 2, the quantity paired
    with delta_alpha by the shuffle test's scatter law.
    """

    grid: MomentGrid
    alpha: np.ndarray
    f: np.ndarray
    delta_alpha: float
    f_mid: float


def legendre_transform(tau: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """alpha, f, delta_alpha and f_mid of mass exponents ``tau`` on grid ``q``.

    ``tau`` is (..., n_q): alpha and f share its shape, the two scalars its leading shape.
    alpha_min and alpha_max are taken over the whole grid rather than assumed to sit at
    the extreme q. f at each extremum is read at the grid point achieving it; when several
    points tie exactly, the one nearest the extreme q wins (largest q for alpha_min,
    smallest for alpha_max), matching where each extremum lives for a concave tau.
    """
    alpha = np.gradient(tau, q, axis=-1, edge_order=2)
    f = q * alpha - tau

    i_min = q.size - 1 - np.argmin(alpha[..., ::-1], axis=-1)  # the last minimum
    i_max = np.argmax(alpha, axis=-1)  # the first maximum
    a_ends, f_ends = (np.take_along_axis(a, np.stack([i_min, i_max], -1), -1) for a in (alpha, f))
    return alpha, f, a_ends[..., 1] - a_ends[..., 0], 0.5 * (f_ends[..., 0] + f_ends[..., 1])


def legendre_spectrum(exponents: MassExponents) -> SingularitySpectrum:
    """Transform fitted mass exponents into the singularity spectrum."""
    alpha, f, delta_alpha, f_mid = legendre_transform(exponents.tau, exponents.grid.q_values)
    alpha.flags.writeable = f.flags.writeable = False
    return SingularitySpectrum(
        grid=exponents.grid, alpha=alpha, f=f, delta_alpha=float(delta_alpha), f_mid=float(f_mid)
    )
