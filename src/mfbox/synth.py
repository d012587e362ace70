"""Synthetic control series with known spectra.

Negative controls: a constant series (exactly linear tau), i.i.d. lognormal
noise, and an exponentiated random walk shaped like an intraday index path.
Positive control: the binomial multiplicative cascade, whose mass exponents
have the closed form tau(q) = -log2(p^q + (1-p)^q) -- the oracle the
empirical pipeline is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import PriceSeries

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class CascadeSpec:
    """Recursive splitting rule: fraction p left, 1-p right, k levels deep.

    p = 0.5 degenerates to the uniform (constant) measure; any other p in
    (0, 1) yields a genuinely multifractal limit measure.
    """

    p: float
    levels: int
    total_mass: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"split fraction must be in (0, 1), got {self.p}")
        if self.levels < 1:
            raise ValueError(f"need at least 1 level, got {self.levels}")
        if not (self.total_mass > 0.0 and np.isfinite(self.total_mass)):
            raise ValueError(f"total mass must be positive and finite, got {self.total_mass}")


def constant_series(length: int, value: float, day_id: str = "constant") -> PriceSeries:
    """All bars equal ``value``; the exact monofractal reference."""
    if not (value > 0.0 and np.isfinite(value)):
        raise ValueError(f"value must be positive and finite, got {value}")
    return PriceSeries(day_id=day_id, values=np.full(int(length), float(value)))


def random_positive_series(
    length: int,
    kind: str,
    seed: int,
    sigma: float = 0.01,
    initial: float = 1.0,
    day_id: str | None = None,
) -> PriceSeries:
    """Seeded positive noise of the requested shape.

    ``iid-lognormal``: independent initial * exp(sigma * z_t).
    ``intraday-walk``: initial * exp(cumsum(sigma * z_t)), an index-like
    path whose per-bar log steps are zero-mean.
    """
    T = int(length)
    if T < 2:
        raise ValueError(f"length must be >= 2, got {T}")
    if not (sigma > 0.0 and np.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not (initial > 0.0 and np.isfinite(initial)):
        raise ValueError(f"initial value must be positive and finite, got {initial}")

    rng = np.random.default_rng(seed)
    if kind == "iid-lognormal":
        log_steps = sigma * rng.standard_normal(T)
    elif kind == "intraday-walk":
        log_steps = np.cumsum(sigma * rng.standard_normal(T))
    else:
        raise ValueError(f"unknown kind {kind!r}; expected 'iid-lognormal' or 'intraday-walk'")
    with np.errstate(over="ignore"):  # an overflow gives inf, which PriceSeries rejects
        values = initial * np.exp(log_steps)

    return PriceSeries(day_id=day_id or f"{kind}-{seed}", values=values)


def binomial_cascade(spec: CascadeSpec, seed: int | None = None) -> PriceSeries:
    """Leaf masses of a k-level binomial cascade, left to right.

    With ``seed`` None the orientation is deterministic (fraction p always
    to the left child), which keeps the measure exactly self-similar so the
    closed-form tau applies without sampling noise. A seed randomizes the
    orientation per node; the leaf multiset and the spectrum are unchanged.
    """
    rng = np.random.default_rng(seed) if seed is not None else None
    masses = np.asarray([spec.total_mass], dtype=np.float64)
    for _ in range(spec.levels):
        left = np.full(masses.size, spec.p)
        if rng is not None:
            flip = rng.integers(0, 2, size=masses.size).astype(bool)
            left[flip] = 1.0 - spec.p
        children = np.empty(2 * masses.size, dtype=np.float64)
        children[0::2] = masses * left
        children[1::2] = masses * (1.0 - left)
        masses = children
    day_id = f"cascade-p{spec.p}-k{spec.levels}" + ("" if seed is None else f"-s{seed}")
    return PriceSeries(day_id=day_id, values=masses)


def analytic_binomial_tau(p: float, q) -> np.ndarray | float:
    """Closed-form mass exponents of the binomial cascade.

    tau(q) = -log2(p^q + (1-p)^q), evaluated via log-add-exp so extreme
    orders stay finite.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p}")
    q_arr = np.asarray(q, dtype=np.float64)
    tau = -np.logaddexp(q_arr * np.log(p), q_arr * np.log1p(-p)) / _LN2
    return tau if tau.ndim else float(tau)


def analytic_binomial_alpha(p: float, q) -> np.ndarray | float:
    """Closed-form singularity strength alpha(q) = dtau/dq of the cascade.

    alpha(q) = -(w * ln p + (1 - w) * ln(1-p)) / ln 2 with the moment weight
    w = p^q / (p^q + (1-p)^q), computed as a stable sigmoid.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p}")
    q_arr = np.asarray(q, dtype=np.float64)
    d = q_arr * (np.log(p) - np.log1p(-p))
    w = np.where(d >= 0, 1.0 / (1.0 + np.exp(-d)), np.exp(d) / (1.0 + np.exp(d)))
    alpha = -(w * np.log(p) + (1.0 - w) * np.log1p(-p)) / _LN2
    return alpha if alpha.ndim else float(alpha)
