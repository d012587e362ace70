"""Box measure of a positive series: per-box mass and normalized log-weights.

For box size l dividing the series length T, the series tiles into N = T/l
non-overlapping boxes and the mass of box n is the sum of its l values.
Downstream moment computation never touches the raw weights u_n, only
ln u_n = ln mass_n - ln total, so extreme moment orders stay in a safe
floating range for either sign of q. Boxes are summed with numpy; only the
total is a compensated sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import PriceSeries


@dataclass(frozen=True, eq=False)
class BoxMeasure:
    """Masses and log-weights of one (series, box size) tiling.

    ``raw_mass[n]`` is the sum of the values in box n; ``log_weights[n]`` is
    ln(raw_mass[n] / sum(raw_mass)). exp(log_weights) sums to 1 to 1e-12.
    """

    box_size: int
    raw_mass: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        for name in ("raw_mass", "log_weights"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.raw_mass.size == 0 or self.raw_mass.size != self.log_weights.size:
            raise ValueError("raw_mass and log_weights must be equal-length and non-empty")
        if np.any(self.raw_mass <= 0.0) or not np.all(np.isfinite(self.raw_mass)):
            raise ValueError("box masses must be positive and finite")

    @property
    def box_count(self) -> int:
        return int(self.raw_mass.size)


def box_log_weights(values: np.ndarray, box_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Box masses of ``values`` tiled into boxes of ``box_size`` and their log-weights.

    ``values`` is (..., T) with any leading batch axes; both results are (..., T / l).
    Boxes are summed with numpy (relative error at most l * eps) and normalised by the
    compensated sum (math.fsum) of each row's masses: the weights sum to 1 to 1e-12, the
    l = 1 weights do not depend on the value order, and the l = T log-weight is exactly 0.
    """
    l = int(box_size)
    T = values.shape[-1]
    if l < 1 or T % l != 0:
        raise ValueError(f"box size {l} does not divide series length {T}")
    raw = values.reshape(*values.shape[:-1], T // l, l).sum(axis=-1)
    norms = [math.log(math.fsum(row.tolist())) for row in raw.reshape(-1, T // l)]
    return raw, np.log(raw) - np.reshape(norms, raw.shape[:-1] + (1,))


def build_box_measure(series: PriceSeries, box_size: int) -> BoxMeasure:
    """Tile ``series`` into boxes of ``box_size`` samples and sum each box."""
    raw, log_weights = box_log_weights(series.values, box_size)
    return BoxMeasure(box_size=int(box_size), raw_mass=raw, log_weights=log_weights)
