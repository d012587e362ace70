"""Log partition function ln chi_q(l) over a (moment order, box size) grid.

chi_q(l) = sum_n u_n^q with u_n the normalized box weights. Everything is
evaluated in log space with a max-shifted log-sum-exp on q * ln(u_n), which
is finite for q of either sign even when |q * ln(u_n)| is far beyond the
naive floating range. The exponential terms are always summed in the sorted
order of ln(u_n), so the result depends only on the weight multiset: any
permutation of the input values gives bit-identical values wherever the box
masses themselves are permutation-invariant (l = 1 and l = T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import BoxScheme, PriceSeries
from .measure import BoxMeasure, build_box_measure

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MomentGrid:
    """Strictly increasing moment orders q; must contain exactly 0 and 1."""

    q_values: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_values, dtype=np.float64).copy()
        if q.ndim != 1 or q.size < 2:
            raise ValueError("moment grid must be a 1-D sequence of at least 2 orders")
        if not np.all(np.isfinite(q)):
            raise ValueError("moment grid must be finite")
        if np.any(np.diff(q) <= 0.0):
            raise ValueError("moment orders must be strictly increasing (no duplicates)")
        if not np.any(q == 0.0) or not np.any(q == 1.0):
            raise ValueError("moment grid must contain q = 0 and q = 1 exactly")
        q.flags.writeable = False
        object.__setattr__(self, "q_values", q)

    @classmethod
    def from_range(cls, q_min: float = -120.0, q_max: float = 120.0, q_step: float = 1.0) -> "MomentGrid":
        """Regular grid q_min, q_min + step, ..., q_max.

        The endpoints must sit on the step lattice and the lattice must pass
        exactly through 0 and 1, otherwise the normalization rows of the
        partition surface would land between grid points.
        """
        if not (q_min < 0.0 < 1.0 < q_max):
            raise ValueError(f"need q_min < 0 < 1 < q_max, got [{q_min}, {q_max}]")
        if q_step <= 0.0:
            raise ValueError(f"q_step must be positive, got {q_step}")
        i_min = round(q_min / q_step)
        i_max = round(q_max / q_step)
        i_one = round(1.0 / q_step)
        idx = np.arange(i_min, i_max + 1, dtype=np.float64)
        values = idx * q_step
        if abs(values[0] - q_min) > 1e-9 or abs(values[-1] - q_max) > 1e-9:
            raise ValueError(f"q range [{q_min}, {q_max}] is not a multiple of step {q_step}")
        if np.float64(i_one) * q_step != 1.0:
            raise ValueError(f"q_step {q_step} does not hit q = 1 exactly")
        return cls(q_values=values)

    @property
    def size(self) -> int:
        return int(self.q_values.size)

    def index_of(self, q: float) -> int:
        hits = np.flatnonzero(self.q_values == q)
        if hits.size == 0:
            raise ValueError(f"q = {q} not on the grid")
        return int(hits[0])


@dataclass(frozen=True, eq=False)
class PartitionSurface:
    """ln chi_q(l): rows follow the moment grid, columns the box scheme."""

    grid: MomentGrid
    scheme: BoxScheme
    log_chi: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.log_chi, dtype=np.float64).copy()
        nq, nl = self.grid.size, len(self.scheme.sizes)
        if mat.shape != (nq, nl):
            raise ValueError(f"log_chi shape {mat.shape} != (n_q, n_l) = {(nq, nl)}")
        check_log_chi(mat, self.grid.index_of(0.0), self.grid.index_of(1.0),
                      np.log(np.asarray(self.scheme.box_counts, dtype=np.float64)))
        mat.flags.writeable = False
        object.__setattr__(self, "log_chi", mat)


def check_log_chi(log_chi: np.ndarray, i0: int, i1: int, ln_counts: np.ndarray) -> None:
    """Raise ValueError unless ln chi is finite, chi_1 = 1 and chi_0 = N(l) to 1e-12.

    ``log_chi`` is (..., n_q, n_l), every surface checked; rows ``i0`` and ``i1`` hold
    q = 0 and q = 1, and ``ln_counts`` is ln N(l) per column.
    """
    if not np.all(np.isfinite(log_chi)):
        raise ValueError("partition surface contains non-finite entries")
    if np.max(np.abs(log_chi[..., i1, :])) > _NORMALIZATION_TOL:
        raise ValueError("ln chi at q=1 deviates from 0 beyond 1e-12")
    if np.max(np.abs(log_chi[..., i0, :] - ln_counts)) > _NORMALIZATION_TOL:
        raise ValueError("ln chi at q=0 deviates from ln N(l) beyond 1e-12")


def _log_moment_sums(log_weights: np.ndarray, q: np.ndarray) -> np.ndarray:
    """ln sum_n exp(q * ln u_n) for every q, summing in canonical order.

    (..., N) log-weights give (..., n_q) sums, each row reduced as its own call would be.
    """
    z = np.sort(log_weights)[..., None, :] * q[:, None]
    # Each row q * ln u is monotone in the sorted ln u, so its maximum is an end.
    shift = np.where(q >= 0.0, z[..., -1], z[..., 0])
    z -= shift[..., None]
    np.exp(z, out=z)
    return shift + np.log(z.sum(axis=-1))


def log_partition_value(measure: BoxMeasure, q: float) -> float:
    """ln chi_q for one box measure and one moment order.

    Computed as s + ln sum_n exp(q * ln u_n - s) with s the largest
    exponent, so the value stays finite for any q of either sign. Exact
    weight normalization makes the q = 1 value 0 up to round-off.
    """
    return float(_log_moment_sums(measure.log_weights, np.asarray([float(q)]))[0])


def partition_surface(series: PriceSeries, scheme: BoxScheme, grid: MomentGrid) -> PartitionSurface:
    """Evaluate ln chi_q(l) for every grid order and scheme size.

    Each (q, l) cell depends only on its own box measure, so evaluation
    order is irrelevant; results are deterministic for identical inputs.
    """
    if scheme.series_length != series.length:
        raise ValueError(
            f"scheme is for length {scheme.series_length}, series has {series.length}"
        )
    q = grid.q_values
    columns = []
    for l in scheme.sizes:
        m = build_box_measure(series, l)
        columns.append(_log_moment_sums(m.log_weights, q))
    return PartitionSurface(grid=grid, scheme=scheme, log_chi=np.column_stack(columns))
