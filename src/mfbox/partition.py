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

from .ingest import BoxScheme, PriceSeries, frozen_array
from .measure import box_log_weights, last_axis_sums

_NORMALIZATION_TOL = 1e-12
_MAX_ORDERS = 100_000  # per regular grid; the partition arrays hold n_q rows per box size


@dataclass(frozen=True, eq=False)
class MomentGrid:
    """Strictly increasing moment orders q, at least 3; must contain exactly 0 and 1."""

    q_values: np.ndarray

    def __post_init__(self):
        q = frozen_array(self.q_values)
        if q.ndim != 1 or q.size < 3:
            raise ValueError("moment grid must be a 1-D sequence of at least 3 orders")
        if not np.all(np.isfinite(q)):
            raise ValueError("moment grid must be finite")
        if np.any(np.diff(q) <= 0.0):
            raise ValueError("moment orders must be strictly increasing (no duplicates)")
        if not np.any(q == 0.0) or not np.any(q == 1.0):
            raise ValueError("moment grid must contain q = 0 and q = 1 exactly")
        object.__setattr__(self, "q_values", q)

    @classmethod
    def from_range(cls, q_min: float = -120.0, q_max: float = 120.0, q_step: float = 1.0) -> "MomentGrid":
        """Regular grid q_min, q_min + step, ..., q_max.

        The endpoints must sit on the step lattice and the lattice must pass
        exactly through 0 and 1, otherwise the normalization rows of the
        partition surface would land between grid points. A grid of more than
        100,000 orders is rejected before it is allocated.
        """
        if not np.all(np.isfinite([q_min, q_max, q_step])):
            raise ValueError(f"q_min, q_max and q_step must be finite, "
                             f"got {q_min}, {q_max}, {q_step}")
        if not (q_min < 0.0 < 1.0 < q_max):
            raise ValueError(f"need q_min < 0 < 1 < q_max, got [{q_min}, {q_max}]")
        if q_step <= 0.0:
            raise ValueError(f"q_step must be positive, got {q_step}")
        span = (q_max - q_min) / q_step  # inf for a subnormal step
        if not span < _MAX_ORDERS:
            raise ValueError(f"q range [{q_min}, {q_max}] in steps of {q_step} has more than "
                             f"{_MAX_ORDERS:,} orders")
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
    # einsum adds each product q * ln u into a zeroed output, so a product of -0.0 comes out
    # as +0.0 (a broadcast product keeps -0.0). The sign of a zero cannot reach ln chi. In
    # z - shift, (+-0) - x is -x and x - (+-0) is x for x != 0, and a zero difference goes to
    # exp, where exp(+-0) is 1. A zero shift is added to ln sum, where +-0 + y is y for y != 0
    # and +0 for y = +0 (ln never returns -0).
    z = np.einsum("...n,q->...qn", np.sort(log_weights), q)
    # Each row q * ln u is monotone in the sorted ln u, so its maximum is an end.
    shift = np.where(q >= 0.0, z[..., -1], z[..., 0])
    z -= shift[..., None]
    np.exp(z, out=z)
    return shift + np.log(last_axis_sums(z))


def log_chi_columns(values: np.ndarray, sizes, q: np.ndarray, out: np.ndarray) -> None:
    """Write ln chi_q(l) of each of the k rows of ``values`` (k, T) into ``out`` (k, n_q, n_l).

    Serves a day (k = 1) and blocks of its replicates, which pass a view of their surfaces.
    Memory rule: the box measure of size l is taken once on all k rows, k * T / l cells, and
    its log-sum-exp runs l rows at a time, on at most the n_q * T cells of one row's l = 1
    column. Every caller passes k <= n_q rows (a day 1; a replicate block recomputes only
    l >= 2, so its masses hold k * T / l <= n_q * T / 2 cells), so no array made here exceeds
    n_q * T cells. Each row equals its one-row call bit for bit.
    """
    for j, l in enumerate(sizes):
        log_weights = box_log_weights(values, l)[1]
        for c in range(0, len(values), l):
            out[c:c + l, :, j] = _log_moment_sums(log_weights[c:c + l], q)


def partition_surface(series: PriceSeries, scheme: BoxScheme, grid: MomentGrid) -> PartitionSurface:
    """Evaluate ln chi_q(l) for every grid order and scheme size, checked by :func:`check_log_chi`.

    Each (q, l) cell depends only on its own box measure, so evaluation
    order is irrelevant; results are deterministic for identical inputs.
    """
    scheme.check_length(series.length)
    log_chi = np.empty((grid.size, len(scheme.sizes)))
    log_chi_columns(series.values[None], scheme.sizes, grid.q_values, log_chi[None])
    check_log_chi(log_chi, grid.index_of(0.0), grid.index_of(1.0), scheme.ln_counts)
    log_chi.flags.writeable = False
    return PartitionSurface(grid=grid, scheme=scheme, log_chi=log_chi)
