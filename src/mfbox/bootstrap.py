"""Shuffle-based significance test for an extracted spectrum width.

Each replicate permutes the day's values uniformly at random, reruns the
analysis on the box sizes the permutation can change, and contributes one
(delta_alpha, F) point. The cloud of replicate points is summarized by its
least-squares line F = k*delta + b, and the original day is scored by two
one-sided p-values:

    p1 = #{delta_alpha <= delta_alpha_rnd} / B
    p2 = #{F >= F_rnd} / B

Both use non-strict comparisons and plain fractions, so exact 0 and exact 1
are attainable. Replicates are seeded independently from (master_seed,
replicate_index), which makes the whole report reproducible bit-for-bit
regardless of how replicates are scheduled across workers.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ingest import BoxScheme, PriceSeries
from .measure import box_log_weights
from .partition import MomentGrid, _log_moment_sums, check_log_chi
from .pipeline import analyze_series
from .scaling import _ols_slope, fit_tau
from .spectrum import SingularitySpectrum, legendre_transform

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    master_seed: int = 0
    significance_level: float = 0.05

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError(f"replicate count must be >= 1, got {self.replicates}")
        if not (0.0 < self.significance_level < 1.0):
            raise ValueError(f"significance level must be in (0, 1), got {self.significance_level}")


@dataclass(frozen=True)
class BootstrapReport:
    """Original (delta_alpha, F), the replicate cloud, its line, and p-values.

    ``replicates`` is a (B, 2) array of (delta_alpha_rnd, F_rnd) rows in
    replicate order. ``k``/``b`` are None when the cloud is degenerate
    (all replicate widths identical, so no line can be fitted).
    """

    day_id: str
    delta_alpha: float
    f_mid: float
    replicates: np.ndarray
    k: float | None
    b: float | None
    p1: float
    p2: float
    significant_1: bool
    significant_2: bool


def derive_replicate_seed(master_seed: int, replicate_index: int) -> int:
    """64-bit per-replicate seed: splitmix64 finalizer of the mixed inputs.

    The mix is z = master_seed + (replicate_index + 1) * 0x9E3779B97F4A7C15
    (mod 2^64) pushed through the splitmix64 finalizer (xor-shift/multiply
    constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB). Distinct replicate
    indices therefore get decorrelated, reproducible generator seeds.
    """
    z = (int(master_seed) + (int(replicate_index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def permuted_values(values: np.ndarray, replicate_index: int, master_seed: int) -> np.ndarray:
    """Uniform random permutation of ``values`` for one replicate.

    Drawn with numpy's PCG64 generator (Fisher-Yates shuffle) seeded by
    :func:`derive_replicate_seed`, so the same (seed, index) always yields
    the same permutation and the value multiset is preserved exactly.
    """
    rng = np.random.default_rng(derive_replicate_seed(master_seed, replicate_index))
    return rng.permutation(values)


def scatter_fit(replicates: np.ndarray) -> tuple[float, float]:
    """Least-squares line F_rnd = k * delta_alpha_rnd + b through the cloud.

    Raises ValueError for fewer than 2 points or a cloud whose widths are
    all identical (vertical spread only; unfittable).
    """
    pts = np.asarray(replicates, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least 2 (delta_alpha, F) replicate points")
    k, b, _ = _ols_slope(pts[:, 0], pts[:, 1])
    return k, b


def _replicate_block(
    series: PriceSeries, scheme: BoxScheme, grid: MomentGrid, master_seed: int, indices: np.ndarray
) -> list[tuple[float, float]]:
    """(delta_alpha, F) for one day's block of replicate indices; one scheduler task.

    Each replicate runs the array functions behind :func:`analyze_series`,
    every guard included, so its point equals the full chain's on the
    permuted day. Only the columns 1 < l < T are evaluated per permutation:
    the l = 1 column (summed in sorted order) and the l = T column (ln u = 0)
    are the same for every permutation and are computed once from the day.
    """
    if scheme.series_length != series.length:
        raise ValueError(f"scheme is for length {scheme.series_length}, series has {series.length}")
    q, sizes, T = grid.q_values, scheme.sizes, series.length
    i0, i1 = grid.index_of(0.0), grid.index_of(1.0)
    ln_counts = np.log(np.asarray(scheme.box_counts, dtype=np.float64))
    ln_sizes = np.log(np.asarray(sizes, dtype=np.float64))
    log_chi = np.empty((q.size, len(sizes)))
    for j, l in enumerate(sizes):
        if l in (1, T):
            log_chi[:, j] = _log_moment_sums(box_log_weights(series.values, l)[1], q)
    varying = [j for j, l in enumerate(sizes) if 1 < l < T]
    out = []
    for idx in indices:
        values = permuted_values(series.values, idx, master_seed)
        for j in varying:
            log_chi[:, j] = _log_moment_sums(box_log_weights(values, sizes[j])[1], q)
        check_log_chi(log_chi, i0, i1, ln_counts)
        tau = fit_tau(log_chi, ln_sizes, i0, i1)
        out.append(legendre_transform(tau, q)[2:])
    return out


def replicate_clouds(
    days: list[tuple[PriceSeries, BoxScheme]],
    grid: MomentGrid,
    cfg: BootstrapConfig,
    n_jobs: int = 1,
) -> list[np.ndarray]:
    """The (B, 2) replicate cloud of every (series, scheme) day, in day order.

    With n_jobs > 1 each day's replicates are split into min(4 * n_jobs, B)
    blocks and every (day, block) task runs on one process pool; otherwise
    all tasks run in this process. Replicates are keyed by index, so the
    clouds are bit-identical however the tasks are scheduled.
    """
    B = cfg.replicates
    blocks = np.array_split(np.arange(B), min(4 * n_jobs, B)) if n_jobs > 1 else [np.arange(B)]
    tasks = [(series, scheme, grid, cfg.master_seed, block)
             for series, scheme in days for block in blocks]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_replicate_block, *zip(*tasks)))
    else:
        results = [_replicate_block(*task) for task in tasks]
    points = np.asarray([pt for block in results for pt in block], dtype=np.float64)
    return list(points.reshape(len(days), B, 2))


def shuffle_report(
    day_id: str, spectrum: SingularitySpectrum, replicates: np.ndarray, cfg: BootstrapConfig
) -> BootstrapReport:
    """Score the original day's spectrum against its replicate cloud."""
    try:
        k, b = scatter_fit(replicates)
    except ValueError:
        k, b = None, None

    B = cfg.replicates
    p1 = float(np.count_nonzero(spectrum.delta_alpha <= replicates[:, 0])) / B
    p2 = float(np.count_nonzero(spectrum.f_mid >= replicates[:, 1])) / B
    if abs(p1 - p2) > 0.1:
        logger.warning("day %s: p1 = %.3f and p2 = %.3f disagree by more than 0.1", day_id, p1, p2)

    level = cfg.significance_level
    return BootstrapReport(
        day_id=day_id,
        delta_alpha=spectrum.delta_alpha,
        f_mid=spectrum.f_mid,
        replicates=replicates,
        k=k,
        b=b,
        p1=p1,
        p2=p2,
        significant_1=p1 <= level,
        significant_2=p2 <= level,
    )


def bootstrap_analysis(
    series: PriceSeries,
    scheme: BoxScheme,
    grid: MomentGrid,
    cfg: BootstrapConfig,
    n_jobs: int = 1,
) -> BootstrapReport:
    """Analyze the original day and B shuffled replicates of it.

    With n_jobs > 1 the replicates run in a process pool (see
    :func:`replicate_clouds`); the report is bit-identical to the serial one.
    """
    original = analyze_series(series, scheme, grid).spectrum
    [cloud] = replicate_clouds([(series, scheme)], grid, cfg, n_jobs)
    return shuffle_report(series.day_id, original, cloud, cfg)


@dataclass(frozen=True)
class BatchSummary:
    """Share of days whose p-values clear the significance level."""

    level: float
    pct_p1_significant: float
    pct_p2_significant: float
    per_day: list[BootstrapReport]


def batch_summary(reports: list[BootstrapReport], level: float) -> BatchSummary:
    """Fractions of days with p1 <= level and p2 <= level, plus the table."""
    if not reports:
        raise ValueError("batch summary needs at least one report")
    n = len(reports)
    return BatchSummary(
        level=level,
        pct_p1_significant=sum(r.p1 <= level for r in reports) / n,
        pct_p2_significant=sum(r.p2 <= level for r in reports) / n,
        per_day=list(reports),
    )
