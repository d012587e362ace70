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

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ingest import BoxScheme, PriceSeries
from .partition import MomentGrid, PartitionSurface, check_log_chi, log_chi_columns
from .pipeline import DayAnalysis, analyze_series
from .scaling import _ols, fit_tau
from .spectrum import legendre_transform

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


@dataclass(frozen=True, eq=False)
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


def _replicate_block(
    series: PriceSeries, surface: PartitionSurface, master_seed: int, indices: np.ndarray
) -> np.ndarray:
    """(len(indices), 2) rows of (delta_alpha, F) for one day's block; one scheduler task.

    Replicates go k at a time, as a leading axis of permuted days, through the array
    functions behind :func:`analyze_series`, so every guard checks every replicate and each
    point equals the full chain's on the permuted day. Every replicate starts from the day's
    own ``surface``: its l = 1 and l = T columns do not change under permutation, so only
    the columns 1 < l < T are recomputed, by :func:`log_chi_columns` under its memory rule.
    k = max(1, min(n_q, T // n_l)), so the block's own arrays stay within n_q * T cells too.
    """
    grid, scheme, T = surface.grid, surface.scheme, series.length
    scheme.check_length(T)
    q, i0, i1 = grid.q_values, grid.index_of(0.0), grid.index_of(1.0)
    ln_counts, ln_sizes, varying = scheme.ln_counts, scheme.ln_sizes, scheme.varying
    k = max(1, min(q.size, T // len(scheme.sizes)))
    permuted, out = np.empty((k, T)), np.empty((len(indices), 2))
    for lo in range(0, len(indices), k):
        block = indices[lo:lo + k]
        for r, i in enumerate(block):
            permuted[r] = permuted_values(series.values, i, master_seed)
        values = permuted[:len(block)]
        log_chi = np.repeat(surface.log_chi[None], len(block), axis=0)
        log_chi_columns(values, scheme.sizes[varying], q, log_chi[..., varying])
        check_log_chi(log_chi, i0, i1, ln_counts)
        tau = fit_tau(log_chi, ln_sizes, i0, i1)
        _, _, delta_alpha, f_mid = legendre_transform(tau, q)
        out[lo:lo + k, 0], out[lo:lo + k, 1] = delta_alpha, f_mid
    return out


def replicate_clouds(
    days: list[DayAnalysis], cfg: BootstrapConfig, n_jobs: int = 1
) -> list[np.ndarray]:
    """The (B, 2) replicate cloud of every analysed day, in day order.

    Each day's replicates run on the grid and box scheme of its own surface.
    n_jobs is capped at the CPUs this process may use; above 1, each day's
    replicates are split into min(4 * n_jobs, B) blocks and every (day, block)
    task runs on one process pool, otherwise all tasks run in this process.
    Replicates are keyed by index, so the clouds are bit-identical under any
    schedule.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    B, n_jobs = cfg.replicates, min(n_jobs, cpus or 1)
    blocks = np.array_split(np.arange(B), min(4 * n_jobs, B)) if n_jobs > 1 else [np.arange(B)]
    tasks = [(day.series, day.surface, cfg.master_seed, block) for day in days for block in blocks]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_replicate_block, *zip(*tasks)))
    else:
        results = [_replicate_block(*task) for task in tasks]
    n = len(blocks)
    return [np.concatenate(results[lo:lo + n]) for lo in range(0, len(results), n)]


def shuffle_report(day: DayAnalysis, replicates: np.ndarray, cfg: BootstrapConfig) -> BootstrapReport:
    """Score an analysed day's spectrum against its (B, 2) replicate cloud, B >= 1."""
    day_id, spectrum, B = day.series.day_id, day.spectrum, len(replicates)
    if B == 0:
        raise ValueError(f"day {day_id}: empty replicate cloud")
    try:
        k, b = map(float, _ols(replicates[:, 0], replicates[:, 1]))
    except ValueError:
        k, b = None, None

    p1 = float(np.count_nonzero(spectrum.delta_alpha <= replicates[:, 0])) / B
    p2 = float(np.count_nonzero(spectrum.f_mid >= replicates[:, 1])) / B

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
    day = analyze_series(series, scheme, grid)
    [cloud] = replicate_clouds([day], cfg, n_jobs)
    return shuffle_report(day, cloud, cfg)


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
