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
regardless of how replicates are scheduled across forked helpers.
"""

from __future__ import annotations

import os
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

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError(f"replicate count must be >= 1, got {self.replicates}")


@dataclass(frozen=True, eq=False)
class BootstrapReport:
    """Original (delta_alpha, F), the replicate cloud, its line, and p-values.

    ``replicates`` is a (B, 2) array of (delta_alpha_rnd, F_rnd) rows in
    replicate order. ``k``/``b`` are None when the cloud is degenerate
    (all replicate widths identical, so no line can be fitted). The report
    holds no verdict: comparing p1 and p2 with a level is left to the caller.
    """

    day_id: str
    delta_alpha: float
    f_mid: float
    replicates: np.ndarray
    k: float | None
    b: float | None
    p1: float
    p2: float


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
    k = max(1, min(n_q, T // n_l, len(indices))), so the block's own arrays stay within n_q * T
    cells too, and hold no more rows than the task has.
    """
    grid, scheme, T = surface.grid, surface.scheme, series.length
    scheme.check_length(T)
    q, i0, i1 = grid.q_values, grid.index_of(0.0), grid.index_of(1.0)
    ln_counts, ln_sizes, varying = scheme.ln_counts, scheme.ln_sizes, scheme.varying
    k = max(1, min(q.size, T // len(scheme.sizes), len(indices)))
    permuted, out = np.empty((k, T)), np.empty((len(indices), 2))
    stack = np.repeat(surface.log_chi[None], k, axis=0)  # only the varying columns are written
    for lo in range(0, len(indices), k):
        block = indices[lo:lo + k]
        for r, i in enumerate(block):
            permuted[r] = permuted_values(series.values, i, master_seed)
        values, log_chi = permuted[:len(block)], stack[:len(block)]
        log_chi_columns(values, scheme.sizes[varying], q, log_chi[..., varying])
        check_log_chi(log_chi, i0, i1, ln_counts)
        tau = fit_tau(log_chi, ln_sizes, i0, i1)
        _, _, delta_alpha, f_mid = legendre_transform(tau, q)
        out[lo:lo + k, 0], out[lo:lo + k, 1] = delta_alpha, f_mid
    return out


def _helper(first: int, stride: int, n_tasks: int, run, state: np.ndarray) -> None:
    """Body of a forked helper: call ``run`` on tasks first, first + stride, ... below n_tasks.

    It sets a task's byte in ``state`` to 1 when the task passes and to 2 when it raises, and
    stops at a task above a 2. It leaves by ``os._exit``, so none of its parent's cleanup
    runs twice.
    """
    try:
        for task in range(first, n_tasks, stride):
            if 2 in state[:task]:
                break
            try:
                run(task)
                state[task] = 1
            except Exception:  # the caller reruns the task
                state[task] = 2
    finally:
        os._exit(0)


def _run_forked(n_helpers: int, n_tasks: int, run, state: np.ndarray) -> None:
    """Fork up to ``n_helpers`` helpers on tasks 0, ..., n_tasks - 1 and reap them.

    Helper h runs tasks h, h + n_helpers, ... in ascending order and records each in the
    shared ``state`` (see :func:`_helper`). A fork that fails ends the forking, and a helper
    that dies is reaped like any other: the caller runs whatever the helpers leave. If this
    process fails itself, it kills its helpers; on every path it reaps them.
    """
    import signal

    pids = []
    try:
        for h in range(n_helpers):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                _helper(h, n_helpers, n_tasks, run, state)
            pids.append(pid)
        while pids:
            os.waitpid(pids[0], 0)
            del pids[0]
    finally:  # helpers are left only if this process failed
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def replicate_clouds(
    days: list[DayAnalysis], cfg: BootstrapConfig, n_jobs: int = 1
) -> list[np.ndarray]:
    """The (B, 2) replicate cloud of every analysed day, in day order.

    Each day's replicates run on the grid and box scheme of its own surface.
    n_jobs is capped at the CPUs this process may use and at the replicate count of all
    days. Above 1, where ``os.fork`` exists and a shared buffer can be mapped, each day's
    replicates are split into min(4 * n_jobs, B) equal blocks, and n_jobs forked helpers
    each take every n_jobs-th (day, block) task and write its rows and state byte into the
    buffer. Helpers only speed the run up: this process then runs, in task order, every
    task no helper passed, which is every task of a serial run. So the clouds, or the error
    raised, are the serial ones. Replicates are keyed by index, so the clouds are
    bit-identical under any schedule.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    B, n_jobs = cfg.replicates, min(n_jobs, cpus or 1, len(days) * cfg.replicates)
    forked = n_jobs > 1 and hasattr(os, "fork")
    blocks = np.array_split(np.arange(B), min(4 * n_jobs, B)) if forked else [np.arange(B)]
    shape, n_tasks = (len(days), B, 2), len(days) * len(blocks)

    def run(task: int) -> None:
        d, block = divmod(task, len(blocks))
        day, indices = days[d], blocks[block]
        clouds[d, indices] = _replicate_block(day.series, day.surface, cfg.master_seed, indices)

    import mmap

    try:  # the clouds, and a state byte per task: 0 not run, 1 passed, 2 raised
        shared = mmap.mmap(-1, 16 * len(days) * B + n_tasks) if forked else None
    except OSError:  # then no helper is forked
        shared = None
    if shared is None:
        clouds, state = np.empty(shape), np.zeros(n_tasks, np.uint8)
    else:
        clouds = np.ndarray(shape, buffer=shared)
        state = np.ndarray(n_tasks, np.uint8, buffer=shared, offset=clouds.nbytes)
        _run_forked(n_jobs, n_tasks, run, state)
    for task in np.flatnonzero(state != 1):
        run(int(task))
    return list(clouds)


def shuffle_report(day: DayAnalysis, replicates: np.ndarray) -> BootstrapReport:
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
    return BootstrapReport(
        day_id=day_id,
        delta_alpha=spectrum.delta_alpha,
        f_mid=spectrum.f_mid,
        replicates=replicates,
        k=k,
        b=b,
        p1=p1,
        p2=p2,
    )


def bootstrap_analysis(
    series: PriceSeries,
    scheme: BoxScheme,
    grid: MomentGrid,
    cfg: BootstrapConfig,
    n_jobs: int = 1,
) -> BootstrapReport:
    """Analyze the original day and B shuffled replicates of it.

    With n_jobs > 1 the replicates run on forked helpers (see
    :func:`replicate_clouds`); the report, or the error, is the serial one.
    """
    day = analyze_series(series, scheme, grid)
    [cloud] = replicate_clouds([day], cfg, n_jobs)
    return shuffle_report(day, cloud)
