import errno
import logging
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mfbox.bootstrap
import mfbox.partition
from mfbox.bootstrap import (
    BootstrapConfig,
    bootstrap_analysis,
    derive_replicate_seed,
    permuted_values,
    replicate_clouds,
    shuffle_report,
)
from mfbox.ingest import PriceSeries, derive_box_scheme
from mfbox.measure import box_log_weights
from mfbox.partition import MomentGrid, partition_surface
from mfbox.pipeline import analyze_series
from mfbox.scaling import _ols
from mfbox.synth import CascadeSpec, binomial_cascade, constant_series, random_positive_series

SMALL_GRID = MomentGrid.from_range(-8, 8, 1.0)
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
Q10 = MomentGrid.from_range(-10, 10, 1.0)


def walk_day(seed=0, T=240):
    return random_positive_series(T, "intraday-walk", seed=seed, sigma=0.0005, initial=15000)


def run_small(series, B=25, seed=99, n_jobs=1, grid=SMALL_GRID):
    scheme = derive_box_scheme(series.length)
    cfg = BootstrapConfig(replicates=B, master_seed=seed)
    return bootstrap_analysis(series, scheme, grid, cfg, n_jobs=n_jobs)


class TestSeeding:
    def test_mix_is_deterministic_and_64bit(self):
        a = derive_replicate_seed(12345, 7)
        assert a == derive_replicate_seed(12345, 7)
        assert 0 <= a < 2 ** 64

    def test_mix_separates_inputs(self):
        seeds = {derive_replicate_seed(s, i) for s in (0, 1, 2) for i in range(100)}
        assert len(seeds) == 300


class TestShuffle:
    def test_multiset_preserved(self):
        s = walk_day(1, T=60)
        sh = permuted_values(s.values, 0, 7)
        assert np.array_equal(np.sort(sh), np.sort(s.values))
        assert sh.shape == s.values.shape and sh.dtype == s.values.dtype

    def test_deterministic_per_index(self):
        v = walk_day(1, T=60).values
        assert np.array_equal(permuted_values(v, 3, 7), permuted_values(v, 3, 7))
        assert not np.array_equal(permuted_values(v, 3, 7), permuted_values(v, 4, 7))
        assert not np.array_equal(permuted_values(v, 3, 7), permuted_values(v, 3, 8))

    def test_length_one_is_identity(self):
        # a single value admits exactly one permutation
        out = permuted_values(np.array([5.0]), 0, 123)
        assert np.array_equal(out, [5.0])


class TestScatterFit:
    """The cloud line F = k * delta_alpha + b, fitted by shuffle_report with _ols."""

    def test_two_point_line(self):
        k, b = _ols(np.array([0.0, 0.01]), np.array([1.0, 0.7]))
        assert math.isclose(k, -30.0, rel_tol=1e-12)
        assert math.isclose(b, 1.0, rel_tol=1e-12)

    def test_quadratic_tau_family_collapses_to_closed_form(self):
        # symmetric quadratic tau with q_max = 120 gives F = 1 - 30 delta_alpha
        eps = np.linspace(1e-6, 5e-5, 40)
        pts = np.column_stack([240 * eps, 1 - eps * 120 ** 2 / 2])
        k, b = _ols(pts[:, 0], pts[:, 1])
        assert math.isclose(k, -30.0, rel_tol=1e-9)
        assert math.isclose(b, 1.0, rel_tol=1e-9)

    def test_degenerate_and_short_inputs(self):
        with pytest.raises(ValueError, match="identical"):
            _ols(np.array([0.1, 0.1]), np.array([1.0, 0.9]))
        with pytest.raises(ValueError):
            _ols(np.array([0.1]), np.array([1.0]))


class TestBootstrapAnalysis:
    def test_report_shape_and_pvalue_arithmetic(self):
        rep = run_small(walk_day(2, T=60), B=25)
        assert rep.replicates.shape == (25, 2)
        assert np.all(rep.replicates[:, 0] >= 0.0)
        # p-values are plain fractions recomputable from the cloud
        p1 = np.count_nonzero(rep.delta_alpha <= rep.replicates[:, 0]) / 25
        p2 = np.count_nonzero(rep.f_mid >= rep.replicates[:, 1]) / 25
        assert rep.p1 == p1 and rep.p2 == p2
        assert round(rep.p1 * 25) == pytest.approx(rep.p1 * 25)

    def test_p1_is_one_iff_every_replicate_at_least_as_wide(self):
        rep = run_small(walk_day(3, T=60), B=20)
        assert (rep.p1 == 1.0) == bool(np.all(rep.replicates[:, 0] >= rep.delta_alpha))

    def test_constant_series_degenerate_cloud(self):
        rep = run_small(constant_series(60, 5.0), B=10)
        # every permutation of a constant day is the day itself
        assert rep.k is None and rep.b is None
        assert rep.p1 == 1.0 and rep.p2 == 1.0

    def test_bit_identical_across_runs_and_workers(self):
        s = walk_day(4, T=120)
        a = run_small(s, B=24, n_jobs=1)
        b = run_small(s, B=24, n_jobs=1)
        c = run_small(s, B=24, n_jobs=2)
        assert np.array_equal(a.replicates, b.replicates)
        assert np.array_equal(a.replicates, c.replicates)
        assert (a.p1, a.p2, a.k, a.b) == (c.p1, c.p2, c.k, c.b)

    @pytest.mark.parametrize("n_jobs", [1, 2, 0])
    def test_scheduler_merges_in_day_and_index_order(self, n_jobs):
        days = [walk_day(10, T=60), walk_day(11, T=120), constant_series(60, 2.0, day_id="flat")]
        analyses = [analyze_series(d, grid=SMALL_GRID) for d in days]
        cfg = BootstrapConfig(replicates=9, master_seed=5)
        clouds = replicate_clouds(analyses, cfg, n_jobs=n_jobs)
        assert len(clouds) == 3
        for day, cloud in zip(days, clouds):
            scheme = derive_box_scheme(day.length)
            report = bootstrap_analysis(day, scheme, SMALL_GRID, cfg, n_jobs=n_jobs)
            assert np.array_equal(cloud, report.replicates)
            # row i is replicate i of this day, however the blocks were scheduled
            for i in (0, 4, 8):
                shuffled = PriceSeries(day.day_id, permuted_values(day.values, i, 5))
                spec = analyze_series(shuffled, scheme, SMALL_GRID).spectrum
                assert tuple(cloud[i]) == (spec.delta_alpha, spec.f_mid)

    def test_p1_close_to_p2_on_monofractal_input(self):
        rep = run_small(walk_day(5), B=100, grid=MomentGrid.from_range())
        assert abs(rep.p1 - rep.p2) <= 0.1

    def test_disagreement_is_returned_not_logged(self, caplog):
        # the CLI prints the disagreement; the library only reports p1 and p2
        c = binomial_cascade(CascadeSpec(p=0.6, levels=8))
        with caplog.at_level(logging.DEBUG):
            rep = run_small(c, B=20, grid=MomentGrid.from_range())
        assert abs(rep.p1 - rep.p2) > 0.1
        assert caplog.records == []

    def test_original_point_near_fitted_line(self):
        # exchangeable input: the original is one more draw from the cloud
        iid = random_positive_series(240, "iid-lognormal", seed=6, sigma=0.01)
        rep = run_small(iid, B=150, grid=MomentGrid.from_range())
        fitted = rep.k * rep.replicates[:, 0] + rep.b
        sd = np.std(rep.replicates[:, 1] - fitted)
        assert abs(rep.f_mid - (rep.k * rep.delta_alpha + rep.b)) <= 3 * sd


def block_size(scheme, grid):
    """Replicates per block: as many as fit in the n_q * T cells of the day's l = 1 column."""
    return max(1, min(grid.size, scheme.series_length // len(scheme.sizes)))


def replicate_case(day, grid, override=None):
    return day, derive_box_scheme(day.length, override), grid


class TestReplicatePath:
    """Replicates skip the permutation-invariant work but not the full chain's result or guards."""

    CASES = {
        "walk240": replicate_case(walk_day(12), MomentGrid.from_range()),
        "cascade4096": replicate_case(binomial_cascade(CascadeSpec(p=0.6, levels=12)),
                                      MomentGrid.from_range(-5, 5, 1.0)),
        "divisors96": replicate_case(random_positive_series(96, "iid-lognormal", seed=3, sigma=0.3),
                                     SMALL_GRID),
        # sizes (1, 7, 49): one varying column
        "square49": replicate_case(walk_day(13, T=49), SMALL_GRID),
        # Override schemes without l = 1, l = T or both: the first or the last column
        # then changes under permutation too.
        "walk240-no-1": replicate_case(walk_day(12), Q10, [2, 4, 8, 240]),
        "walk240-no-T": replicate_case(walk_day(12), Q10, [1, 2, 4, 120]),
        "walk240-no-ends": replicate_case(walk_day(12), Q10, [2, 4, 120]),
    }

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("blocks", ["1", "k", "k+1", "3k+2"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cloud_rows_equal_full_chain(self, case, blocks, n_jobs):
        day, scheme, grid = self.CASES[case]
        k = block_size(scheme, grid)
        B = {"1": 1, "k": k, "k+1": k + 1, "3k+2": 3 * k + 2}[blocks]
        [cloud] = replicate_clouds([analyze_series(day, scheme, grid)],
                                   BootstrapConfig(replicates=B, master_seed=3), n_jobs=n_jobs)
        assert cloud.shape == (B, 2)
        # every row, so the first and last replicate of every block whatever the task split
        for i in range(B):
            shuffled = PriceSeries(day.day_id, permuted_values(day.values, i, 3))
            spec = analyze_series(shuffled, scheme, grid).spectrum
            assert tuple(cloud[i]) == (spec.delta_alpha, spec.f_mid)

    @staticmethod
    def _record_box_sizes(monkeypatch):
        # Box size of every box_log_weights call the replicate path makes.
        real, sizes = mfbox.partition.box_log_weights, []

        def recording(values, box_size):
            sizes.append(box_size)
            return real(values, box_size)

        monkeypatch.setattr(mfbox.partition, "box_log_weights", recording)
        return sizes

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_invariant_columns_come_from_the_day_surface(self, case, monkeypatch):
        day, scheme, grid = self.CASES[case]
        analysis = analyze_series(day, scheme, grid)
        sizes = self._record_box_sizes(monkeypatch)
        replicate_clouds([analysis], BootstrapConfig(replicates=5, master_seed=3), n_jobs=1)
        # only 1 < l < T is summed per replicate
        assert set(sizes) == {l for l in scheme.sizes if 1 < l < day.length}

    def test_prime_length_is_rejected(self):
        # (1, 241) has no column a permutation can change, so its test could see nothing
        with pytest.raises(ValueError, match="at least 3 sizes"):
            run_small(walk_day(13, T=241), B=20, grid=MomentGrid.from_range())

    # Five replicates of a T=240 day form one block (k = 17), so replicates 1 and 2
    # sit strictly inside it; each fault below hits exactly one of them, by 3x the
    # guard's tolerance: less than the tolerance once averaged over the block.
    WALK, GRID, CFG = walk_day(14), MomentGrid.from_range(), BootstrapConfig(replicates=5, master_seed=1)

    def _run_walk(self):
        assert self.CFG.replicates < block_size(derive_box_scheme(self.WALK.length), self.GRID)
        return replicate_clouds([analyze_series(self.WALK, grid=self.GRID)], self.CFG, n_jobs=1)

    def _replicate(self, i):
        return PriceSeries(self.WALK.day_id, permuted_values(self.WALK.values, i, self.CFG.master_seed))

    def _fault_chi1_of_third_replicate(self, monkeypatch, offset):
        # Moves ln chi_1 of replicate 2, at l = 2 only, by offset.
        real, hits = mfbox.partition._log_moment_sums, []
        i1 = self.GRID.index_of(1.0)
        target = box_log_weights(self._replicate(2).values, 2)[1]

        def off_in_third_replicate(log_weights, q):
            out = real(log_weights, q)
            if log_weights.shape[-1] == target.size:
                for r in np.flatnonzero((log_weights == target).all(axis=-1)):
                    hits.append(r)
                    out[r, i1] += offset
            return out

        monkeypatch.setattr(mfbox.partition, "_log_moment_sums", off_in_third_replicate)
        return hits

    def _fault_tau0_of_second_replicate(self, monkeypatch, offset):
        # Tilts the q = 0 row of replicate 1, as fit_tau receives it, by offset per
        # unit of ln l, so its tau(0) moves by offset after the chi guard has passed.
        real, hits = mfbox.bootstrap.fit_tau, []
        i0 = self.GRID.index_of(0.0)
        target = partition_surface(self._replicate(1), derive_box_scheme(240), self.GRID).log_chi

        def off_in_second_replicate(log_chi, ln_sizes, i0_, i1_):
            log_chi = log_chi.copy()
            for r in np.flatnonzero((log_chi == target).all(axis=(-2, -1))):
                hits.append(r)
                log_chi[r, i0] += offset * (ln_sizes - ln_sizes.mean())
            return real(log_chi, ln_sizes, i0_, i1_)

        monkeypatch.setattr(mfbox.bootstrap, "fit_tau", off_in_second_replicate)
        return hits

    def test_chi1_guard_runs_per_replicate(self, monkeypatch):
        hits = self._fault_chi1_of_third_replicate(monkeypatch, 3e-12)
        with pytest.raises(ValueError, match="q=1"):
            self._run_walk()
        assert len(hits) == 1

    def test_chi1_guard_passes_without_the_fault(self, monkeypatch):
        expected = self._run_walk()
        hits = self._fault_chi1_of_third_replicate(monkeypatch, 0.0)
        assert np.array_equal(self._run_walk()[0], expected[0])
        assert len(hits) == 1

    def test_tau0_anchor_runs_per_replicate(self, monkeypatch):
        hits = self._fault_tau0_of_second_replicate(monkeypatch, 3e-10)
        with pytest.raises(ValueError, match=r"tau\(0\)"):
            self._run_walk()
        assert len(hits) == 1

    def test_tau0_anchor_passes_without_the_fault(self, monkeypatch):
        expected = self._run_walk()
        hits = self._fault_tau0_of_second_replicate(monkeypatch, 0.0)
        assert np.array_equal(self._run_walk()[0], expected[0])
        assert len(hits) == 1


def traced_peak(fn):
    """Peak bytes traced by tracemalloc during a second call of fn (the first warms caches)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReplicateMemory:
    """A block holds at most n_q * T cells per array, so memory does not grow with B."""

    def _block_peak(self, case, B, grid=None):
        day, scheme, case_grid = TestReplicatePath.CASES[case]
        surface = analyze_series(day, scheme, grid or case_grid).surface
        return traced_peak(lambda: mfbox.bootstrap._replicate_block(day, surface, 1, np.arange(B)))

    def test_peak_does_not_grow_with_the_replicate_count(self):
        assert self._block_peak("walk240", 400) <= 1.10 * self._block_peak("walk240", 40)

    @pytest.mark.parametrize("case", ["walk240", "cascade4096"])
    def test_peak_is_within_three_day_analyses(self, case):
        day, scheme, grid = TestReplicatePath.CASES[case]
        assert self._block_peak(case, 400) <= 3 * traced_peak(lambda: analyze_series(day, scheme, grid))

    def test_a_short_block_holds_only_its_own_rows(self):
        # on the default grid a block of the T = 4096 cascade holds up to 241 rows
        grid = MomentGrid.from_range()
        full = self._block_peak("cascade4096", 241, grid)
        assert self._block_peak("cascade4096", 2, grid) < 0.5 * full


class TestScoring:
    def test_p_values_divide_by_the_cloud_size(self):
        analysis = analyze_series(walk_day(15, T=60), grid=SMALL_GRID)
        spectrum = analysis.spectrum
        # 10 points: 3 at least as wide as the original, 6 with F at most the original's
        offsets = np.arange(10.0) - 6.5
        cloud = np.column_stack([spectrum.delta_alpha + 1e-3 * offsets,
                                 spectrum.f_mid + 1e-3 * (offsets + 1.0)])
        rep = shuffle_report(analysis, cloud)
        assert (rep.p1, rep.p2) == (0.3, 0.6)

    def test_empty_cloud_rejected(self):
        analysis = analyze_series(walk_day(15, T=60), grid=SMALL_GRID)
        with pytest.raises(ValueError, match="empty replicate cloud"):
            shuffle_report(analysis, np.empty((0, 2)))


def fresh_interpreter_run(n_jobs):
    """Forks, and whether multiprocessing or concurrent.futures got loaded, in a fresh
    interpreter (this one may have imported them already) running one shuffle test."""
    code = ("import os, sys\n"
            "import mfbox\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "day = mfbox.random_positive_series(60, 'intraday-walk', seed=1)\n"
            "grid = mfbox.MomentGrid.from_range(-4, 4, 1.0)\n"
            "mfbox.analyze_series(day, grid=grid)\n"
            "mfbox.bootstrap_analysis(day, mfbox.derive_box_scheme(60), grid,\n"
            f"                         mfbox.BootstrapConfig(replicates=5), n_jobs={n_jobs})\n"
            "print(len(forks), sorted(name for name in sys.modules\n"
            "                         if name.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mfbox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout


class TestWorkerCap:
    @pytest.fixture
    def forks(self, monkeypatch):
        """One entry per os.fork call, recorded in this process before the real fork."""
        forks, fork = [], os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    @staticmethod
    def usable_cpus(monkeypatch, count, cpus):
        monkeypatch.setattr(mfbox.bootstrap.os, "cpu_count", lambda: count)
        monkeypatch.setattr(mfbox.bootstrap.os, "sched_getaffinity", lambda pid: set(cpus),
                            raising=False)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, forks):
        self.usable_cpus(monkeypatch, 2, {0, 1})
        days = [analyze_series(walk_day(16, T=60), grid=SMALL_GRID)]
        cfg = BootstrapConfig(replicates=9, master_seed=4)
        [capped] = replicate_clouds(days, cfg, n_jobs=10_000)
        assert len(forks) == 2
        [serial] = replicate_clouds(days, cfg, n_jobs=1)
        assert len(forks) == 2
        assert np.array_equal(capped, serial)

    def test_one_usable_cpu_builds_no_pool(self, monkeypatch, forks):
        # a machine of 8 CPUs with this process pinned to one of them
        self.usable_cpus(monkeypatch, 8, {0})
        days = [analyze_series(walk_day(17, T=60), grid=SMALL_GRID)]
        cfg = BootstrapConfig(replicates=9, master_seed=4)
        [pinned] = replicate_clouds(days, cfg, n_jobs=2)
        assert forks == []
        [serial] = replicate_clouds(days, cfg, n_jobs=1)
        assert np.array_equal(pinned, serial)

    def test_without_fork_the_run_stays_in_process(self, monkeypatch):
        self.usable_cpus(monkeypatch, 2, {0, 1})
        days = [analyze_series(walk_day(18, T=60), grid=SMALL_GRID)]
        cfg = BootstrapConfig(replicates=9, master_seed=4)
        [serial] = replicate_clouds(days, cfg, n_jobs=1)
        monkeypatch.delattr(os, "fork")
        [unforked] = replicate_clouds(days, cfg, n_jobs=2)
        assert np.array_equal(unforked, serial)

    def test_tasks_past_a_full_token_pipe_give_the_serial_clouds(self, monkeypatch, forks):
        # 1,040 one-replicate tasks: each helper runs 520 of them on its stride
        def hung(signum, frame):
            raise TimeoutError("the forked run did not end within 60 s")

        self.usable_cpus(monkeypatch, 2, {0, 1})
        days = [analyze_series(walk_day(19, T=16), grid=MomentGrid.from_range(-2, 2, 1.0))] * 130
        cfg = BootstrapConfig(replicates=8, master_seed=6)  # 8 one-replicate blocks per day
        serial = np.stack(replicate_clouds(days, cfg, n_jobs=1))
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            forked = np.stack(replicate_clouds(days, cfg, n_jobs=2))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 2 and len(days) * cfg.replicates > 1024
        assert np.array_equal(forked, serial)

    @pytest.mark.parametrize("n_days, n_forks", [(1, 0), (2, 2)])
    def test_no_helper_is_forked_without_a_task(self, monkeypatch, forks, n_days, n_forks):
        self.usable_cpus(monkeypatch, 2, {0, 1})
        days = [analyze_series(walk_day(30 + d, T=60), grid=SMALL_GRID) for d in range(n_days)]
        cfg = BootstrapConfig(replicates=1, master_seed=8)
        pooled = replicate_clouds(days, cfg, n_jobs=2)
        assert len(forks) == n_forks
        serial = replicate_clouds(days, cfg, n_jobs=1)
        assert np.array_equal(np.stack(pooled), np.stack(serial))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_helpers_fork_while_only_python_threads_run(self, monkeypatch):
        # Python 3.12+ warns when it forks a process that has threads it did not start;
        # pooled runs rely on OpenBLAS stopping its threads before each fork
        self.usable_cpus(monkeypatch, 2, {0, 1})
        threads, fork = [], os.fork

        def counting_threads_after_fork():
            pid = fork()
            if pid:
                threads.append((len(os.listdir("/proc/self/task")), threading.active_count()))
            return pid

        monkeypatch.setattr(os, "fork", counting_threads_after_fork)
        days = [analyze_series(walk_day(40 + d, T=60), grid=SMALL_GRID) for d in range(2)]
        replicate_clouds(days, BootstrapConfig(replicates=9, master_seed=9), n_jobs=2)
        assert len(threads) == 2
        assert all(os_threads <= python_threads for os_threads, python_threads in threads)

    def test_a_first_fork_that_fails_leaves_the_serial_clouds(self, monkeypatch):
        self.usable_cpus(monkeypatch, 2, {0, 1})
        forks = []

        def failing_fork():
            forks.append(1)
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        days = [analyze_series(walk_day(50 + d, T=60), grid=SMALL_GRID) for d in range(2)]
        cfg = BootstrapConfig(replicates=9, master_seed=5)
        serial = replicate_clouds(days, cfg, n_jobs=1)
        monkeypatch.setattr(os, "fork", failing_fork)
        pooled = replicate_clouds(days, cfg, n_jobs=2)
        assert len(forks) == 1
        assert np.array_equal(np.stack(pooled), np.stack(serial))

    def test_killed_helpers_leave_the_serial_clouds(self, monkeypatch, forks):
        self.usable_cpus(monkeypatch, 2, {0, 1})
        days = [analyze_series(walk_day(52 + d, T=60), grid=SMALL_GRID) for d in range(2)]
        cfg = BootstrapConfig(replicates=9, master_seed=5)
        serial = replicate_clouds(days, cfg, n_jobs=1)
        caller, block = os.getpid(), mfbox.bootstrap._replicate_block

        def killed_in_a_helper(series, surface, master_seed, indices):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return block(series, surface, master_seed, indices)

        monkeypatch.setattr(mfbox.bootstrap, "_replicate_block", killed_in_a_helper)
        pooled = replicate_clouds(days, cfg, n_jobs=2)
        assert len(forks) == 2
        assert np.array_equal(np.stack(pooled), np.stack(serial))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failing_task_stops_the_run_before_a_clean_run_ends(self, monkeypatch, forks):
        self.usable_cpus(monkeypatch, 2, {0, 1})
        days = [analyze_series(walk_day(20 + d)) for d in range(4)]  # the default q grid
        cfg = BootstrapConfig(replicates=200, master_seed=7)
        start = time.perf_counter()
        replicate_clouds(days, cfg, n_jobs=2)
        clean = time.perf_counter() - start
        block = mfbox.bootstrap._replicate_block

        def first_task_fails(series, surface, master_seed, indices):
            if series is days[0].series and indices[0] == 0:
                raise ValueError("task 0 failed")
            return block(series, surface, master_seed, indices)

        monkeypatch.setattr(mfbox.bootstrap, "_replicate_block", first_task_fails)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^task 0 failed$"):
            replicate_clouds(days, cfg, n_jobs=2)
        assert time.perf_counter() - start < clean
        assert len(forks) == 4

    def test_serial_runs_do_not_load_the_process_pool(self):
        assert fresh_interpreter_run(1) == "0 []\n"

    @pytest.mark.skipif(USABLE_CPUS < 2, reason="needs two usable CPUs")
    def test_pooled_runs_fork_without_multiprocessing(self):
        assert fresh_interpreter_run(2) == "2 []\n"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="replicate count must be >= 1, got 0"):
            BootstrapConfig(replicates=0)
