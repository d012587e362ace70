import errno
import json
import logging
import mmap
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mfbox
import mfbox.cli
from mfbox.bootstrap import BootstrapConfig, bootstrap_analysis
from mfbox.cli import main, write_series_csv
from mfbox.ingest import PriceSeries, derive_box_scheme, parse_intraday_csv, segment_by_day
from mfbox.partition import MomentGrid
from mfbox.pipeline import analyze_series
from mfbox.synth import CascadeSpec, binomial_cascade, constant_series, random_positive_series


def run(*argv):
    return main(list(argv))


def cli_process(*argv, address_space=None):
    """Run the CLI in a fresh interpreter, so stderr holds everything it prints, warnings too.

    ``address_space`` (bytes) caps the child's virtual memory, so an allocation past it
    fails at once instead of taking real memory.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(mfbox.__file__).parents[1]))

    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS,
                           (address_space, resource.getrlimit(resource.RLIMIT_AS)[1]))

    return subprocess.run([sys.executable, "-m", "mfbox.cli", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=cap if address_space else None)


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def walk_csv(tmp_path):
    path = tmp_path / "walk.csv"
    code = run("synth", "--kind", "intraday-walk", "--out", str(path),
               "--length", "240", "--sigma", "0.0005", "--initial", "15000",
               "--seed", "5", "--days", "3")
    assert code == 0
    return path


class TestSynthAndAnalyze:
    def test_constant_control_summary(self, tmp_path):
        csv = tmp_path / "const.csv"
        assert run("synth", "--kind", "constant", "--out", str(csv),
                   "--length", "240", "--value", "5.0") == 0
        out = tmp_path / "out"
        assert run("analyze", "--input", str(csv), "--outdir", str(out)) == 0
        summary = json.loads((out / "2000-01-03" / "summary.json").read_text())
        assert summary["delta_alpha"] <= 1e-9
        assert abs(summary["F"] - 1.0) <= 1e-9
        assert abs(summary["alpha_bar"] - 1.0) <= 1e-9
        assert (out / "2000-01-03" / "tau.csv").exists()
        assert (out / "2000-01-03" / "spectrum.csv").exists()

    def test_surface_export_flag(self, walk_csv, tmp_path):
        out = tmp_path / "out"
        assert run("analyze", "--input", str(walk_csv), "--outdir", str(out),
                   "--q-min", "-8", "--q-max", "8", "--export", "surface") == 0
        day_dirs = sorted(p.name for p in out.iterdir())
        assert day_dirs == ["2000-01-03", "2000-01-04", "2000-01-05"]
        assert (out / "2000-01-03" / "surface.csv").exists()

    def test_cascade_day_width_matches_truncated_analytic(self, tmp_path):
        from mfbox.synth import analytic_binomial_alpha

        csv = tmp_path / "casc.csv"
        assert run("synth", "--kind", "cascade", "--out", str(csv),
                   "--p", "0.6", "--levels", "12") == 0
        out = tmp_path / "out"
        assert run("analyze", "--input", str(csv), "--outdir", str(out)) == 0
        summary = json.loads((out / "2000-01-03" / "summary.json").read_text())
        analytic = analytic_binomial_alpha(0.6, -120.0) - analytic_binomial_alpha(0.6, 120.0)
        assert abs(summary["delta_alpha"] - analytic) / analytic < 0.15


def read_table(path):
    lines = path.read_text().splitlines()
    return lines[0], np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def analyze_via_cli(tmp_path, day, *flags):
    """Write ``day`` as CSV, run ``mfbox analyze`` on it and return the day's output dir."""
    write_series_csv([day], tmp_path / "in.csv")
    assert run("analyze", "--input", str(tmp_path / "in.csv"), "--outdir", str(tmp_path / "out"),
               *flags) == 0
    return tmp_path / "out" / day.day_id


def shuffle_via_cli(tmp_path, days, B, *flags):
    """``mfbox shuffle-test`` on ``days`` (seed 99, q = -8..8), beside the in-memory reports."""
    write_series_csv(days, tmp_path / "in.csv")
    assert run("shuffle-test", "--input", str(tmp_path / "in.csv"), "--outdir",
               str(tmp_path / "out"), "--bootstrap", str(B), "--seed", "99",
               "--q-min", "-8", "--q-max", "8", *flags) == 0
    cfg = BootstrapConfig(replicates=B, master_seed=99)
    grid = MomentGrid.from_range(-8, 8, 1.0)
    return tmp_path / "out", [bootstrap_analysis(d, derive_box_scheme(d.length), grid, cfg)
                              for d in days]


def walk_day(seed, T=60):
    return random_positive_series(T, "intraday-walk", seed=seed, sigma=0.0005, initial=15000)


class TestAnalysisTables:
    def test_surface_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        day = PriceSeries("2001-01-02", np.exp(rng.standard_normal(12)))
        day_dir = analyze_via_cli(tmp_path, day, "--q-min", "-3", "--q-max", "3",
                                  "--export", "surface")
        surf = analyze_series(day, derive_box_scheme(12), MomentGrid(np.arange(-3.0, 4.0))).surface
        header, body = read_table(day_dir / "surface.csv")
        assert header == "q," + ",".join(str(l) for l in surf.scheme.sizes)
        assert_allclose(body[:, 0], surf.grid.q_values, rtol=0, atol=0)
        assert_allclose(body[:, 1:], surf.log_chi, rtol=1e-11, atol=1e-11)

    def test_spectrum_csv(self, tmp_path):
        day = constant_series(12, 1.0, day_id="2001-01-02")
        day_dir = analyze_via_cli(tmp_path, day, "--q-min", "-3", "--q-max", "3")
        spec = analyze_series(day, grid=MomentGrid(np.arange(-3.0, 4.0))).spectrum
        header, body = read_table(day_dir / "spectrum.csv")
        assert header == "q,alpha,f"
        assert_allclose(body[:, 1], spec.alpha, atol=1e-11)
        assert_allclose(body[:, 2], spec.f, atol=1e-11)

    def test_tau_csv(self, tmp_path):
        day = constant_series(12, 2.0, day_id="2001-01-02")
        me = analyze_series(day).exponents
        header, body = read_table(analyze_via_cli(tmp_path, day) / "tau.csv")
        assert header == "q,tau,r"
        assert body.shape == (me.grid.size, 3)
        assert_allclose(body[:, 1], me.tau, atol=1e-11)


class TestSerialization:
    def test_report_dict_keys(self, tmp_path):
        day = walk_day(7)
        out, [rep] = shuffle_via_cli(tmp_path / "a", [day], 8)
        d = json.loads((out / day.day_id / "shuffle_test.json").read_text())
        assert set(d) == {"day", "delta_alpha", "F", "k", "b", "p1", "p2",
                          "significant_1", "significant_2"}
        assert_allclose([d["p1"], d["p2"]], [rep.p1, rep.p2], rtol=1e-11)

    def test_degenerate_kb_serialize_as_null(self, tmp_path):
        day = constant_series(60, 1.0, day_id="2001-01-02")
        out, [rep] = shuffle_via_cli(tmp_path, [day], 5)
        loaded = json.loads((out / day.day_id / "shuffle_test.json").read_text())
        assert rep.k is None and rep.b is None
        assert loaded["k"] is None and loaded["b"] is None
        assert loaded["p1"] == 1.0

    def test_scatter_csv(self, tmp_path):
        day = walk_day(8)
        out, [rep] = shuffle_via_cli(tmp_path, [day], 12, "--export", "scatter")
        header, body = read_table(out / day.day_id / "scatter.csv")
        assert header == "delta_alpha_rnd,F_rnd"
        assert body.shape == (12, 2)
        assert_allclose(body, rep.replicates, rtol=1e-11, atol=1e-13)

    def test_batch_summary_json(self, tmp_path):
        out, reports = shuffle_via_cli(tmp_path, [walk_day(s) for s in range(2)], 6)
        loaded = json.loads((out / "batch_summary.json").read_text())
        assert loaded["n_days"] == 2
        assert len(loaded["days"]) == 2
        assert [d["day"] for d in loaded["days"]] == [r.day_id for r in reports]
        assert_allclose([d["p1"] for d in loaded["days"]], [r.p1 for r in reports], rtol=1e-11)


class TestVerdict:
    """The CLI alone compares p1 and p2 with --level, per day and over the batch."""

    DAYS = (0, 1, 2, 4)  # p1 = p2 = 0, 0.1, 0 and 1 at B = 20, seed 99

    def summary(self, tmp_path, *flags):
        out, reports = shuffle_via_cli(tmp_path, [walk_day(s) for s in self.DAYS], 20, *flags)
        return json.loads((out / "batch_summary.json").read_text()), reports

    def check(self, summary, reports, level):
        n = len(reports)
        assert summary["level"] == level and summary["n_days"] == n
        assert summary["pct_p1_significant"] == sum(r.p1 <= level for r in reports) / n
        assert summary["pct_p2_significant"] == sum(r.p2 <= level for r in reports) / n
        assert [(d["significant_1"], d["significant_2"]) for d in summary["days"]] == [
            (r.p1 <= level, r.p2 <= level) for r in reports]

    def test_fractions_are_the_share_of_days_at_most_the_level(self, tmp_path):
        summary, reports = self.summary(tmp_path)
        self.check(summary, reports, 0.05)
        assert summary["pct_p1_significant"] == 0.5

    def test_a_non_default_level_reaches_every_verdict(self, tmp_path):
        summary, reports = self.summary(tmp_path, "--level", "0.5")
        self.check(summary, reports, 0.5)
        assert summary["pct_p1_significant"] == summary["pct_p2_significant"] == 0.75
        day = json.loads((tmp_path / "out" / reports[1].day_id / "shuffle_test.json").read_text())
        assert reports[1].p1 == 0.1 and day["significant_1"] and day["significant_2"]

    def test_constant_days_give_zero(self, tmp_path):
        days = [constant_series(60, 1.0 + s, day_id=f"2001-01-0{2 + s}") for s in range(2)]
        out, reports = shuffle_via_cli(tmp_path, days, 5)
        summary = json.loads((out / "batch_summary.json").read_text())
        self.check(summary, reports, 0.05)
        assert summary["pct_p1_significant"] == summary["pct_p2_significant"] == 0.0

    def test_no_usable_day_writes_no_summary(self, tmp_path):
        empty, out = tmp_path / "empty.csv", tmp_path / "out"
        empty.write_text("date,time,price\n")
        assert run("batch", "--input", str(empty), "--outdir", str(out)) == 0
        assert not (out / "batch_summary.json").exists()


class TestRoundTrip:
    def test_reingested_csv_reproduces_analysis(self, tmp_path):
        day = random_positive_series(120, "iid-lognormal", seed=9, sigma=0.3, day_id="2001-01-05")
        path = tmp_path / "rt.csv"
        write_series_csv([day], path)
        seg = segment_by_day(parse_intraday_csv(path))
        assert len(seg.days) == 1
        assert np.array_equal(seg.days[0].values, day.values)  # exact round-trip
        a = analyze_series(day)
        b = analyze_series(seg.days[0])
        assert np.array_equal(a.exponents.tau, b.exponents.tau)
        assert a.spectrum.delta_alpha == b.spectrum.delta_alpha


class TestShuffleTest:
    def test_reports_and_batch_summary(self, walk_csv, tmp_path):
        out = tmp_path / "out"
        assert run("shuffle-test", "--input", str(walk_csv), "--outdir", str(out),
                   "--bootstrap", "30", "--seed", "11",
                   "--q-min", "-8", "--q-max", "8", "--export", "scatter") == 0
        rep = json.loads((out / "2000-01-03" / "shuffle_test.json").read_text())
        assert {"day", "delta_alpha", "F", "k", "b", "p1", "p2"} <= set(rep)
        assert (out / "2000-01-03" / "scatter.csv").exists()
        batch = json.loads((out / "batch_summary.json").read_text())
        assert batch["n_days"] == 3

    def test_byte_identical_across_runs_and_workers(self, walk_csv, tmp_path):
        args = ["--input", str(walk_csv), "--bootstrap", "20", "--seed", "3",
                "--q-min", "-8", "--q-max", "8"]
        outs = [tmp_path / f"o{i}" for i in range(3)]
        assert run("shuffle-test", "--outdir", str(outs[0]), "--workers", "1", *args) == 0
        assert run("shuffle-test", "--outdir", str(outs[1]), "--workers", "1", *args) == 0
        assert run("shuffle-test", "--outdir", str(outs[2]), "--workers", "2", *args) == 0
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])
        assert tree_bytes(outs[0]) == tree_bytes(outs[2])

    def cascade_days(self, path):
        days = [PriceSeries(f"2000-01-0{3 + s}",
                            binomial_cascade(CascadeSpec(p=0.6, levels=8), seed=s).values)
                for s in range(3)]
        write_series_csv(days, path)
        return path

    def disagreeing_run(self, tmp_path):
        return run("shuffle-test", "--input", str(self.cascade_days(tmp_path / "in.csv")),
                   "--outdir", str(tmp_path / "out"), "--bootstrap", "20", "--seed", "3",
                   "--q-min", "-10", "--q-max", "10")

    def test_p1_p2_disagreement_is_printed_in_day_order(self, tmp_path, capsys):
        # the second day's p1 and p2 differ by exactly 0.1, which is not "more than 0.1"
        assert self.disagreeing_run(tmp_path) == 0
        assert capsys.readouterr().err == (
            "mfbox: day 2000-01-03: p1 = 0.000 and p2 = 0.150 disagree by more than 0.1\n"
            "mfbox: day 2000-01-05: p1 = 0.000 and p2 = 0.200 disagree by more than 0.1\n")

    def test_main_leaves_the_root_logger_alone(self, tmp_path):
        # a root logger with no handlers, as in a process that has not configured logging
        root = logging.getLogger()
        handlers, level = root.handlers[:], root.level
        root.handlers.clear()
        root.setLevel(logging.ERROR)
        try:
            assert self.disagreeing_run(tmp_path) == 0
            assert root.handlers == [] and root.level == logging.ERROR
        finally:
            root.handlers[:] = handlers
            root.setLevel(level)


class TestBatchCommand:
    def test_writes_both_artifact_sets(self, walk_csv, tmp_path):
        out = tmp_path / "out"
        assert run("batch", "--input", str(walk_csv), "--outdir", str(out),
                   "--bootstrap", "10", "--q-min", "-8", "--q-max", "8") == 0
        day = out / "2000-01-03"
        for name in ("tau.csv", "spectrum.csv", "summary.json", "shuffle_test.json"):
            assert (day / name).exists()
        assert (out / "batch_summary.json").exists()


class TestUnsafeInput:
    def test_day_id_cannot_escape_outdir(self, tmp_path):
        good = random_positive_series(60, "iid-lognormal", seed=1, day_id="2001-01-05")
        bad = random_positive_series(60, "iid-lognormal", seed=2, day_id="../escaped")
        work = tmp_path / "work"
        write_series_csv([good, bad], work / "in.csv")
        out = work / "out"
        assert run("batch", "--input", str(work / "in.csv"), "--outdir", str(out),
                   "--bootstrap", "4", "--q-min", "-4", "--q-max", "4") == 0
        assert sorted(p.name for p in work.iterdir()) == ["in.csv", "out"]
        assert sorted(p.name for p in out.iterdir()) == ["2001-01-05", "batch_summary.json"]

    @pytest.mark.parametrize("command", ["analyze", "shuffle-test", "batch"])
    @pytest.mark.parametrize("name", ["batch_summary.json", "batch_summary.json.tmp"])
    def test_day_named_after_a_run_file_is_dropped(self, tmp_path, capsys, command, name):
        # such a day's directory would stand where the run writes batch_summary.json (or
        # its temp file), so every command drops it and the other day comes out unchanged
        flags = ["--q-min", "-4", "--q-max", "4"] + ([] if command == "analyze" else
                                                     ["--bootstrap", "4", "--seed", "3"])
        good = walk_day(1)
        write_series_csv([good], tmp_path / "clean.csv")
        write_series_csv([good, PriceSeries(name, walk_day(2).values)], tmp_path / "in.csv")
        assert run(command, "--input", str(tmp_path / "clean.csv"), "--outdir",
                   str(tmp_path / "clean"), *flags) == 0
        clean_err = capsys.readouterr().err
        assert run(command, "--input", str(tmp_path / "in.csv"), "--outdir",
                   str(tmp_path / "out"), *flags) == 0
        assert capsys.readouterr().err == (
            f"mfbox: dropped day '{name}' (60 bars): day id names a file the run writes in "
            f"--outdir\n" + clean_err)
        assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "clean")

    def test_dropped_day_reported_once(self, tmp_path):
        days = [random_positive_series(60, "iid-lognormal", seed=s, day_id=f"2001-01-0{s}")
                for s in (1, 2)]
        days.append(random_positive_series(30, "iid-lognormal", seed=3, day_id="2001-01-03"))
        path = tmp_path / "in.csv"
        write_series_csv(days, path)
        proc = cli_process("analyze", "--input", str(path), "--outdir", str(tmp_path / "out"),
                           "--q-min", "-4", "--q-max", "4")
        assert proc.returncode == 0
        lines = [line for line in proc.stderr.splitlines() if "2001-01-03" in line]
        assert len(lines) == 1
        assert "30 bars" in lines[0]

    def test_drops_are_reported_path_and_price_first_then_length(self, tmp_path, capsys):
        # days in file order: good A, 30-bar C, unsafe a/b, D with a zero price, good E
        lengths = {"A": 60, "C": 30, "a/b": 60, "D": 60, "E": 60}
        rows = [f"{day},09:{m:02d},{0.0 if day == 'D' and m == 7 else 1.0 + m / 100!r}"
                for day, T in lengths.items() for m in range(T)]
        path, out = tmp_path / "in.csv", tmp_path / "out"
        path.write_text("date,time,price\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
        assert run("analyze", "--input", str(path), "--outdir", str(out),
                   "--q-min", "-4", "--q-max", "4") == 0
        assert capsys.readouterr().err == (
            "mfbox: dropped day 'a/b' (60 bars): day id is not a safe path component\n"
            "mfbox: dropped day 'D' (60 bars): non-positive or non-finite price\n"
            "mfbox: dropped day 'C' (30 bars): length 30 != modal length 60\n")
        assert sorted(p.name for p in out.iterdir()) == ["A", "E"]

    def test_day_id_longer_than_a_file_name_is_dropped(self, tmp_path, capsys):
        # A directory name holds at most 255 bytes (NAME_MAX); "é" is 2 bytes in UTF-8.
        long_ascii, fits, too_long = "x" * 300, "é" * 127 + "a", "é" * 128
        days = ["A", long_ascii, fits, too_long, "E"]
        rows = [f"{day},09:{m:02d},{1.0 + m / 100!r}" for day in days for m in range(60)]
        path, out = tmp_path / "in.csv", tmp_path / "out"
        path.write_text("date,time,price\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
        assert run("analyze", "--input", str(path), "--outdir", str(out),
                   "--q-min", "-4", "--q-max", "4") == 0
        assert capsys.readouterr().err == "".join(
            f"mfbox: dropped day '{day}' (60 bars): day id is not a safe path component\n"
            for day in (long_ascii, too_long))
        assert sorted(p.name for p in out.iterdir()) == sorted(["A", fits, "E"])
        assert (out / fits / "summary.json").is_file()


class TestExitCodes:
    def test_missing_input_names_path(self, tmp_path, capsys):
        code = run("analyze", "--input", str(tmp_path / "gone.csv"), "--outdir", str(tmp_path / "o"))
        assert code == 3
        assert "gone.csv" in capsys.readouterr().err

    def test_malformed_row_is_ingest_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,time,price\n2001-01-01,09:31,oops\n")
        assert run("analyze", "--input", str(bad), "--outdir", str(tmp_path / "o")) == 3

    @pytest.mark.parametrize("content, message", [
        (b"date,time,price\n2001-01-02,09:30," + b"1" * 200_000 + b"\n",
         "row 2: field larger than field limit (131072)"),
        (b"date,time,price\n2001-01-02,09:30,1.0\xff\n",
         "not UTF-8 text (byte 0xff: invalid start byte)"),
    ], ids=["over-long-field", "non-utf8"])
    def test_unreadable_input_is_one_line_ingest_error(self, tmp_path, content, message):
        path = tmp_path / "in.csv"
        path.write_bytes(content)
        proc = cli_process("analyze", "--input", str(path), "--outdir", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert proc.stderr == f"mfbox: ingestion error: {path}: {message}\n"

    @pytest.mark.parametrize("flag", ["--q-max=inf", "--q-min=-inf", "--q-step=inf", "--q-step=nan"])
    def test_non_finite_q_bound_is_one_line_config_error(self, walk_csv, tmp_path, flag):
        proc = cli_process("batch", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"), flag)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "mfbox: configuration error: q_min, q_max and q_step must be finite, got ")
        assert proc.stderr.count("\n") == 1

    def test_bad_q_grid_is_config_error(self, walk_csv, tmp_path):
        assert run("analyze", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"),
                   "--q-step", "4") == 2

    def test_too_wide_q_grid_is_one_line_config_error(self, walk_csv, tmp_path):
        # 4e10 + 1 orders would take 298 GiB; the address-space cap turns any attempt to
        # allocate them into an immediate MemoryError
        proc = cli_process("analyze", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"),
                           "--q-min", "-2", "--q-max", "2", "--q-step", "1e-10",
                           address_space=1_500_000_000)
        assert proc.returncode == 2
        assert proc.stderr == ("mfbox: configuration error: q range [-2.0, 2.0] in steps of "
                               "1e-10 has more than 100,000 orders\n")
        assert not (tmp_path / "o").exists()

    def test_bad_boxes_is_config_error(self, walk_csv, tmp_path):
        assert run("analyze", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"),
                   "--boxes", "1,7,240") == 2
        assert run("analyze", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"),
                   "--boxes", "1,two") == 2

    def test_bad_level_is_config_error(self, walk_csv, tmp_path):
        assert run("shuffle-test", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"),
                   "--level", "1.5") == 2

    @pytest.mark.parametrize("item", ["tau", "spectrum"])
    def test_always_written_tables_are_not_export_items(self, walk_csv, tmp_path, capsys, item):
        assert run("analyze", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"),
                   "--export", item) == 2
        assert "choose from ('surface',)" in capsys.readouterr().err

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 17.9 GiB for an array with shape (10000001, 240)"),
         "mfbox: out of memory: Unable to allocate 17.9 GiB for an array with shape "
         "(10000001, 240)\n"),
        (MemoryError(), "mfbox: out of memory: allocation failed\n"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_is_one_line_exit_4(self, walk_csv, tmp_path, capsys, monkeypatch,
                                              error, line):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(mfbox.cli, "analyze_series", exhausted)
        assert run("analyze", "--input", str(walk_csv), "--outdir", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == line

    def test_write_failure_is_one_line_file_error(self, walk_csv, tmp_path):
        # a regular file where day 2's directory goes: day 1 is complete, day 3 never starts
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert run("analyze", "--input", str(walk_csv), "--outdir", str(clean)) == 0
        out.mkdir()
        (out / "2000-01-04").write_text("in the way\n")
        proc = cli_process("analyze", "--input", str(walk_csv), "--outdir", str(out))
        assert proc.returncode == 3
        assert proc.stderr.startswith("mfbox: file error: [Errno 17] File exists: ")
        assert proc.stderr.count("\n") == 1
        day1 = tree_bytes(out / "2000-01-03")
        assert sorted(day1) == ["spectrum.csv", "summary.json", "tau.csv"]
        assert day1 == tree_bytes(clean / "2000-01-03")
        assert not (out / "2000-01-05").exists()
        assert list(out.rglob("*.tmp")) == []

    def test_overflowing_day_is_one_line_numeric_failure(self, tmp_path):
        # 1.5e308 is finite, but its box sums at l = 2 are not
        path = tmp_path / "in.csv"
        write_series_csv([PriceSeries("2001-01-02", np.full(240, 1.5e308))], path)
        proc = cli_process("analyze", "--input", str(path), "--outdir", str(tmp_path / "out"),
                           "--boxes", "2,4,8,240")
        assert proc.returncode == 4
        assert proc.stderr == "mfbox: numeric failure: box masses must be positive and finite\n"

    def test_overflowing_normaliser_is_one_line_numeric_failure(self, tmp_path):
        # 1e307 and its box sums are finite, but the l = 1 masses total 2.4e309
        path = tmp_path / "in.csv"
        write_series_csv([PriceSeries("2001-01-02", np.full(240, 1e307))], path)
        proc = cli_process("analyze", "--input", str(path), "--outdir", str(tmp_path / "out"))
        assert proc.returncode == 4
        assert proc.stderr == "mfbox: numeric failure: intermediate overflow in fsum\n"

    @pytest.mark.parametrize("command", ["analyze", "shuffle-test", "batch"])
    def test_prime_day_length_is_config_error(self, tmp_path, capsys, command):
        # (1, 241) is the only box scheme of a prime length: no column a shuffle can change
        path, out = tmp_path / "prime.csv", tmp_path / "out"
        write_series_csv([walk_day(1, T=241), walk_day(2, T=241)], path)
        assert run(command, "--input", str(path), "--outdir", str(out)) == 2
        assert capsys.readouterr().err == (
            "mfbox: configuration error: box scheme invalid for day length 241: "
            "box scheme needs at least 3 sizes for the scaling fit\n")
        assert not out.exists()

    @staticmethod
    def faulty_blocks(monkeypatch, fault):
        """Let ``fault(day_id, indices)`` act before each replicate block, on two usable CPUs."""
        block = mfbox.bootstrap._replicate_block

        def faulty(series, surface, master_seed, indices):
            fault(series.day_id, indices)
            return block(series, surface, master_seed, indices)

        monkeypatch.setattr(mfbox.bootstrap, "_replicate_block", faulty)
        monkeypatch.setattr(mfbox.bootstrap.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

    @pytest.mark.parametrize("command", ["shuffle-test", "batch"])
    def test_dead_helper_is_one_line_exit_4(self, walk_csv, tmp_path, capsys, monkeypatch,
                                            command):
        caller = os.getpid()

        def die_in_a_helper(day_id, indices):
            if os.getpid() != caller and day_id == "2000-01-04" and indices[0] == 0:
                os.kill(os.getpid(), signal.SIGKILL)

        self.faulty_blocks(monkeypatch, die_in_a_helper)
        out = tmp_path / "out"
        assert run(command, "--input", str(walk_csv), "--outdir", str(out), "--workers", "2",
                   "--bootstrap", "20", "--q-min", "-5", "--q-max", "5") == 4
        assert re.fullmatch(r"mfbox: replicate helper [12] of 2 \(pid \d+\) was killed by "
                            rf"signal {int(signal.SIGKILL)} \(.+\)\n", capsys.readouterr().err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_first_failing_task_names_the_error_at_any_worker_count(
            self, walk_csv, tmp_path, capsys, monkeypatch, workers):
        # with two helpers the later task fails first in time; the earlier one is reported
        def fail_two_days(day_id, indices):
            if day_id == "2000-01-04" and indices[-1] == 19:
                time.sleep(0.2)
                raise ValueError(f"day {day_id} failed")
            if day_id == "2000-01-05" and indices[0] == 0:
                raise ValueError(f"day {day_id} failed")

        self.faulty_blocks(monkeypatch, fail_two_days)
        assert run("shuffle-test", "--input", str(walk_csv), "--outdir", str(tmp_path / "out"),
                   "--workers", workers, "--bootstrap", "20", "--q-min", "-5", "--q-max", "5") == 4
        assert capsys.readouterr().err == "mfbox: numeric failure: day 2000-01-04 failed\n"

    @pytest.mark.parametrize("command", ["shuffle-test", "batch"])
    def test_block_failing_only_in_a_helper_is_one_line_exit_4(self, walk_csv, tmp_path, capsys,
                                                               monkeypatch, command):
        # e.g. a MemoryError that only two helpers at once run into: the rerun here passes
        caller = os.getpid()

        def fail_in_a_helper(day_id, indices):
            if os.getpid() != caller and day_id == "2000-01-04" and indices[0] == 0:
                raise ValueError("failed in a helper")

        self.faulty_blocks(monkeypatch, fail_in_a_helper)
        assert run(command, "--input", str(walk_csv), "--outdir", str(tmp_path / "out"),
                   "--workers", "2", "--bootstrap", "20", "--q-min", "-5", "--q-max", "5") == 4
        assert capsys.readouterr().err == (
            "mfbox: day 2000-01-04: a replicate block failed in a helper process but passed "
            "when rerun\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_helper_exiting_with_a_status_is_one_line_exit_4(self, walk_csv, tmp_path, capsys,
                                                             monkeypatch):
        # SystemExit is no Exception, so the helper flags no task and leaves with status 1
        caller = os.getpid()

        def exit_in_a_helper(day_id, indices):
            if os.getpid() != caller and day_id == "2000-01-04" and indices[0] == 0:
                raise SystemExit("left the helper")

        self.faulty_blocks(monkeypatch, exit_in_a_helper)
        assert run("shuffle-test", "--input", str(walk_csv), "--outdir", str(tmp_path / "out"),
                   "--workers", "2", "--bootstrap", "20", "--q-min", "-5", "--q-max", "5") == 4
        assert re.fullmatch(r"mfbox: replicate helper [12] of 2 \(pid \d+\) exited with "
                            r"status 1\n", capsys.readouterr().err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fault, line", [
        ("mmap", "mfbox: out of memory: cannot map 984 bytes for the replicate rows: "
                 "[Errno 12] Cannot allocate memory\n"),
        ("fork", "mfbox: replicate helper 2 of 2 could not be forked: "
                 "[Errno 11] Resource temporarily unavailable\n"),
    ], ids=["mmap", "fork"])
    def test_helpers_that_cannot_start_are_one_line_exit_4(self, walk_csv, tmp_path, capsys,
                                                           monkeypatch, fault, line):
        # 3 days x 20 replicates x 2 float64 values, and one flag for each of 3 x 8 blocks
        forks, fork = [], os.fork

        def second_fork_fails():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        def unmappable(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        self.faulty_blocks(monkeypatch, lambda day_id, indices: None)
        if fault == "mmap":
            monkeypatch.setattr(mmap, "mmap", unmappable)
        else:
            monkeypatch.setattr(os, "fork", second_fork_fails)
        assert run("shuffle-test", "--input", str(walk_csv), "--outdir", str(tmp_path / "out"),
                   "--workers", "2", "--bootstrap", "20", "--q-min", "-5", "--q-max", "5") == 4
        assert capsys.readouterr().err == line
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_unknown_flag_is_config_error(self):
        assert run("analyze", "--nope") == 2

    def test_empty_file_is_vacuous_success(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("analyze", "--input", str(empty), "--outdir", str(tmp_path / "o")) == 0
        assert "no usable days" in capsys.readouterr().err


class TestPerCommandOptions:
    SMALL = ("--q-min", "-4", "--q-max", "4")

    def day_args(self, command, csv, out):
        return (command, "--input", str(csv), "--outdir", str(out), *self.SMALL)

    @pytest.mark.parametrize("command, flags", [
        ("analyze", ("--export", "scatter")),
        ("analyze", ("--export", "surface,scatter")),
        ("shuffle-test", ("--export", "surface")),
        ("analyze", ("--level", "0.5")),
        ("analyze", ("--bootstrap", "10")),
        ("analyze", ("--store-replicates",)),
        ("shuffle-test", ("--store-replicates",)),
        ("batch", ("--store-replicates",)),
    ])
    def test_options_the_command_does_not_use_are_rejected(self, walk_csv, tmp_path, command,
                                                           flags):
        out = tmp_path / "o"
        assert run(*self.day_args(command, walk_csv, out), *flags) == 2
        assert not out.exists()

    def test_batch_exports_both_tables(self, walk_csv, tmp_path):
        out = tmp_path / "o"
        assert run(*self.day_args("batch", walk_csv, out), "--bootstrap", "5",
                   "--export", "surface,scatter") == 0
        for day in ("2000-01-03", "2000-01-04", "2000-01-05"):
            assert (out / day / "surface.csv").is_file()
            assert (out / day / "scatter.csv").is_file()

    def test_analyze_accepts_seed_and_workers(self, walk_csv, tmp_path):
        # The benchmark's analyze command line passes both.
        out = tmp_path / "o"
        assert run(*self.day_args("analyze", walk_csv, out), "--seed", "1", "--workers", "1",
                   "--export", "surface") == 0
        assert (out / "2000-01-03" / "surface.csv").is_file()

    @pytest.mark.parametrize("flags, message", [
        (("--bootstrap", "0"), "replicate count must be >= 1, got 0"),
        (("--level", "1.5"), "significance level must be in (0, 1), got 1.5"),
        # the CLI owns the level check: both ends are open, and it runs after the count check
        (("--level", "0"), "significance level must be in (0, 1), got 0.0"),
        (("--level", "1"), "significance level must be in (0, 1), got 1.0"),
        (("--bootstrap", "0", "--level", "1.5"), "replicate count must be >= 1, got 0"),
    ])
    def test_range_errors_come_from_the_library(self, walk_csv, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        assert run(*self.day_args("shuffle-test", walk_csv, out), *flags) == 2
        assert capsys.readouterr().err == f"mfbox: configuration error: {message}\n"
        assert not out.exists()


class TestSynthValidation:
    def test_bad_days(self, tmp_path):
        assert run("synth", "--kind", "constant", "--out", str(tmp_path / "x.csv"),
                   "--days", "0") == 2

    def test_bad_cascade_p(self, tmp_path):
        assert run("synth", "--kind", "cascade", "--out", str(tmp_path / "x.csv"),
                   "--p", "1.0") == 2

    def test_overflowing_walk_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        code = run("synth", "--kind", "intraday-walk", "--out", str(path), "--sigma", "100")
        assert code == 2
        assert not path.exists()
        assert "configuration error" in capsys.readouterr().err

    def test_date_overflow_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        assert run("synth", "--kind", "constant", "--out", str(path), "--days", "2",
                   "--start-date", "9999-12-31") == 2
        assert capsys.readouterr().err.startswith("mfbox: configuration error:")
        assert not path.exists()

    def test_overflowing_walk_error_names_the_cli_date(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning must not reach stderr
            code = run("synth", "--kind", "intraday-walk", "--out", str(tmp_path / "x.csv"),
                       "--sigma", "100")
        assert code == 2
        assert capsys.readouterr().err == (
            "mfbox: configuration error: day 2000-01-03: non-finite value present\n")

    def test_unseeded_days_differ_and_the_first_keeps_its_bytes(self, tmp_path):
        one, three = tmp_path / "one.csv", tmp_path / "three.csv"
        for path, days in ((one, "1"), (three, "3")):
            assert run("synth", "--kind", "intraday-walk", "--out", str(path),
                       "--length", "60", "--days", days) == 0
        seg = segment_by_day(parse_intraday_csv(three))
        assert [day.day_id for day in seg.days] == ["2000-01-03", "2000-01-04", "2000-01-05"]
        assert len({day.values.tobytes() for day in seg.days}) == 3
        assert three.read_text().startswith(one.read_text())

    def test_multi_day_seeds_differ(self, tmp_path):
        path = tmp_path / "multi.csv"
        assert run("synth", "--kind", "iid-lognormal", "--out", str(path),
                   "--length", "60", "--seed", "1", "--days", "2") == 0
        seg = segment_by_day(parse_intraday_csv(path))
        assert len(seg.days) == 2
        assert not np.array_equal(seg.days[0].values, seg.days[1].values)
