import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mfbox
from mfbox.cli import main, write_series_csv
from mfbox.ingest import parse_intraday_csv, segment_by_day
from mfbox.pipeline import analyze_series
from mfbox.synth import random_positive_series


def run(*argv):
    return main(list(argv))


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

    def test_dropped_day_reported_once(self, tmp_path):
        days = [random_positive_series(60, "iid-lognormal", seed=s, day_id=f"2001-01-0{s}")
                for s in (1, 2)]
        days.append(random_positive_series(30, "iid-lognormal", seed=3, day_id="2001-01-03"))
        path = tmp_path / "in.csv"
        write_series_csv(days, path)
        env = dict(os.environ, PYTHONPATH=str(Path(mfbox.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mfbox.cli", "analyze", "--input", str(path),
             "--outdir", str(tmp_path / "out"), "--q-min", "-4", "--q-max", "4"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        lines = [line for line in proc.stderr.splitlines() if "2001-01-03" in line]
        assert len(lines) == 1
        assert "30 bars" in lines[0]


class TestExitCodes:
    def test_missing_input_names_path(self, tmp_path, capsys):
        code = run("analyze", "--input", str(tmp_path / "gone.csv"), "--outdir", str(tmp_path / "o"))
        assert code == 3
        assert "gone.csv" in capsys.readouterr().err

    def test_malformed_row_is_ingest_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,time,price\n2001-01-01,09:31,oops\n")
        assert run("analyze", "--input", str(bad), "--outdir", str(tmp_path / "o")) == 3

    def test_bad_q_grid_is_config_error(self, walk_csv, tmp_path):
        assert run("analyze", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"),
                   "--q-step", "4") == 2

    def test_bad_boxes_is_config_error(self, walk_csv, tmp_path):
        assert run("analyze", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"),
                   "--boxes", "1,7,240") == 2
        assert run("analyze", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"),
                   "--boxes", "1,two") == 2

    def test_bad_level_is_config_error(self, walk_csv, tmp_path):
        assert run("shuffle-test", "--input", str(walk_csv), "--outdir", str(tmp_path / "o"),
                   "--level", "1.5") == 2

    def test_unknown_flag_is_config_error(self):
        assert run("analyze", "--nope") == 2

    def test_empty_file_is_vacuous_success(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("analyze", "--input", str(empty), "--outdir", str(tmp_path / "o")) == 0
        assert "no usable days" in capsys.readouterr().err


class TestSynthValidation:
    def test_bad_days(self, tmp_path):
        assert run("synth", "--kind", "constant", "--out", str(tmp_path / "x.csv"),
                   "--days", "0") == 2

    def test_bad_cascade_p(self, tmp_path):
        assert run("synth", "--kind", "cascade", "--out", str(tmp_path / "x.csv"),
                   "--p", "1.0") == 2

    def test_multi_day_seeds_differ(self, tmp_path):
        path = tmp_path / "multi.csv"
        assert run("synth", "--kind", "iid-lognormal", "--out", str(path),
                   "--length", "60", "--seed", "1", "--days", "2") == 0
        seg = segment_by_day(parse_intraday_csv(path))
        assert len(seg.days) == 2
        assert not np.array_equal(seg.days[0].values, seg.days[1].values)
