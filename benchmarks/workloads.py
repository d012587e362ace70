"""The four benchmark workloads: seeded inputs, one iteration, output checks.

Two kinds exist. A library workload calls ``mfbox.bootstrap_analysis`` on
one synthetic day; each timed iteration runs in a fresh interpreter
(``library_iteration.py``) and times only the call. A CLI workload runs the
``mfbox`` command on a synthetic CSV as a subprocess; each timed iteration
is the whole process, as a user runs it. Every output is checked against
``oracle.py`` computed from the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ATOL = 1e-9
LEVEL = 0.05
SCALARS = ("delta_alpha", "F", "k", "b", "p1", "p2")
SUMMARY = ("alpha_bar", "alpha_bar_stderr", "max_tau_residual", "delta_alpha", "F")

_WALK = {"kind": "intraday-walk", "sigma": 0.0005, "initial": 15000.0}

# Everything that shapes a workload, recorded next to its results. The
# run's --seed seeds the synthetic data and is the shuffle master seed.
SPECS = {
    "shuffle-walk240": {
        "mode": "library", "synth": {**_WALK, "length": 240, "days": 1},
        "q": [-120.0, 120.0, 1.0], "replicates": 1000, "workers": 1,
        "why": "the paper's headline shuffle test; plain single-process baseline",
    },
    "shuffle-cascade4096": {
        "mode": "library", "synth": {"kind": "cascade", "p": 0.6, "levels": 12, "days": 1},
        "q": [-5.0, 5.0, 1.0], "replicates": 400, "workers": 2,
        "why": "positive control with 17x longer arrays; box measure dominates; replicate pool",
    },
    "batch-walk240": {
        "mode": "cli", "command": "batch", "synth": {**_WALK, "length": 240, "days": 5},
        "q": [-120.0, 120.0, 1.0], "replicates": 300, "workers": 2, "export": "scatter",
        "why": "the CLI path users run: ingest, day pool, per-day writers, batch summary",
    },
    "analyze-walk390": {
        "mode": "cli", "command": "analyze", "synth": {**_WALK, "length": 390, "days": 250},
        "q": [-120.0, 120.0, 1.0], "replicates": 0, "workers": 1, "export": "surface",
        "why": "many days, no replicates: ingest and artifact writing dominate",
    },
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cpu_now() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _matches(got, want, tol: float = ATOL) -> bool:
    return _finite(got) and abs(got - want) <= tol


def _tolerances(ref: dict) -> dict:
    """ATOL per shuffle-test scalar; for the cloud's line, what ATOL allows.

    k and b are fitted through replicate widths that spread by only 1e-6 to
    1e-5, so moving every cloud point by up to ATOL moves k by up to
    ATOL * (1 + |k|) / std(widths) (first order, Cauchy-Schwarz).
    """
    widths = ref["replicates"][:, 0]
    tol_k = ATOL * (1.0 + abs(ref["k"])) / widths.std()
    tol_b = ATOL * (1.0 + abs(ref["k"])) + tol_k * abs(widths.mean())
    return {**dict.fromkeys(SCALARS, ATOL), "k": tol_k, "b": tol_b}


# Outputs of the package at the commit that introduced this benchmark, for
# the default seed: workload -> seed -> {"<day>/<key>" or "<key>": value}.
RECORDED = json.loads(Path(__file__).with_name("reference.json").read_text())


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = int(seed)
        self.spec = SPECS[name]
        self.workdir = workdir
        self.workers = self.spec["workers"]
        self.days = self.spec["synth"]["days"]
        self.replicates = self.days * self.spec["replicates"]
        self.messages: list[str] = []

    def setup_code(self) -> str:
        """Source a fresh interpreter runs to import mfbox and build the config."""
        q_min, q_max, q_step = self.spec["q"]
        length = self.spec["synth"].get("length") or 2 ** self.spec["synth"]["levels"]
        code = (f"import mfbox\nmfbox.MomentGrid.from_range({q_min}, {q_max}, {q_step})\n"
                f"mfbox.derive_box_scheme({length})\n")
        if self.spec["replicates"]:
            code += (f"mfbox.BootstrapConfig(replicates={self.spec['replicates']}, "
                     f"master_seed={self.seed})\n")
        return code

    def fail(self, message: str) -> None:
        self.messages.append(message)

    def check_recorded(self, values: dict, tols: dict) -> None:
        """Compare reference values with the recorded ones, where recorded."""
        recorded = RECORDED.get(self.name, {}).get(str(self.seed))
        if recorded is None:
            return
        if set(recorded) != set(values):
            self.fail("reference keys differ from the recorded reference")
        bad = [k for k, v in recorded.items()
               if k in values and not _matches(values[k], v, tols.get(k, ATOL))]
        if bad:
            self.fail(f"reference differs from the recorded reference at {bad[:5]}")


class LibraryWorkload(Workload):
    """bootstrap_analysis on one synthetic day, called from Python."""

    def inputs(self):
        import mfbox

        synth = self.spec["synth"]
        if synth["kind"] == "cascade":
            series = mfbox.binomial_cascade(mfbox.CascadeSpec(p=synth["p"], levels=synth["levels"]),
                                            seed=self.seed)
        else:
            series = mfbox.random_positive_series(synth["length"], synth["kind"], seed=self.seed,
                                                  sigma=synth["sigma"], initial=synth["initial"])
        grid = mfbox.MomentGrid.from_range(*self.spec["q"])
        scheme = mfbox.derive_box_scheme(series.length)
        cfg = mfbox.BootstrapConfig(replicates=self.spec["replicates"], master_seed=self.seed)
        return series, scheme, grid, cfg

    def prepare(self) -> None:
        import mfbox

        series, scheme, grid, _ = self.inputs()
        self.ref = oracle.shuffle_test(series.values, scheme.sizes, grid.q_values,
                                       self.spec["replicates"], self.seed)
        self.tols = _tolerances(self.ref)
        self.check_recorded({k: self.ref[k] for k in SCALARS}, self.tols)
        if self.spec["synth"]["kind"] == "cascade":
            # Positive control, acceptance criteria 3 and 6: tau of the day
            # against the closed form.
            tau = mfbox.analyze_series(series, scheme, grid).exponents.tau
            exact = mfbox.analytic_binomial_tau(self.spec["synth"]["p"], grid.q_values)
            self.tau_err = float(np.max(np.abs(tau - exact)))

    def run_inprocess(self, n_jobs: int) -> dict:
        """One timed bootstrap_analysis call; inputs are built before timing."""
        import mfbox

        series, scheme, grid, cfg = self.inputs()
        cpu0, t0 = _cpu_now(), time.perf_counter()
        report = mfbox.bootstrap_analysis(series, scheme, grid, cfg, n_jobs=n_jobs)
        wall, cpu = time.perf_counter() - t0, _cpu_now() - cpu0
        return {
            "wall_s": wall, "cpu_s": cpu, "delta_alpha": report.delta_alpha, "F": report.f_mid,
            "k": report.k, "b": report.b, "p1": report.p1, "p2": report.p2,
            "replicates": report.replicates.tolist(),
        }

    def child_argv(self, out_path: Path) -> list[str]:
        return [sys.executable, str(Path(__file__).with_name("library_iteration.py")),
                self.name, str(self.seed), str(out_path)]

    def check(self, out: dict) -> int:
        """Number of failed days (0 or 1) in one iteration's outputs."""
        ref, ok = self.ref, True
        for key in SCALARS:
            if not _matches(out[key], ref[key], self.tols[key]):
                self.fail(f"{key} = {out[key]} differs from reference {ref[key]}")
                ok = False
        if not oracle.close(out["replicates"], ref["replicates"], ATOL):
            self.fail("replicate cloud differs from reference")
            ok = False
        if self.spec["synth"]["kind"] == "cascade":
            if out["p1"] != 0.0 or out["p2"] != 0.0 or not self.tau_err <= 0.05:
                self.fail(f"cascade control: p1={out['p1']} p2={out['p2']} max tau err={self.tau_err:.3g}")
                ok = False
        elif _finite(out["k"], out["b"]) and not (-32.0 <= out["k"] <= -28.0 and 0.95 <= out["b"] <= 1.10):
            # Scatter-law bounds of acceptance criterion 5.
            self.fail(f"scatter law: k={out['k']} b={out['b']} outside criterion 5 bounds")
            ok = False
        return 0 if ok else 1


def _read_csv_table(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([line.split(",") for line in lines], dtype=np.float64)


def _digest(day_dir: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (day_dir / name).read_bytes())
    return h.hexdigest()


class CliWorkload(Workload):
    """The mfbox command on a synthetic multi-day CSV."""

    def prepare(self) -> None:
        import mfbox
        import mfbox.cli

        synth = self.spec["synth"]
        self.csv_path = self.workdir / "input.csv"
        code = mfbox.cli.main([
            "synth", "--kind", synth["kind"], "--out", str(self.csv_path),
            "--length", str(synth["length"]), "--sigma", repr(synth["sigma"]),
            "--initial", repr(synth["initial"]), "--seed", str(self.seed),
            "--days", str(synth["days"]),
        ])
        if code != 0:
            raise RuntimeError(f"mfbox synth exited {code}")
        # Reference from the CSV as written, read without mfbox.
        by_day: dict[str, list[float]] = {}
        with self.csv_path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                by_day.setdefault(row["date"], []).append(float(row["price"]))
        self.day_ids = list(by_day)
        values = np.array([by_day[d] for d in self.day_ids])
        self.q = mfbox.MomentGrid.from_range(*self.spec["q"]).q_values
        self.sizes = mfbox.derive_box_scheme(values.shape[1]).sizes
        self.length = values.shape[1]
        self.ref = oracle.analyze(values, self.sizes, self.q)
        self.shuffle_refs = [
            oracle.shuffle_test(v, self.sizes, self.q, self.spec["replicates"], self.seed)
            for v in values
        ] if self.spec["replicates"] else []
        self.digests: dict[str, str] = {}
        self.artifacts = ["tau.csv", "spectrum.csv", "summary.json"]
        self.artifacts += ["shuffle_test.json", "scatter.csv"] if self.shuffle_refs else ["surface.csv"]
        self.tols = [_tolerances(r) for r in self.shuffle_refs]
        values, tols = {}, {}
        for i, day in enumerate(self.day_ids):
            values.update({f"{day}/{k}": float(self.ref[k][i]) for k in SUMMARY})
            if self.shuffle_refs:
                values.update({f"{day}/shuffle/{k}": self.shuffle_refs[i][k] for k in SCALARS})
                tols.update({f"{day}/shuffle/{k}": t for k, t in self.tols[i].items()})
        self.check_recorded(values, tols)

    def argv(self, outdir: Path, workers: int) -> list[str]:
        argv = [self.spec["command"], "--input", str(self.csv_path), "--outdir", str(outdir),
                "--seed", str(self.seed), "--workers", str(workers), "--export", self.spec["export"]]
        if self.spec["replicates"]:
            argv += ["--bootstrap", str(self.spec["replicates"])]
        return argv

    def child_argv(self, outdir: Path) -> list[str]:
        return [sys.executable, "-m", "mfbox.cli"] + self.argv(outdir, self.workers)

    def run_inprocess(self, outdir: Path, workers: int) -> dict:
        import mfbox.cli

        cpu0, t0 = _cpu_now(), time.perf_counter()
        code = mfbox.cli.main(self.argv(outdir, workers))
        return {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_now() - cpu0, "exit": code}

    def _check_day(self, i: int, day_dir: Path) -> bool:
        ref, day = self.ref, self.day_ids[i]
        missing = [n for n in self.artifacts if not (day_dir / n).is_file()]
        if missing:
            self.fail(f"day {day}: missing {missing}")
            return False
        summary = json.loads((day_dir / "summary.json").read_text())
        bad = [k for k in SUMMARY if not _matches(summary.get(k), ref[k][i])]
        if summary.get("day") != day or summary.get("length") != self.length:
            bad.append("day/length")
        if not self.shuffle_refs and not abs(summary.get("alpha_bar", math.nan) - 1.0) <= 0.005:
            bad.append("|alpha_bar - 1| > 0.005")
        if self.shuffle_refs:
            bad += self._check_shuffle(json.loads((day_dir / "shuffle_test.json").read_text()), i)
        tables = {
            "tau.csv": np.column_stack([self.q, ref["tau"][i], ref["r"][i]]),
            "spectrum.csv": np.column_stack([self.q, ref["alpha"][i], ref["f"][i]]),
        }
        if self.shuffle_refs:
            tables["scatter.csv"] = self.shuffle_refs[i]["replicates"]
        else:
            tables["surface.csv"] = np.column_stack([self.q, ref["log_chi"][i]])
        bad += [n for n, want in tables.items()
                if not oracle.close(_read_csv_table(day_dir / n), want, ATOL)]
        if bad:
            self.fail(f"day {day}: {bad}")
        return not bad

    def _check_shuffle(self, got: dict, i: int) -> list[str]:
        ref, tols = self.shuffle_refs[i], self.tols[i]
        bad = [k for k in SCALARS if not _matches(got.get(k), ref[k], tols[k])]
        if got.get("day") != self.day_ids[i] or got.get("significant_1") != (ref["p1"] <= LEVEL) \
                or got.get("significant_2") != (ref["p2"] <= LEVEL):
            bad.append("day/significance flags")
        return bad

    def _check_batch_summary(self, outdir: Path) -> bool:
        path = outdir / "batch_summary.json"
        if not path.is_file():
            self.fail("batch_summary.json missing")
            return False
        got = json.loads(path.read_text())
        refs = self.shuffle_refs
        want_p1 = sum(r["p1"] <= LEVEL for r in refs) / len(refs)
        want_p2 = sum(r["p2"] <= LEVEL for r in refs) / len(refs)
        ok = (got.get("n_days") == len(refs) and oracle.close(got.get("level"), LEVEL)
              and oracle.close(got.get("pct_p1_significant"), want_p1)
              and oracle.close(got.get("pct_p2_significant"), want_p2)
              and [d.get("day") for d in got.get("days", [])] == self.day_ids
              and not any(self._check_shuffle(d, i) for i, d in enumerate(got["days"])))
        if not ok:
            self.fail("batch_summary.json differs from reference")
        return ok

    def check(self, out: dict, outdir: Path) -> int:
        """Failed days in one run's output directory.

        The first output set of a run is compared value by value with the
        reference; later ones must be byte-identical to it, day by day.
        """
        if out["exit"] != 0:
            self.fail(f"mfbox exited {out['exit']}")
            return self.days
        summary_ok = self._guarded(self._check_batch_summary, outdir) if self.shuffle_refs else True
        failed = 0
        for i, day in enumerate(self.day_ids):
            day_dir = outdir / day
            if not day_dir.is_dir():
                self.fail(f"day {day}: no output directory")
                ok = False
            elif day in self.digests:
                ok = self._guarded(_digest, day_dir, self.artifacts) == self.digests[day]
                if not ok:
                    self.fail(f"day {day}: artifacts not byte-identical to the first run")
            else:
                ok = self._guarded(self._check_day, i, day_dir)
                if ok:
                    self.digests[day] = _digest(day_dir, self.artifacts)
            failed += not (ok and summary_ok)
        return failed

    def _guarded(self, check, *args) -> bool:
        """Run one check; an unreadable or malformed artifact fails it."""
        try:
            return check(*args)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.fail(f"malformed artifact: {exc!r}")
            return False


def make(name: str, seed: int, workdir: Path) -> Workload:
    cls = LibraryWorkload if SPECS[name]["mode"] == "library" else CliWorkload
    return cls(name, seed, workdir)
