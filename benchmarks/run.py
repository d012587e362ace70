"""mfbox benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --workload all [--seed N] [--seconds S]

With --trace 0 the workload runs untraced, each iteration in its own process,
for S seconds (at least 3 iterations) and the end-to-end metrics are medians
over iterations. With --trace 1 it runs in this process with workers forced
to 1, alternating a traced and an untraced iteration, and prints per-layer
metrics. Every iteration's outputs are checked against a reference; the last
stdout line is a JSON object with the keys correct, attempted, failed and
metrics. `--workload all` runs every workload both ways and prints a table.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
MIN_ITERATIONS = 3
MIN_TRACE_ROUNDS = 2
SETUP_PROBES = 7

END_TO_END = [("wall_s", "s"), ("days_per_s", "1/s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]
PER_LAYER = [
    ("ingest.parse_s", "s"), ("ingest.segment_s", "s"), ("ingest.rows", "count"),
    ("ingest.days_kept", "count"),
    ("measure.self_s", "s"), ("measure.calls", "count"), ("measure.boxes", "count"),
    ("partition.self_s", "s"), ("partition.calls", "count"), ("partition.cells", "count"),
    ("partition.cells_per_s", "1/s"),
    ("scaling.fit_s", "s"), ("scaling.linearity_s", "s"), ("spectrum.legendre_s", "s"),
    ("pipeline.self_s", "s"), ("pipeline.calls", "count"),
    ("bootstrap.self_s", "s"), ("bootstrap.permute_s", "s"), ("bootstrap.replicates", "count"),
    ("pool.busy_frac", "ratio"),
    ("cli.self_s", "s"), ("cli.write_s", "s"), ("cli.files", "count"), ("cli.bytes", "bytes"),
    ("trace.total_s", "s"), ("trace.overhead_frac", "ratio"), ("trace.unassigned_frac", "ratio"),
]
# Span name behind each per-layer self time.
SELF_TIME_SPANS = {
    "ingest.parse_s": "ingest.parse", "ingest.segment_s": "ingest.segment",
    "measure.self_s": "measure", "partition.self_s": "partition",
    "scaling.fit_s": "scaling.fit", "scaling.linearity_s": "scaling.linearity",
    "spectrum.legendre_s": "spectrum.legendre", "pipeline.self_s": "pipeline",
    "bootstrap.self_s": "bootstrap", "bootstrap.permute_s": "bootstrap.permute",
    "cli.self_s": "cli", "cli.write_s": "cli.write",
}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version()}
    cpuinfo = _read("/proc/cpuinfo") or ""
    facts["cpu_model"] = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                               if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(str(index / "level")), _read(str(index / "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size"))
    facts["caches"] = caches
    import numpy

    facts["numpy"] = numpy.__version__
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)

        facts["simd"] = {"baseline": list(__cpu_baseline__),
                         "dispatch_found": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}
    except ImportError:
        facts["simd"] = None
    return facts


class Run:
    def __init__(self, name: str, seed: int, seconds: int, workdir: Path, launcher):
        import workloads

        self.w = workloads.make(name, seed, workdir)
        self.launcher = launcher
        self.seconds = seconds
        self.workdir = workdir
        self.env = workloads.child_env()
        self.stderr_path = workdir / "child-stderr.txt"
        self.attempted = 0
        self.failed = 0

    def _tally(self, failed_days: int) -> int:
        self.attempted += self.w.days
        self.failed += failed_days
        return failed_days

    def setup_seconds(self) -> list[float]:
        argv = [sys.executable, "-c", self.w.setup_code()]
        probes = []
        for _ in range(SETUP_PROBES):
            probe = self.launcher.run(argv, ROOT, self.env, self.stderr_path)
            if probe["exit"] != 0:
                raise RuntimeError(f"setup probe exited {probe['exit']}")
            probes.append(probe["wall_s"])
        return probes

    def child_iteration(self, index: int) -> dict:
        """One untraced iteration in its own process, checked."""
        if self.w.spec["mode"] == "library":
            out_path = self.workdir / f"iteration-{index}.json"
            sample = self.launcher.run(self.w.child_argv(out_path), ROOT, self.env, self.stderr_path)
            if sample["exit"] == 0:
                out = json.loads(out_path.read_text())
                # A library call is timed inside the child, without interpreter start.
                sample["wall_s"], sample["cpu_s"] = out["wall_s"], out["cpu_s"]
                sample["failed"] = self._tally(self.w.check(out))
            else:
                self.w.fail(f"library iteration exited {sample['exit']}")
                sample["failed"] = self._tally(self.w.days)
        else:
            outdir = self.workdir / f"out-{index}"
            sample = self.launcher.run(self.w.child_argv(outdir), ROOT, self.env, self.stderr_path)
            sample["failed"] = self._tally(self.w.check(sample, outdir))
            shutil.rmtree(outdir, ignore_errors=True)
        return sample

    def inprocess_iteration(self, index: int) -> dict:
        """One iteration in this process with one worker, checked."""
        if self.w.spec["mode"] == "library":
            out = self.w.run_inprocess(n_jobs=1)
            out["failed"] = self._tally(self.w.check(out))
        else:
            outdir = self.workdir / f"inproc-{index}"
            out = self.w.run_inprocess(outdir, workers=1)
            out["failed"] = self._tally(self.w.check(out, outdir))
            shutil.rmtree(outdir, ignore_errors=True)
        return out

    def end_to_end(self) -> tuple[dict, dict]:
        setup = self.setup_seconds()
        samples = []
        deadline = time.perf_counter() + self.seconds
        while len(samples) < MIN_ITERATIONS or time.perf_counter() < deadline:
            samples.append(self.child_iteration(len(samples)))
        ok_rate = [(self.w.days - s["failed"]) / s["wall_s"] for s in samples]
        metrics = {
            "wall_s": statistics.median([s["wall_s"] for s in samples]),
            "days_per_s": statistics.median(ok_rate),
            "cpu_s": statistics.median([s["cpu_s"] for s in samples]),
            "peak_rss_mb": statistics.median([s["rss_mb"] for s in samples]),
            "setup_s": statistics.median(setup),
        }
        extra = {
            "iterations": len(samples),
            "replicates_per_s": (statistics.median([self.w.replicates / s["wall_s"] for s in samples])
                                 if self.w.replicates else None),
            "error_rate": self.failed / self.attempted,
            "wall_s_samples": [s["wall_s"] for s in samples],
            "cpu_s_samples": [s["cpu_s"] for s in samples],
            "peak_rss_mb_samples": [s["rss_mb"] for s in samples],
            "setup_s_samples": setup,
        }
        return metrics, extra

    def traced(self) -> tuple[dict, dict]:
        import tracing

        tracer = tracing.Tracer()
        rounds = []
        deadline = time.perf_counter() + self.seconds
        while len(rounds) < MIN_TRACE_ROUNDS or time.perf_counter() < deadline:
            i = len(rounds)
            with tracer.run():
                total = self.inprocess_iteration(2 * i)["wall_s"]
            plain = self.inprocess_iteration(2 * i + 1)
            if self.w.workers > 1:
                pooled = self.child_iteration(i)
                busy = pooled["cpu_s"] / (pooled["wall_s"] * self.w.workers)
            else:
                busy = plain["cpu_s"] / plain["wall_s"]
            selfs = tracer.self_seconds(tracer.run_id)
            rounds.append({"total": total, "plain": plain["wall_s"], "busy": busy,
                           "self": selfs, "counts": dict(tracer.counts[tracer.run_id])})
        tracer.write(WORK / "traces" / f"{self.w.name}-seed{self.w.seed}.jsonl")

        per_round = []
        for r in rounds:
            m = {name: r["self"][span] for name, span in SELF_TIME_SPANS.items()}
            m.update({name: r["counts"].get(name, 0) for name in tracing.COUNT_NAMES})
            m["partition.cells_per_s"] = (m["partition.cells"] / m["partition.self_s"]
                                          if m["partition.self_s"] else 0.0)
            m["pool.busy_frac"] = r["busy"]
            m["trace.total_s"] = r["total"]
            m["trace.overhead_frac"] = r["total"] / r["plain"] - 1.0
            m["trace.unassigned_frac"] = 1.0 - sum(r["self"].values()) / r["total"]
            per_round.append(m)
        metrics = {name: statistics.median([m[name] for m in per_round]) for name, _ in PER_LAYER}
        for name in tracing.COUNT_NAMES:
            seen = {m[name] for m in per_round}
            if len(seen) != 1:
                self.w.fail(f"count {name} differs between traced rounds: {sorted(seen)}")
        extra = {"rounds": len(rounds), "trace_workers": 1,
                 "counts": {name: per_round[0][name] for name in tracing.COUNT_NAMES},
                 "span_file": f".bench_work/traces/{self.w.name}-seed{self.w.seed}.jsonl"}
        return metrics, extra


def run_one(args, launcher) -> int:
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    (WORK / "traces").mkdir(exist_ok=True)
    try:
        load_before = os.getloadavg()[0]
        t_start = time.perf_counter()
        run = Run(args.workload, args.seed, args.seconds, workdir, launcher)
        run.w.prepare()
        prepare_s = time.perf_counter() - t_start
        if args.trace:
            metrics, extra = run.traced()
            units = dict(PER_LAYER)
        else:
            metrics, extra = run.end_to_end()
            units = dict(END_TO_END)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "spec": run.w.spec, "prepare_s": prepare_s,
            "machine": machine_facts(), "load_1min_before": load_before,
            "load_1min_after": os.getloadavg()[0], **extra,
            "check_failures": run.w.messages[:20],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not run.w.messages and run.failed == 0
    if args.trace:
        print(f"{args.workload}: traced in one process with workers forced to 1")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, as separate runs; one table."""
    import workloads

    rows, ok = [], True
    for name in workloads.SPECS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 and not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
            ok &= result["correct"]
            rows.append((name, trace, result, record))
    print(f"seed {args.seed}, {args.seconds} s per run")
    cols = ["wall_s", "replicates_per_s", "days_per_s", "cpu_s", "peak_rss_mb", "setup_s", "error_rate"]
    print(f"{'workload':22s}" + "".join(f"{c:>18s}" for c in cols))
    for name, trace, result, record in rows:
        if trace == 0:
            vals = {k: v["value"] for k, v in result["metrics"].items()}
            vals["replicates_per_s"] = record["replicates_per_s"]
            vals["error_rate"] = record["error_rate"]
            print(f"{name:22s}" + "".join(
                f"{'-' if vals[c] is None else format(vals[c], '.4g'):>18s}" for c in cols))
    print()
    for name, trace, result, record in rows:
        if trace == 1:
            print(name + ": " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "mfbox" / "__init__.py").is_file():
        print(f"benchmark: no mfbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spawn

    # Started before this process loads numpy and the reference data.
    launcher = spawn.Launcher()
    try:
        import workloads

        if args.workload not in workloads.SPECS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.SPECS)} or all")
        return run_one(args, launcher)
    finally:
        launcher.close()


if __name__ == "__main__":
    sys.exit(main())
