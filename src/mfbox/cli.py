"""Command-line front end.

Subcommands:
    analyze       per-day tau/spectrum tables and a summary JSON
    shuffle-test  seeded shuffle significance test per day
    batch         analyze + shuffle-test for every day, plus batch summary
    synth         generate synthetic control data in the ingestion format

Only shuffle-test and batch take --bootstrap and --level, and --export takes
only the tables the command writes; analyze accepts but ignores --seed and
--workers. The parser owns every default; MomentGrid and BootstrapConfig own
the range checks of the q grid and the replicate count. This module alone
knows the significance level: it checks --level and turns p1 and p2 into the
significant_* flags and the batch fractions it writes.

Exit codes: 0 success, 2 configuration error, 3 ingestion error,
4 numeric failure, out of memory, a replicate helper that died or could not
be forked, or a replicate block that failed in a helper but passed when rerun.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from dataclasses import dataclass
from pathlib import Path

from ._text import TEMP_SUFFIX, atomic_write_text, round_for_json, write_csv, write_json
from .bootstrap import (BootstrapConfig, BootstrapReport, HelperError, replicate_clouds,
                        shuffle_report)
from .ingest import (
    DroppedDay,
    IngestError,
    MinuteBars,
    PriceSeries,
    derive_box_scheme,
    parse_intraday_csv,
    segment_by_day,
)
from .partition import MomentGrid
from .pipeline import DayAnalysis, analyze_series
from .scaling import tau_linearity_report
from .synth import CascadeSpec, binomial_cascade, constant_series, random_positive_series

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_NUMERIC = 4

_EXPORTS = {"analyze": ("surface",), "shuffle-test": ("scatter",), "batch": ("surface", "scatter")}
_BATCH_SUMMARY = "batch_summary.json"
# The files a run writes in --outdir itself, with their temp files. A day's directory of
# one of these names would collide with them, so every command drops such a day.
_RUN_FILES = (_BATCH_SUMMARY, _BATCH_SUMMARY + TEMP_SUFFIX)


class ConfigError(Exception):
    """Invalid combination of command-line options."""


@dataclass(frozen=True)
class RunConfig:
    """One analyze/shuffle-test/batch run; ``shuffle`` and ``level`` are None for analyze."""

    command: str
    input: Path
    outdir: Path
    grid: MomentGrid
    boxes: tuple[int, ...] | None
    shuffle: BootstrapConfig | None
    level: float | None
    date_col: str
    time_col: str
    price_col: str
    export: frozenset
    workers: int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbox",
        description="Box-counting multifractal analysis with shuffle significance tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("analyze", "tau(q), spectrum, and summary per day"),
                            ("shuffle-test", "shuffle significance test per day"),
                            ("batch", "analyze + shuffle-test for every day")):
        p = sub.add_parser(name, help=help_text)
        shuffles = name != "analyze"
        unused = "" if shuffles else " (shuffle test only; analyze ignores it)"
        p.add_argument("--input", required=True, help="input CSV of minute bars")
        p.add_argument("--outdir", required=True, help="directory for artifacts")
        p.add_argument("--q-min", type=float, default=-120.0)
        p.add_argument("--q-max", type=float, default=120.0)
        p.add_argument("--q-step", type=float, default=1.0)
        p.add_argument("--boxes", default=None, help="comma list overriding the box sizes")
        for column in ("date", "time", "price"):
            p.add_argument(f"--{column}-col", default=column)
        p.add_argument("--export", default="",
                       help=f"comma list of optional tables from {_EXPORTS[name]}; "
                            "the other tables are always written")
        p.add_argument("--seed", type=int, default=0, help="master seed for shuffling" + unused)
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes, at most the CPUs this process may use" + unused)
        if shuffles:
            p.add_argument("--bootstrap", type=int, default=1000, help="shuffle replicates per day")
            p.add_argument("--level", type=float, default=0.05, help="significance level")

    p_sy = sub.add_parser("synth", help="write synthetic control data as CSV")
    p_sy.add_argument("--out", required=True, help="output CSV path")
    p_sy.add_argument("--kind", required=True,
                      choices=("constant", "iid-lognormal", "intraday-walk", "cascade"))
    p_sy.add_argument("--length", type=int, default=240, help="bars per day (non-cascade kinds)")
    p_sy.add_argument("--value", type=float, default=1.0, help="constant level")
    p_sy.add_argument("--sigma", type=float, default=0.01, help="log-step scale")
    p_sy.add_argument("--initial", type=float, default=1.0, help="starting level for noise kinds")
    p_sy.add_argument("--p", type=float, default=0.6, help="cascade split fraction")
    p_sy.add_argument("--levels", type=int, default=12, help="cascade depth (length 2^levels)")
    p_sy.add_argument("--mass", type=float, default=1.0, help="cascade total mass")
    p_sy.add_argument("--seed", type=int, default=None,
                      help="noise seed of the first day, +1 per later day (0 when absent); "
                           "randomizes cascade orientation when given")
    p_sy.add_argument("--days", type=int, default=1, help="number of days to generate")
    p_sy.add_argument("--start-date", default="2000-01-03")
    return parser


def _parse_boxes(text: str | None) -> tuple[int, ...] | None:
    if not text:
        return None
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--boxes must be a comma list of integers, got {text!r}") from exc


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    choices = _EXPORTS[args.command]
    export = frozenset(tok.strip() for tok in args.export.split(",") if tok.strip())
    if not export <= set(choices):
        raise ConfigError(f"{args.command} cannot --export {sorted(export - set(choices))}; "
                          f"choose from {choices}")
    try:
        grid = MomentGrid.from_range(args.q_min, args.q_max, args.q_step)
        shuffle = None if args.command == "analyze" else BootstrapConfig(
            replicates=args.bootstrap, master_seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    level = None if shuffle is None else args.level
    if level is not None and not 0.0 < level < 1.0:
        raise ConfigError(f"significance level must be in (0, 1), got {level}")
    return RunConfig(
        command=args.command, input=Path(args.input), outdir=Path(args.outdir), grid=grid,
        boxes=_parse_boxes(args.boxes), shuffle=shuffle, level=level, date_col=args.date_col,
        time_col=args.time_col, price_col=args.price_col, export=export, workers=args.workers,
    )


def _load_days(cfg: RunConfig) -> list[PriceSeries]:
    """Parsed, segmented days; days named after a run file are dropped before segmentation."""
    bars = parse_intraday_csv(
        cfg.input, date_col=cfg.date_col, time_col=cfg.time_col, price_col=cfg.price_col
    )
    named = [DroppedDay(day_id, len(prices), "day id names a file the run writes in --outdir")
             for day_id, (_, prices) in bars.days.items() if day_id in _RUN_FILES]
    seg = segment_by_day(MinuteBars({day_id: columns for day_id, columns in bars.days.items()
                                     if day_id not in _RUN_FILES}))
    for drop in named + seg.dropped:
        print(f"mfbox: dropped day {drop.day_id!r} ({drop.length} bars): {drop.reason}",
              file=sys.stderr)
    if not seg.days:
        print(f"mfbox: no usable days in {cfg.input}", file=sys.stderr)
    return seg.days


def _write_analysis_artifacts(cfg: RunConfig, analysis: DayAnalysis) -> None:
    day_dir = cfg.outdir / analysis.series.day_id
    surface, exponents, spectrum = analysis.surface, analysis.exponents, analysis.spectrum
    q = surface.grid.q_values
    write_csv(day_dir / "tau.csv", ("q", "tau", "r"), (q, exponents.tau, exponents.r))
    write_csv(day_dir / "spectrum.csv", ("q", "alpha", "f"), (q, spectrum.alpha, spectrum.f))
    if "surface" in cfg.export:
        write_csv(day_dir / "surface.csv", ("q", *map(str, surface.scheme.sizes)),
                  (q, surface.log_chi))
    write_json(
        day_dir / "summary.json",
        {
            "day": analysis.series.day_id,
            "length": analysis.series.length,
            "alpha_bar": round_for_json(exponents.alpha_bar),
            "alpha_bar_stderr": round_for_json(exponents.alpha_bar_stderr),
            "max_tau_residual": round_for_json(tau_linearity_report(exponents)),
            "delta_alpha": round_for_json(spectrum.delta_alpha),
            "F": round_for_json(spectrum.f_mid),
        },
    )


def _report_dict(report: BootstrapReport, level: float) -> dict:
    return {
        "day": report.day_id,
        "delta_alpha": round_for_json(report.delta_alpha),
        "F": round_for_json(report.f_mid),
        "k": round_for_json(report.k),
        "b": round_for_json(report.b),
        "p1": round_for_json(report.p1),
        "p2": round_for_json(report.p2),
        "significant_1": report.p1 <= level,
        "significant_2": report.p2 <= level,
    }


def _write_bootstrap_artifacts(cfg: RunConfig, reports: list[BootstrapReport]) -> None:
    """Per-day shuffle_test.json (and scatter.csv), then batch_summary.json for batch
    or several days: the shares of days whose p1 and p2 are at most the level."""
    rows = [_report_dict(report, cfg.level) for report in reports]
    for report, row in zip(reports, rows):
        day_dir = cfg.outdir / report.day_id
        write_json(day_dir / "shuffle_test.json", row)
        if "scatter" in cfg.export:
            write_csv(day_dir / "scatter.csv", ("delta_alpha_rnd", "F_rnd"), (report.replicates,))
    if len(rows) > 1 or cfg.command == "batch":
        n = len(rows)
        write_json(
            cfg.outdir / _BATCH_SUMMARY,
            {
                "level": round_for_json(cfg.level),
                "n_days": n,
                "pct_p1_significant": round_for_json(sum(r["significant_1"] for r in rows) / n),
                "pct_p2_significant": round_for_json(sum(r["significant_2"] for r in rows) / n),
                "days": rows,
            },
        )


def run_days(cfg: RunConfig) -> int:
    """analyze, shuffle-test or batch; each day is analysed exactly once.

    A day's analysis artifacts (analyze, batch) are written as soon as it is
    analysed, so analyze streams; the shuffle test then sends every day's
    replicates to one scheduler and scores each day against its cloud, noting
    on stderr, in day order, each day whose p1 and p2 differ by more than 0.1.
    """
    days = _load_days(cfg)
    try:  # one length for all days
        scheme = derive_box_scheme(days[0].length, override=cfg.boxes) if days else None
    except ValueError as exc:
        raise ConfigError(f"box scheme invalid for day length {days[0].length}: {exc}") from exc
    tested = []  # the analysis of each day to shuffle-test
    for day in days:
        analysis = analyze_series(day, scheme, cfg.grid)
        if cfg.command != "shuffle-test":
            _write_analysis_artifacts(cfg, analysis)
        if cfg.command != "analyze":
            tested.append(analysis)
    if tested:
        clouds = replicate_clouds(tested, cfg.shuffle, cfg.workers)
        reports = [shuffle_report(day, cloud) for day, cloud in zip(tested, clouds)]
        for r in reports:
            if abs(r.p1 - r.p2) > 0.1:
                print(f"mfbox: day {r.day_id}: p1 = {r.p1:.3f} and p2 = {r.p2:.3f} "
                      "disagree by more than 0.1", file=sys.stderr)
        _write_bootstrap_artifacts(cfg, reports)
    return EXIT_OK


def _synth_day(args: argparse.Namespace, index: int, day_id: str) -> PriceSeries:
    if args.kind == "constant":
        return constant_series(args.length, args.value, day_id=day_id)
    if args.kind == "cascade":  # unseeded: every day has the closed-form orientation
        seed = None if args.seed is None else args.seed + index
        spec = CascadeSpec(p=args.p, levels=args.levels, total_mass=args.mass)
        return PriceSeries(day_id=day_id, values=binomial_cascade(spec, seed=seed).values)
    return random_positive_series(
        args.length, args.kind, seed=(args.seed or 0) + index,
        sigma=args.sigma, initial=args.initial, day_id=day_id,
    )


def write_series_csv(days: list[PriceSeries], path) -> None:
    """Standard ingestion CSV; prices as shortest round-trip decimals."""
    lines = ["date,time,price\n"]
    for day in days:
        for i, value in enumerate(day.values.tolist()):
            minute = (9 * 60 + 30 + i) % (24 * 60)
            lines.append(f"{day.day_id},{minute // 60:02d}:{minute % 60:02d},{value!r}\n")
    atomic_write_text(path, "".join(lines))


def run_synth(args: argparse.Namespace) -> int:
    if args.days < 1:
        raise ConfigError(f"--days must be >= 1, got {args.days}")
    try:
        start = datetime.date.fromisoformat(args.start_date)
    except ValueError as exc:
        raise ConfigError(f"--start-date must be YYYY-MM-DD, got {args.start_date!r}") from exc
    try:
        day_ids = [(start + datetime.timedelta(days=i)).isoformat() for i in range(args.days)]
    except OverflowError as exc:
        raise ConfigError(f"--days {args.days} from --start-date {args.start_date} "
                          f"runs past {datetime.date.max}") from exc
    try:
        days = [_synth_day(args, i, day_id) for i, day_id in enumerate(day_ids)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_series_csv(days, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    try:
        if args.command == "synth":
            return run_synth(args)
        return run_days(_config_from_args(args))
    except ConfigError as exc:
        print(f"mfbox: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestError as exc:
        print(f"mfbox: ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except OSError as exc:
        print(f"mfbox: file error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except (ValueError, ArithmeticError) as exc:
        print(f"mfbox: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # e.g. a long day on a q grid near MomentGrid's bound
        print(f"mfbox: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_NUMERIC
    except HelperError as exc:  # e.g. a helper the kernel killed for memory
        print(f"mfbox: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
