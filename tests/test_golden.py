"""Byte-identity of the CLI on a fixed set of small runs.

``tests/golden.json`` holds, for each case, the exit code, the SHA-256 of
stdout and stderr, and the SHA-256 and text of every artifact file. Each case
runs at ``--workers 1`` and ``--workers 2`` against the same record, so the
output must also be identical across worker counts.

On the numpy version, machine and numpy SIMD dispatch targets the file was
written on, artifacts are compared by hash. Elsewhere every CSV and JSON value
is compared at atol 1e-9 instead, so the test never passes silently on another
platform. The dispatch targets count because numpy's AVX-512 ``exp`` and ``log``
differ in their last bits from its other code paths on the same machine.

The file is regenerated only by ``python tests/test_golden.py --write``. A
change that regenerates it must list the changed files and say why.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from mfbox.cli import main, write_series_csv
from mfbox.ingest import PriceSeries
from mfbox.synth import CascadeSpec, binomial_cascade, constant_series, random_positive_series

GOLDEN = Path(__file__).with_name("golden.json")
ATOL = 1e-9
SMALL_GRID = ("--q-min", "-10", "--q-max", "10")


def day_id(i: int) -> str:
    return (datetime.date(2000, 1, 3) + datetime.timedelta(days=i)).isoformat()


def walk(i: int, T: int) -> PriceSeries:
    return random_positive_series(T, "intraday-walk", seed=20 + i, sigma=0.0005, initial=15000,
                                  day_id=day_id(i))


def bar_lines(day: PriceSeries) -> list[str]:
    return [f"{day.day_id},{9 + (30 + i) // 60:02d}:{(30 + i) % 60:02d},{v!r}\n"
            for i, v in enumerate(day.values.tolist())]


def cascades(path: Path, n: int) -> None:
    write_series_csv([PriceSeries(day_id(s), binomial_cascade(CascadeSpec(p=0.6, levels=8),
                                                              seed=s).values)
                      for s in range(n)], path)


def interleaved(path: Path) -> None:
    a, b = bar_lines(walk(0, 60)), bar_lines(walk(1, 60))
    rows = [row for pair in zip(a, b) for row in pair]
    path.write_text("date,time,price\n" + "".join(rows), encoding="utf-8")


def bad_price(path: Path) -> None:
    path.write_text("date,time,price\n2000-01-03,09:30,1.5\n\n2000-01-03,09:31,abc\n",
                    encoding="utf-8")


# name -> (writes the input file, CLI arguments after the input and output paths)
CASES = {
    "analyze-walk": (
        lambda p: write_series_csv([walk(i, 60) for i in range(3)], p),
        ("analyze", "--export", "surface", *SMALL_GRID)),
    "batch-walk240": (
        lambda p: write_series_csv([walk(i, 240) for i in range(3)], p),
        ("batch", "--export", "scatter,surface", "--bootstrap", "60", "--seed", "7",
         *SMALL_GRID)),
    "shuffle-cascade": (
        lambda p: cascades(p, 2),
        ("shuffle-test", "--bootstrap", "60", "--seed", "3", "--q-min", "-5", "--q-max", "5")),
    # days 0 and 2 print the p1/p2 disagreement line; day 1 sits at exactly 0.1 and does not
    "shuffle-disagree": (
        lambda p: cascades(p, 3),
        ("shuffle-test", "--bootstrap", "20", "--seed", "3", *SMALL_GRID)),
    "batch-constant": (
        lambda p: write_series_csv([constant_series(60, 5.0, day_id(i)) for i in range(2)], p),
        ("batch", "--bootstrap", "60", *SMALL_GRID)),
    "analyze-dropped-day": (
        lambda p: write_series_csv([walk(0, 60), walk(1, 30), walk(2, 60)], p),
        ("analyze", *SMALL_GRID)),
    "analyze-interleaved": (interleaved, ("analyze", "--export", "surface", *SMALL_GRID)),
    "bad-price-after-blank": (bad_price, ("analyze",)),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def fresh_process_streams():
    """Capture stdout and stderr as a fresh ``mfbox`` process would print them.

    Warnings are shown with the interpreter's default filters.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.resetwarnings()
        warnings.simplefilter("default")
        yield out, err


def run_case(name: str, workers: int, workdir: Path) -> dict:
    """Run one case in ``workdir``; the exit code, streams and artifact texts."""
    write_input, args = CASES[name]
    workdir.mkdir(parents=True, exist_ok=True)
    write_input(workdir / "in.csv")
    cwd = os.getcwd()
    os.chdir(workdir)  # relative paths keep the temporary directory out of stderr
    try:
        with fresh_process_streams() as (out, err):
            code = main([args[0], "--input", "in.csv", "--outdir", "out",
                         "--workers", str(workers), *args[1:]])
    finally:
        os.chdir(cwd)
    root = workdir / "out"
    files = {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
             for p in sorted(root.rglob("*")) if p.is_file()}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def record(result: dict) -> dict:
    return {
        "exit": result["exit"],
        "stdout": sha256(result["stdout"]),
        "stderr": sha256(result["stderr"]),
        "files": {name: {"sha256": sha256(text), "text": text}
                  for name, text in result["files"].items()},
    }


def parse_artifact(name: str, text: str):
    """JSON as loaded; CSV as its header plus rows of floats."""
    if name.endswith(".json"):
        return json.loads(text)
    header, *rows = text.splitlines()
    return [header.split(","), *[[float(v) for v in row.split(",")] for row in rows]]


def values_close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(values_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(values_close(x, y) for x, y in zip(a, b))
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool) \
            and not isinstance(b, bool):
        return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= ATOL
    return type(a) is type(b) and a == b


def simd_dispatch() -> list[str]:
    """numpy's SIMD dispatch targets enabled here, after any ``NPY_DISABLE_CPU_FEATURES``."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [target for target in __cpu_dispatch__ if __cpu_features__[target]]


def same_platform(golden: dict) -> bool:
    return (golden["numpy"] == np.__version__ and golden["machine"] == platform.machine()
            and golden["simd_dispatch"] == simd_dispatch())


def mismatches(expected: dict, got: dict, by_hash: bool) -> list[str]:
    """Names of what differs between a stored record and a new one."""
    bad = [key for key in ("exit", "stdout", "stderr") if expected[key] != got[key]]
    if expected["files"].keys() != got["files"].keys():
        return bad + ["file set"]
    for name, want in expected["files"].items():
        have = got["files"][name]
        if by_hash:
            same = want["sha256"] == have["sha256"]
        else:
            same = values_close(parse_artifact(name, want["text"]),
                                parse_artifact(name, have["text"]))
        if not same:
            bad.append(name)
    return bad


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert set(golden["cases"]) == set(CASES)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(golden, tmp_path, name, workers):
    got = record(run_case(name, workers, tmp_path))
    assert mismatches(golden["cases"][name], got, same_platform(golden)) == []


def test_value_comparison_catches_a_changed_digit(golden):
    # The cross-platform path, exercised on this machine.
    expected = golden["cases"]["analyze-walk"]
    name = "2000-01-03/tau.csv"
    text = expected["files"][name]["text"]
    header, first, *rest = text.splitlines()
    cells = first.split(",")

    def with_tau(tau: float) -> dict:
        changed = "\n".join([header, ",".join([cells[0], repr(tau), *cells[2:]]), *rest]) + "\n"
        files = dict(expected["files"], **{name: {"sha256": sha256(changed), "text": changed}})
        return dict(expected, files=files)

    tau = float(cells[1])
    assert mismatches(expected, with_tau(tau + ATOL / 10), by_hash=False) == []
    assert mismatches(expected, with_tau(tau + ATOL / 10), by_hash=True) == [name]
    assert mismatches(expected, with_tau(tau + ATOL * 10), by_hash=False) == [name]


def write_golden(path: Path = GOLDEN) -> None:
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            runs = [record(run_case(name, w, Path(tmp) / f"{name}-{w}")) for w in (1, 2)]
            if runs[0] != runs[1]:
                raise SystemExit(f"{name}: output differs between --workers 1 and 2")
            cases[name] = runs[0]
    golden = {"numpy": np.__version__, "machine": platform.machine(),
              "simd_dispatch": simd_dispatch(), "cases": cases}
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    write_golden()
    print(f"wrote {GOLDEN}")
