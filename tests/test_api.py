"""The public namespace, the names the benchmark's tracer patches, and the import layering."""

import ast
import copy
import dataclasses
import importlib
from collections import Counter
from operator import attrgetter
from pathlib import Path

import pytest

import mfbox
from mfbox.cli import main
from mfbox.ingest import PriceSeries, parse_intraday_csv
from mfbox.measure import build_box_measure
from mfbox.partition import MomentGrid

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

PUBLIC = {
    "BootstrapConfig", "BootstrapReport", "BoxScheme", "CascadeSpec", "DayAnalysis",
    "IngestError", "MomentGrid", "PriceSeries", "analytic_binomial_tau", "analyze_series",
    "binomial_cascade", "bootstrap_analysis", "constant_series",
    "derive_box_scheme", "parse_intraday_csv", "random_positive_series", "replicate_clouds",
    "segment_by_day", "shuffle_report",
}


def test_public_names():
    assert set(mfbox.__all__) == PUBLIC
    assert len(mfbox.__all__) == len(PUBLIC)
    for name in mfbox.__all__:
        assert getattr(mfbox, name) is not None


def load_tracing():
    # Executed from its source text, so nothing is written next to the file.
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_traced_functions_resolve():
    for module, fn, _, _ in load_tracing()["HOOKS"]:
        assert callable(getattr(importlib.import_module(module), fn, None)), f"{module}.{fn}"


def test_tracer_sees_each_layer_of_a_batch_run(tmp_path):
    # A refactor that moves work off a hooked function blinds that layer without failing
    # the benchmark, so pin what one small batch run shows. The measure layer reads 0
    # (its hook is on a function the pipeline no longer calls) and is left out.
    csv = tmp_path / "walk.csv"
    assert main(["synth", "--kind", "intraday-walk", "--length", "60", "--days", "2",
                 "--seed", "3", "--out", str(csv)]) == 0
    tracer = load_tracing()["Tracer"]()
    with tracer.run():
        assert main(["batch", "--input", str(csv), "--outdir", str(tmp_path / "out"),
                     "--bootstrap", "7", "--q-min", "-3", "--q-max", "3"]) == 0
    expected = {"ingest.rows": 120, "ingest.days_kept": 2, "partition.calls": 2,
                "partition.cells": 2352, "pipeline.calls": 2, "bootstrap.replicates": 14,
                "cli.files": 9}
    counts = tracer.counts[tracer.run_id]
    assert {name: counts[name] for name in expected} == expected
    self_s = tracer.self_seconds(tracer.run_id)
    for layer in ("ingest.parse", "ingest.segment", "partition", "scaling.fit",
                  "scaling.linearity", "spectrum.legendre", "cli.write"):
        assert self_s[layer] > 0.0, layer


def test_traced_row_count_is_data_rows(tmp_path):
    # The tracer counts ingest.rows as len() of what parse_intraday_csv returns.
    path = tmp_path / "d.csv"
    path.write_text("date,time,price\nd1,09:31,1.0\n\nd1,09:32,2.0\nd1,09:33,3.0\n",
                    encoding="utf-8")
    counts = Counter()
    load_tracing()["_count_parse"](counts, (path,), {}, parse_intraday_csv(path))
    assert counts["ingest.rows"] == 3


def analysed_day():
    return mfbox.analyze_series(PriceSeries("d", [1.0, 2.0, 3.0, 4.0]))


ARRAY_HOLDERS = {
    "PriceSeries": lambda: PriceSeries("d", [1.0, 2.0]),
    "BoxMeasure": lambda: build_box_measure(PriceSeries("d", [1.0, 2.0, 3.0, 4.0]), 2),
    "MomentGrid": lambda: MomentGrid.from_range(-2, 2),
    "PartitionSurface": lambda: analysed_day().surface,
    "MassExponents": lambda: analysed_day().exponents,
    "SingularitySpectrum": lambda: analysed_day().spectrum,
    "DayAnalysis": analysed_day,
    "BootstrapReport": lambda: mfbox.bootstrap_analysis(
        PriceSeries("d", [1.0, 2.0, 3.0, 4.0]), mfbox.derive_box_scheme(4),
        MomentGrid.from_range(-2, 2), mfbox.BootstrapConfig(replicates=3)),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(make):
    # Field-wise == would ask numpy for the truth value of an array and raise.
    x = make()
    assert x == x
    assert (x == copy.deepcopy(x)) is False
    assert hash(x) == hash(x)


@pytest.mark.parametrize("field", ["series.values", "surface.log_chi", "exponents.tau",
                                   "exponents.r", "spectrum.alpha", "spectrum.f",
                                   "surface.grid.q_values"])
def test_result_arrays_are_read_only(field):
    # Each stage function marks the arrays it made read-only, without copying them.
    array = attrgetter(field)(analysed_day())
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 1.0


def imported_names(tree):
    """Absolute dotted names of every module and member a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "mfbox" + (f".{base}" if base else "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def unused_imports(tree):
    """Names a module imports but never reads; a name listed in ``__all__`` counts as read."""
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_modules_use_every_name_they_import():
    # Deleting code tends to leave its imports behind.
    for path in sorted(Path(mfbox.__file__).parent.glob("*.py")):
        assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == set(), path.name


def test_only_the_cli_formats_artifacts():
    # The artifact format lives in _text and its layouts in cli; the stage
    # modules only compute.
    sources = sorted(Path(mfbox.__file__).parent.glob("*.py"))
    assert {p.stem for p in sources} >= {"cli", "_text", "partition", "scaling", "bootstrap"}
    for path in sources:
        names = set(imported_names(ast.parse(path.read_text(encoding="utf-8"))))
        assert not any(n == "io" or n.startswith("io.") for n in names), path.name
        if path.stem != "cli":
            assert "mfbox._text" not in names, path.name


def test_shuffle_results_hold_facts_only():
    # The verdict (p <= level) and the level itself belong to the CLI.
    report = [f.name for f in dataclasses.fields(mfbox.BootstrapReport)]
    assert report == ["day_id", "delta_alpha", "f_mid", "replicates", "k", "b", "p1", "p2"]
    assert [f.name for f in dataclasses.fields(mfbox.BootstrapConfig)] == ["replicates",
                                                                           "master_seed"]
    for path in sorted(Path(mfbox.__file__).parent.glob("*.py")):
        names = {getattr(node, attr) for node in ast.walk(ast.parse(path.read_text("utf-8")))
                 for attr in ("id", "attr", "arg") if isinstance(getattr(node, attr, None), str)}
        if path.stem != "cli":
            assert not {n for n in names if n == "level" or "signific" in n}, path.name
