"""The public namespace and the names the benchmark's tracer patches."""

import importlib
from pathlib import Path

import mfbox

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

PUBLIC = {
    "BootstrapConfig", "BootstrapReport", "BoxScheme", "CascadeSpec", "DayAnalysis",
    "IngestError", "MomentGrid", "PriceSeries", "analytic_binomial_tau", "analyze_series",
    "batch_summary", "binomial_cascade", "bootstrap_analysis", "constant_series",
    "derive_box_scheme", "parse_intraday_csv", "random_positive_series", "replicate_clouds",
    "segment_by_day", "shuffle_report",
}


def test_public_names():
    assert set(mfbox.__all__) == PUBLIC
    assert len(mfbox.__all__) == len(PUBLIC)
    for name in mfbox.__all__:
        assert getattr(mfbox, name) is not None


def test_traced_functions_resolve():
    # Executed from its source text, so nothing is written next to the file.
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    hooks = [(module, fn) for module, fn, _, _ in namespace["HOOKS"]]
    # Acceptance criterion 7c calls this one directly.
    hooks.append(("mfbox.partition", "log_partition_value"))
    for module, fn in hooks:
        assert callable(getattr(importlib.import_module(module), fn, None)), f"{module}.{fn}"
