"""In-memory spans around the module-level functions each mfbox layer calls.

Callers bind names at import time (``from .measure import build_box_measure``),
so each function is replaced wherever a loaded ``mfbox`` module holds a
reference to it, and restored afterwards. A span records its name, start,
end, parent span and run id; counts are taken at the same boundaries. A
layer's self time is its spans' durations minus the time covered by their
child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_measure(c, args, kwargs, result):
    c["measure.calls"] += 1
    c["measure.boxes"] += result.box_count


def _count_partition(c, args, kwargs, result):
    c["partition.calls"] += 1
    c["partition.cells"] += result.grid.size * sum(result.scheme.box_counts)


def _count_pipeline(c, args, kwargs, result):
    c["pipeline.calls"] += 1


def _count_permute(c, args, kwargs, result):
    c["bootstrap.replicates"] += 1


def _count_parse(c, args, kwargs, result):
    c["ingest.rows"] += len(result)


def _count_segment(c, args, kwargs, result):
    c["ingest.days_kept"] += len(result.days)


def _count_write(c, args, kwargs, result):
    c["cli.files"] += 1
    c["cli.bytes"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


# (module, function, span name or None for a counter only, counter)
HOOKS = [
    ("mfbox.ingest", "parse_intraday_csv", "ingest.parse", _count_parse),
    ("mfbox.ingest", "segment_by_day", "ingest.segment", _count_segment),
    ("mfbox.measure", "build_box_measure", "measure", _count_measure),
    ("mfbox.partition", "partition_surface", "partition", _count_partition),
    ("mfbox.scaling", "fit_mass_exponents", "scaling.fit", None),
    ("mfbox.scaling", "tau_linearity_report", "scaling.linearity", None),
    ("mfbox.spectrum", "legendre_spectrum", "spectrum.legendre", None),
    ("mfbox.pipeline", "analyze_series", "pipeline", _count_pipeline),
    ("mfbox.bootstrap", "permuted_values", "bootstrap.permute", _count_permute),
    ("mfbox.bootstrap", "bootstrap_analysis", "bootstrap", None),
    ("mfbox.cli", "_write_analysis_artifacts", "cli.write", None),
    ("mfbox.cli", "_write_bootstrap_artifacts", "cli.write", None),
    ("mfbox.cli", "main", "cli", None),
    ("mfbox._text", "atomic_write_text", None, _count_write),
]

SPAN_NAMES = sorted({span for _, _, span, _ in HOOKS if span})
COUNT_NAMES = [
    "ingest.rows", "ingest.days_kept", "measure.calls", "measure.boxes",
    "partition.calls", "partition.cells", "pipeline.calls", "bootstrap.replicates",
    "cli.files", "cli.bytes",
]


class Tracer:
    """Collects spans and counts for successive runs of one workload."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, run id]
        self.counts: dict[int, Counter] = {}
        self.run_id = -1
        self._stack: list[int] = []

    def _wrap(self, fn, span_name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                record = [span_name, 0, 0, stack[-1] if stack else -1, self.run_id]
                stack.append(len(spans))
                spans.append(record)
                record[1] = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter_ns()
                    stack.pop()
            if counter is not None:
                counter(self.counts[self.run_id], args, kwargs, result)
            return result

        return traced

    @contextmanager
    def run(self):
        """Trace one run: patch every hook, yield, restore the originals."""
        self.run_id += 1
        self.counts[self.run_id] = Counter()
        self._stack.clear()
        hooked = [(importlib.import_module(m), fn, span, counter) for m, fn, span, counter in HOOKS]
        modules = [m for n, m in list(sys.modules.items()) if n == "mfbox" or n.startswith("mfbox.")]
        undo = []
        for module, fn_name, span_name, counter in hooked:
            original = getattr(module, fn_name)
            wrapped = self._wrap(original, span_name, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def self_seconds(self, run_id: int) -> dict[str, float]:
        """Per span name: summed duration minus child-span time, in seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if run == run_id and parent >= 0:
                child_ns[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run == run_id:
                out[name] += (end - start - child_ns[i]) / 1e9
        return out

    def write(self, path) -> None:
        """All spans as JSON lines, written once when the benchmark ends."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run": run}) + "\n")
