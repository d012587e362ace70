"""The artifact format: 12-digit CSV tables and JSON, written atomically."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Sequence

import numpy as np

# Artifacts carry 12 significant digits: enough to round-trip every quantity
# we report at its meaningful precision, few enough that round-off noise
# (~1e-13 absolute after q = +-120 amplification) does not leak into bytes.
_FLOAT_FORMAT = "%.12g"


def round_for_json(x: float | None) -> float | None:
    """Round to the artifact precision so JSON bytes are format-stable; NaN is null."""
    if x is None or math.isnan(x):
        return None
    return float(_FLOAT_FORMAT % x)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file + rename so partial files never appear."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: str | Path, obj: dict) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """CSV of the column-stacked arrays (1-D columns or 2-D blocks), every value 12 digits."""
    table = np.column_stack(columns)
    row = ",".join([_FLOAT_FORMAT] * table.shape[1]) + "\n"
    body = (row * table.shape[0]) % tuple(table.ravel().tolist())
    atomic_write_text(path, ",".join(header) + "\n" + body)
