"""The bulk CSV writer against the per-value 12-digit formatter it replaced, and atomic writes."""

import numpy as np
import pytest

from mfbox._text import atomic_write_text, round_for_json, write_csv


def reference_csv(header, table):
    lines = [",".join(header)]
    lines += [",".join(f"{x:.12g}" for x in row) for row in table.tolist()]
    return "".join(line + "\n" for line in lines)


EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-310, np.finfo(np.float64).max, -np.finfo(np.float64).max, 1e300, 1e-300,
               -1e300, -1e-300, 1.0, -1.0, 0.1, 123456789012345.0, 1.5e-5]


def test_bytes_equal_per_value_formatter(tmp_path):
    bits = np.random.default_rng(20).integers(0, 2 ** 64, size=10_000, dtype=np.uint64,
                                              endpoint=False)
    values = np.concatenate([np.asarray(EDGE_VALUES), bits.view(np.float64)])
    table = values.reshape(-1, 4)
    header = ("a", "b", "c", "d")
    write_csv(tmp_path / "t.csv", header, (table[:, 0], table[:, 1:]))
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, table).encode()


def test_empty_table_is_header_only(tmp_path):
    write_csv(tmp_path / "t.csv", ("x", "y"), (np.empty(0), np.empty(0)))
    assert (tmp_path / "t.csv").read_text() == "x,y\n"


def test_round_for_json():
    assert round_for_json(None) is None
    assert round_for_json(float("nan")) is None
    assert round_for_json(1 / 3) == 0.333333333333


def test_failed_rename_leaves_no_temp_file(tmp_path):
    # the temp file is written, but a file cannot replace a directory
    (tmp_path / "t.json").mkdir()
    with pytest.raises(IsADirectoryError):
        atomic_write_text(tmp_path / "t.json", "{}\n")
    assert list(tmp_path.rglob("*.tmp")) == []
    assert (tmp_path / "t.json").is_dir()
