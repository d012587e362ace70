"""Minute-bar CSV ingestion, trading-day segmentation, and box-size schemes.

A raw file holds one or more trading days of strictly positive minute bars.
Segmentation groups rows by their date string, drops days with bad prices or
an atypical bar count, and hands each surviving day downstream as an
immutable :class:`PriceSeries`.
"""

from __future__ import annotations

import csv
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Preset box-size lists for the common intraday session lengths. The
# T=240 and T=390 lists deliberately omit a few divisors (5, 8, ... for
# 240; 6, 65 for 390); pass an explicit override to use different sizes.
PRESET_BOX_SIZES: dict[int, tuple[int, ...]] = {
    240: (1, 2, 3, 4, 6, 10, 15, 20, 30, 40, 60, 80, 120, 240),
    405: (1, 3, 5, 9, 15, 27, 45, 81, 135, 405),
    390: (1, 2, 3, 5, 10, 13, 15, 26, 30, 39, 78, 130, 195, 390),
}


class IngestError(Exception):
    """Raised when an input file cannot be read into minute bars."""


class MalformedRowError(IngestError):
    """A specific CSV row could not be parsed; the message names the row."""


@dataclass(frozen=True, eq=False)
class MinuteBars:
    """Minute-bar columns in file order: one date, time and price per data row."""

    date: list[str]
    time: list[str]
    price: np.ndarray

    def __len__(self) -> int:
        return len(self.date)


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """One trading day's strictly positive minute-bar values.

    ``values`` is an immutable float64 array of length T >= 2; every entry
    must be finite and > 0.
    """

    day_id: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError(f"day {self.day_id}: values must be 1-D")
        if vals.size < 2:
            raise ValueError(f"day {self.day_id}: need at least 2 samples, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"day {self.day_id}: non-finite value present")
        if np.any(vals <= 0.0):
            raise ValueError(f"day {self.day_id}: non-positive value present")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def length(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class BoxScheme:
    """Increasing box sizes, each an exact divisor of the series length."""

    sizes: tuple[int, ...]
    series_length: int

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        T = int(self.series_length)
        if T < 2:
            raise ValueError(f"series length must be >= 2, got {T}")
        if len(sizes) < 2:
            raise ValueError("box scheme needs at least 2 sizes for the scaling fit")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"box sizes must be strictly increasing: {sizes}")
        for s in sizes:
            if s < 1 or s > T:
                raise ValueError(f"box size {s} outside [1, {T}]")
            if T % s != 0:
                raise ValueError(f"box size {s} does not divide series length {T}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "series_length", T)

    @property
    def box_counts(self) -> tuple[int, ...]:
        return tuple(self.series_length // s for s in self.sizes)


@dataclass(frozen=True)
class DroppedDay:
    day_id: str
    length: int
    reason: str


@dataclass
class DaySegmentation:
    """Kept days plus the report of what was discarded and why."""

    days: list[PriceSeries]
    dropped: list[DroppedDay] = field(default_factory=list)


def parse_intraday_csv(
    path: str | Path,
    date_col: str = "date",
    time_col: str = "time",
    price_col: str = "price",
) -> MinuteBars:
    """Read a header-ed CSV of minute bars into columns, in file order.

    No filtering happens here: non-finite prices are carried through and
    handled by :func:`segment_by_day`. Raises :class:`IngestError` for an
    unreadable file or a missing or repeated column, :class:`MalformedRowError`
    (naming the file line, blank lines counted) for rows that do not parse.

    Equal date and time cells share one ``str``, and prices are packed as
    they are read, so the columns hold no Python object per row.
    """
    path = Path(path)
    try:
        fh = path.open("r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc

    dates, times, prices = [], [], array("d")
    shared: dict[str, str] = {}
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None:  # an empty file gives zero rows
            wanted = (date_col, time_col, price_col)
            missing = [c for c in wanted if c not in header]
            if missing:
                raise IngestError(f"{path}: missing column(s) {missing}; header is {header}")
            repeated = [c for c in wanted if header.count(c) > 1]
            if repeated:
                raise IngestError(f"{path}: repeated column(s) {repeated}; header is {header}")
            di, ti, pi = (header.index(c) for c in wanted)
            width = max(di, ti, pi) + 1
            for row in reader:
                if not row:
                    continue  # a blank line
                if len(row) < width:
                    raise MalformedRowError(f"{path}: row {reader.line_num} is short a field")
                try:
                    prices.append(float(row[pi]))
                except ValueError as exc:
                    raise MalformedRowError(
                        f"{path}: row {reader.line_num}: price {row[pi]!r} is not numeric"
                    ) from exc
                dates.append(shared.setdefault(row[di], row[di]))
                times.append(shared.setdefault(row[ti], row[ti]))
    return MinuteBars(dates, times, np.array(prices, dtype=np.float64))


def segment_by_day(bars: MinuteBars) -> DaySegmentation:
    """Split minute-bar columns into per-day series, dropping suspect days.

    A day is dropped (never raising) when its id is not one safe path
    component (it names the day's output directory), when it contains a
    non-positive or non-finite price, or when its bar count differs from
    the modal count over the clean days -- the proxy for a recording-error
    day. Ties in the modal count go to the longer day. Kept days appear in
    first-seen order, values exactly as parsed and in file order.
    """
    codes: dict[str, int] = {}  # day id -> its number in first-seen order
    day_of_row = np.fromiter((codes.setdefault(d, len(codes)) for d in bars.date),
                             dtype=np.intp, count=len(bars))
    order = np.argsort(day_of_row, kind="stable")  # stable: rows keep file order within a day
    ends = np.cumsum(np.bincount(day_of_row))[:-1]

    dropped: list[DroppedDay] = []
    clean: dict[str, np.ndarray] = {}
    for day_id, vals in zip(codes, np.split(bars.price[order], ends)):
        if day_id in ("", ".", "..") or any(c in day_id for c in "/\\\0"):
            dropped.append(DroppedDay(day_id, vals.size, "day id is not a safe path component"))
        elif not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            dropped.append(DroppedDay(day_id, vals.size, "non-positive or non-finite price"))
        else:
            clean[day_id] = vals

    if not clean:
        return DaySegmentation(days=[], dropped=dropped)

    counts = Counter(len(v) for v in clean.values())
    modal_length = max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]

    days: list[PriceSeries] = []
    for day_id, vals in clean.items():
        if vals.size != modal_length:
            dropped.append(
                DroppedDay(day_id, vals.size, f"length {vals.size} != modal length {modal_length}")
            )
        elif modal_length < 2:
            dropped.append(DroppedDay(day_id, vals.size, "day shorter than 2 bars"))
        else:
            days.append(PriceSeries(day_id=day_id, values=vals))
    return DaySegmentation(days=days, dropped=dropped)


def _divisors(T: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= T:
        if T % d == 0:
            small.append(d)
            if d != T // d:
                large.append(T // d)
        d += 1
    return small + large[::-1]


def derive_box_scheme(T: int, override: list[int] | None = None) -> BoxScheme:
    """Box sizes for a series of length T.

    Uses the preset list for T in {240, 405, 390}, otherwise every divisor
    of T in increasing order. An explicit ``override`` list is sorted,
    deduplicated, and validated against the divisor invariant.
    """
    T = int(T)
    if override is not None:
        sizes = tuple(sorted(set(int(s) for s in override)))
        return BoxScheme(sizes=sizes, series_length=T)
    preset = PRESET_BOX_SIZES.get(T)
    if preset is not None:
        return BoxScheme(sizes=preset, series_length=T)
    return BoxScheme(sizes=tuple(_divisors(T)), series_length=T)
