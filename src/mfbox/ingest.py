"""Minute-bar CSV ingestion, trading-day segmentation, and box-size schemes.

A raw file holds one or more trading days of strictly positive minute bars.
Parsing groups rows by their date string as it reads them; segmentation drops
days with bad prices or an atypical bar count and hands each surviving day
downstream as an immutable :class:`PriceSeries`.
"""

from __future__ import annotations

import csv
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Preset box-size lists for the common intraday session lengths. They
# deliberately omit a few divisors (5, 8, ... for 240; 6, 65 for 390);
# every other length uses all its divisors.
PRESET_BOX_SIZES: dict[int, tuple[int, ...]] = {
    240: (1, 2, 3, 4, 6, 10, 15, 20, 30, 40, 60, 80, 120, 240),
    390: (1, 2, 3, 5, 10, 13, 15, 26, 30, 39, 78, 130, 195, 390),
}


class IngestError(Exception):
    """Raised when an input file cannot be read into minute bars."""


def frozen_array(values) -> np.ndarray:
    """A read-only float64 copy of ``values``: how PriceSeries and MomentGrid hold outside input."""
    arr = np.asarray(values, dtype=np.float64).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MinuteBars:
    """Date -> that day's float64 prices; dates first-seen, prices in file order."""

    days: dict[str, np.ndarray]

    def __len__(self) -> int:
        return sum(len(prices) for prices in self.days.values())


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """One trading day's strictly positive minute-bar values.

    ``values`` is an immutable float64 array of length T >= 2; every entry
    must be finite and > 0.
    """

    day_id: str
    values: np.ndarray

    def __post_init__(self):
        vals = frozen_array(self.values)
        if vals.ndim != 1:
            raise ValueError(f"day {self.day_id}: values must be 1-D")
        if vals.size < 2:
            raise ValueError(f"day {self.day_id}: need at least 2 samples, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"day {self.day_id}: non-finite value present")
        if np.any(vals <= 0.0):
            raise ValueError(f"day {self.day_id}: non-positive value present")
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
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"box sizes must be strictly increasing: {sizes}")
        for s in sizes:
            if s < 1 or s > T:
                raise ValueError(f"box size {s} outside [1, {T}]")
            if T % s != 0:
                raise ValueError(f"box size {s} does not divide series length {T}")
        if len(sizes) < 3:
            raise ValueError("box scheme needs at least 3 sizes for the scaling fit")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "series_length", T)

    @property
    def box_counts(self) -> tuple[int, ...]:
        return tuple(self.series_length // s for s in self.sizes)

    @property
    def ln_sizes(self) -> np.ndarray:
        return np.log(np.asarray(self.sizes, dtype=np.float64))

    @property
    def ln_counts(self) -> np.ndarray:
        return np.log(np.asarray(self.box_counts, dtype=np.float64))

    @property
    def varying(self) -> slice:
        """The run of columns 1 < l < T, the only ones a permutation changes; never empty."""
        sizes = self.sizes
        return slice(int(sizes[0] == 1), len(sizes) - int(sizes[-1] == self.series_length))

    def check_length(self, T: int) -> None:
        """Raise ValueError unless this scheme is for a series of length ``T``."""
        if self.series_length != T:
            raise ValueError(f"scheme is for length {self.series_length}, series has {T}")


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
    """Read a header-ed CSV of minute bars into per-day prices, grouping rows as it reads.

    No filtering happens here: non-finite prices are carried through and
    handled by :func:`segment_by_day`. Raises :class:`IngestError` for an unreadable or
    non-UTF-8 file, a field over the csv size limit, a missing or repeated column, or a
    short row or non-numeric price (naming the file line, blank lines counted).

    The time column must be present and every row must reach it, but its cells are not
    kept; each day's prices are packed as they are read, so no row holds a Python object.
    """
    path = Path(path)
    try:
        fh = path.open("r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc

    days: dict[str, array] = {}  # date -> its prices
    with fh:
        reader = csv.reader(fh)
        try:
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
                        raise IngestError(f"{path}: row {reader.line_num} is short a field")
                    prices = days.get(row[di]) or days.setdefault(row[di], array("d"))
                    try:
                        prices.append(float(row[pi]))
                    except ValueError as exc:
                        raise IngestError(
                            f"{path}: row {reader.line_num}: price {row[pi]!r} is not numeric"
                        ) from exc
        except csv.Error as exc:
            raise IngestError(f"{path}: row {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # decoded in chunks, so no row can be named
            bad = exc.object[exc.start]
            raise IngestError(f"{path}: not UTF-8 text (byte {bad:#04x}: {exc.reason})") from exc
    return MinuteBars({day: np.frombuffer(prices) for day, prices in days.items()})


def segment_by_day(bars: MinuteBars) -> DaySegmentation:
    """Turn per-day minute-bar prices into price series, dropping suspect days.

    A day is dropped (never raising) when its id is not one safe path component
    of at most 255 UTF-8 bytes (it names the day's output directory), when it
    contains a non-positive or non-finite price, or when its bar count differs
    from the modal count over the clean days -- the proxy for a recording-error
    day. Ties in the modal count go to the longer day. Kept days appear in
    first-seen order, values exactly as parsed and in file order.
    """
    dropped: list[DroppedDay] = []
    clean: dict[str, np.ndarray] = {}
    for day_id, vals in bars.days.items():
        if (day_id in ("", ".", "..") or any(c in day_id for c in "/\\\0")
                or len(day_id.encode("utf-8", "surrogatepass")) > 255):  # NAME_MAX
            dropped.append(DroppedDay(day_id, vals.size, "day id is not a safe path component"))
        elif not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            dropped.append(DroppedDay(day_id, vals.size, "non-positive or non-finite price"))
        else:
            clean[day_id] = vals

    counts = Counter(len(v) for v in clean.values())
    modal_length = max(counts.items(), key=lambda kv: (kv[1], kv[0]), default=(0, 0))[0]

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


def derive_box_scheme(T: int, override: list[int] | None = None) -> BoxScheme:
    """Box sizes for a series of length T.

    Uses the preset list for T in {240, 390}, otherwise every divisor of T
    in increasing order. An explicit ``override`` list is sorted,
    deduplicated, and validated against the divisor invariant.
    """
    T = int(T)
    sizes = override if override is not None else (
        PRESET_BOX_SIZES.get(T) or [d for d in range(1, T + 1) if T % d == 0])
    return BoxScheme(sizes=tuple(sorted(set(int(s) for s in sizes))), series_length=T)
