import csv
import tracemalloc

import numpy as np
import pytest

from mfbox.ingest import (
    PRESET_BOX_SIZES,
    BoxScheme,
    IngestError,
    MinuteBars,
    PriceSeries,
    derive_box_scheme,
    parse_intraday_csv,
    segment_by_day,
)


def write_csv(path, rows, header="date,time,price"):
    path.write_text(header + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


class TestParseCsv:
    def test_three_rows_in_order(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2001-11-26,09:31,655.1",
            "2001-11-26,09:32,656.0",
            "2001-11-26,09:33,654.8",
        ])
        bars = parse_intraday_csv(path)
        assert list(bars.days) == ["2001-11-26"]
        assert [p.tolist() for p in bars.days.values()] == [[655.1, 656.0, 654.8]]
        assert len(bars) == 3

    def test_non_numeric_price_names_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2001-11-26,09:31,655.1",
            "2001-11-26,09:32,abc",
        ])
        with pytest.raises(IngestError, match="row 3"):
            parse_intraday_csv(path)
        # rows are named by file line, so a blank line 3 moves the bad price to row 4
        path = write_csv(tmp_path / "gap.csv", [
            "2001-11-26,09:31,655.1",
            "",
            "2001-11-26,09:32,abc",
        ])
        with pytest.raises(IngestError, match="row 4"):
            parse_intraday_csv(path)

    def test_empty_file_gives_empty_sequence(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        bars = parse_intraday_csv(path)
        assert len(bars) == 0
        assert segment_by_day(bars).days == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="nowhere.csv"):
            parse_intraday_csv(tmp_path / "nowhere.csv")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-11-26,09:31"], header="date,time")
        with pytest.raises(IngestError, match="price") as info:
            parse_intraday_csv(path)
        assert str(info.value) == f"{path}: missing column(s) ['price']; header is ['date', 'time']"

    def test_repeated_column(self, tmp_path):
        # neither copy of a selected column is picked silently
        path = write_csv(tmp_path / "d.csv", ["2001-11-26,09:31,1.0,2.0"],
                         header="date,time,price,price")
        with pytest.raises(IngestError) as info:
            parse_intraday_csv(path)
        assert str(info.value) == (
            f"{path}: repeated column(s) ['price']; header is ['date', 'time', 'price', 'price']")

    def test_short_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-11-26,09:31,1.0", "2001-11-26,09:32"])
        with pytest.raises(IngestError, match="row 3"):
            parse_intraday_csv(path)
        # the time cells are not kept, but a row must still reach the time column
        path = write_csv(tmp_path / "t.csv", ["2001-11-26,1.0,09:31", "2001-11-26,2.0"],
                         header="date,price,time")
        with pytest.raises(IngestError) as info:
            parse_intraday_csv(path)
        assert str(info.value) == f"{path}: row 3 is short a field"

    def test_over_long_field_is_ingest_error(self, tmp_path):
        # the csv module's field limit is 131,072 characters
        path = write_csv(tmp_path / "d.csv",
                         ["2001-11-26,09:31,1.0", "2001-11-26,09:32," + "1" * 200_000])
        with pytest.raises(IngestError) as info:
            parse_intraday_csv(path)
        assert str(info.value) == f"{path}: row 3: field larger than field limit (131072)"
        assert isinstance(info.value.__cause__, csv.Error)

    def test_non_utf8_byte_is_ingest_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"date,time,price\n2001-11-26,09:31,1.0\xff\n")
        with pytest.raises(IngestError) as info:
            parse_intraday_csv(path)
        # decoding runs ahead of the csv reader, so the message names no row
        assert str(info.value) == f"{path}: not UTF-8 text (byte 0xff: invalid start byte)"

    def test_custom_column_names(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-11-26,09:31,7.5"], header="d,t,px")
        bars = parse_intraday_csv(path, date_col="d", time_col="t", price_col="px")
        assert list(bars.days) == ["2001-11-26"]
        assert bars.days["2001-11-26"].tolist() == [7.5]

    def test_nonfinite_price_passes_through(self, tmp_path):
        # parsing applies no filtering; segmentation drops the day
        path = write_csv(tmp_path / "d.csv", ["2001-11-26,09:31,nan", "2001-11-26,09:32,1.0"])
        bars = parse_intraday_csv(path)
        assert len(bars) == 2
        seg = segment_by_day(bars)
        assert seg.days == []
        assert "non-positive or non-finite" in seg.dropped[0].reason


def dictreader_columns(path):
    """Reference reader: each date's prices, as csv.DictReader sees the rows,
    dates in first-seen order and rows in file order."""
    days = {}
    with open(path, encoding="utf-8-sig", newline="") as fh:
        for r in csv.DictReader(fh):
            days.setdefault(r["date"], []).append(float(r["price"]))
    return list(days), list(days.values())


@pytest.mark.parametrize("text, n_rows", [
    ("\ufeffdate,time,price\r\nd1,09:31,1.5\r\n\r\nd1,09:32,2.5\r\n", 2),
    ('price,"a,b",time,date,extra\n'
     '1.5,"x,y",09:31,d1,e\n'
     '2.5,z,"09:32",d1,e,more,fields\n'
     '3.5,w,09:33,d2\n', 3),
    ("date,time,price\nd1,09:31,1.5\nd1,09:32,2.5\n\n\n\n", 2),
    ("date,time,price\nd1,09:31, 1.5 \n", 1),
], ids=["bom-crlf-blank", "quoted-extra-reordered-short", "trailing-blanks", "padded-price"])
def test_columns_match_dictreader(tmp_path, text, n_rows):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    bars = parse_intraday_csv(path)
    date, price = dictreader_columns(path)
    assert list(bars.days) == date
    assert all(p.dtype == np.float64 for p in bars.days.values())
    assert [p.tolist() for p in bars.days.values()] == price
    assert len(bars) == sum(map(len, price)) == n_rows


def make_bars(*days):
    """Per-day prices for (day id, prices) pairs."""
    return MinuteBars({day: np.asarray(prices, dtype=np.float64) for day, prices in days})


class TestSegmentByDay:
    def test_clean_split(self):
        rng = np.random.default_rng(0)
        bars = make_bars(("2001-11-26", 1 + rng.random(240)),
                         ("2001-11-27", 1 + rng.random(240)))
        seg = segment_by_day(bars)
        assert [d.day_id for d in seg.days] == ["2001-11-26", "2001-11-27"]
        assert all(d.length == 240 for d in seg.days)
        assert seg.dropped == []

    def test_zero_price_drops_day(self):
        bad = [1.0] * 240
        bad[77] = 0.0
        seg = segment_by_day(make_bars(("2001-11-26", [1.0] * 240), ("2001-11-27", bad)))
        assert [d.day_id for d in seg.days] == ["2001-11-26"]
        assert seg.dropped[0].day_id == "2001-11-27"
        assert "non-positive" in seg.dropped[0].reason

    def test_modal_length_filter(self):
        bars = make_bars(("d1", [1.0] * 240), ("d2", [2.0] * 240), ("d3", [3.0] * 180))
        seg = segment_by_day(bars)
        assert [d.day_id for d in seg.days] == ["d1", "d2"]
        assert seg.dropped[0].day_id == "d3"
        assert "modal length 240" in seg.dropped[0].reason

    def test_modal_tie_prefers_longer(self):
        seg = segment_by_day(make_bars(("d1", [1.0] * 100), ("d2", [1.0] * 200)))
        assert [d.day_id for d in seg.days] == ["d2"]
        assert [d.day_id for d in seg.dropped] == ["d1"]
        assert "modal length 200" in seg.dropped[0].reason

    @pytest.mark.parametrize("day_id", [
        "", ".", "..", "../escaped", "a/b", "a\\b", "a\0b",
        pytest.param("x" * 256, id="256-ascii-bytes"),
        pytest.param("é" * 128, id="256-utf8-bytes"),  # "é" is 2 bytes
        pytest.param("\ud800" * 86, id="258-bytes-of-lone-surrogates"),  # no UTF-8 form
    ])
    def test_unsafe_day_id_dropped(self, day_id):
        # the day id names the day's output directory, so it must be one path component,
        # and a directory name holds at most 255 bytes (NAME_MAX)
        seg = segment_by_day(make_bars(("2001-11-26", [1.0] * 60), (day_id, [2.0] * 60)))
        assert [d.day_id for d in seg.days] == ["2001-11-26"]
        assert [(d.day_id, d.length) for d in seg.dropped] == [(day_id, 60)]
        assert "path component" in seg.dropped[0].reason

    def test_order_preserving_concatenation(self):
        rng = np.random.default_rng(3)
        p1, p2 = list(1 + rng.random(60)), list(1 + rng.random(60))
        seg = segment_by_day(make_bars(("a", p1), ("b", p2)))
        rebuilt = np.concatenate([d.values for d in seg.days])
        assert np.array_equal(rebuilt, np.asarray(p1 + p2))

    def test_interleaved_days_keep_their_row_order(self, tmp_path):
        rng = np.random.default_rng(5)
        a, b = 1 + rng.random(60), 1 + rng.random(60)
        path = write_csv(tmp_path / "d.csv", [f"{day},09:{m:02d},{float(p)!r}" for m in range(60)
                                              for day, p in (("a", a[m]), ("b", b[m]))])
        bars = parse_intraday_csv(path)
        assert list(bars.days) == ["a", "b"]
        seg = segment_by_day(bars)
        assert [d.day_id for d in seg.days] == ["a", "b"]
        assert np.array_equal(seg.days[0].values, a)
        assert np.array_equal(seg.days[1].values, b)


def test_ingest_memory_per_row(tmp_path):
    # 40 days of 390 bars. Rows are grouped by day as they are read, and each
    # day keeps only a packed price column: about 11 B per row after parsing,
    # 8 B of it the price and the rest per-day objects and first-call caches.
    # Segmentation builds no whole-file column and no regrouping index, so its
    # peak adds little more than the kept days' 8 B per row (about 21 B in
    # all). The bounds fail a parser that keeps each row's time cell, even as
    # a shared string (about 21 B after parsing and 30 B at the peak), and
    # whole-file columns regrouped after parsing (about 28 and 62 B).
    n_days, T = 40, 390
    rng = np.random.default_rng(1)
    prices = (15000 * np.exp(np.cumsum(5e-4 * rng.standard_normal(n_days * T)))).tolist()
    rows = [f"2001-{1 + d // 28:02d}-{1 + d % 28:02d},{9 + (30 + m) // 60:02d}:"
            f"{(30 + m) % 60:02d},{prices[d * T + m]!r}" for d in range(n_days) for m in range(T)]
    path = write_csv(tmp_path / "d.csv", rows)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bars = parse_intraday_csv(path)
        after_parse = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        seg = segment_by_day(bars)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(seg.days) == n_days
    assert after_parse / len(rows) <= 16
    assert peak / len(rows) <= 26


class TestPriceSeries:
    def test_rejects_nonpositive_and_short(self):
        with pytest.raises(ValueError):
            PriceSeries("d", [1.0, -1.0, 2.0])
        with pytest.raises(ValueError):
            PriceSeries("d", [1.0, np.inf])
        with pytest.raises(ValueError):
            PriceSeries("d", [1.0])

    def test_values_immutable(self):
        s = PriceSeries("d", [1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestBoxScheme:
    @pytest.mark.parametrize("T", sorted(PRESET_BOX_SIZES))
    def test_presets_verbatim(self, T):
        scheme = derive_box_scheme(T)
        assert scheme.sizes == PRESET_BOX_SIZES[T]
        assert all(T % l == 0 for l in scheme.sizes)

    def test_preset_values(self):
        assert derive_box_scheme(240).sizes == (1, 2, 3, 4, 6, 10, 15, 20, 30, 40, 60, 80, 120, 240)
        assert derive_box_scheme(405).sizes == (1, 3, 5, 9, 15, 27, 45, 81, 135, 405)
        assert derive_box_scheme(390).sizes == (1, 2, 3, 5, 10, 13, 15, 26, 30, 39, 78, 130, 195, 390)

    def test_generic_divisors(self):
        assert derive_box_scheme(12).sizes == (1, 2, 3, 4, 6, 12)
        assert derive_box_scheme(4096).sizes == tuple(2 ** j for j in range(13))

    def test_box_counts_are_exact(self):
        scheme = derive_box_scheme(240)
        assert scheme.box_counts == tuple(240 // l for l in scheme.sizes)

    def test_override_validated(self):
        assert derive_box_scheme(240, override=[240, 1, 10]).sizes == (1, 10, 240)
        with pytest.raises(ValueError, match="divide"):
            derive_box_scheme(240, override=[1, 7])
        with pytest.raises(ValueError):
            derive_box_scheme(240, override=[240])  # a single size cannot anchor a fit
        with pytest.raises(ValueError, match="at least 3 sizes"):
            derive_box_scheme(240, override=[1, 240])  # no size a shuffle can change

    def test_too_short(self):
        with pytest.raises(ValueError):
            derive_box_scheme(1)
        with pytest.raises(ValueError):
            BoxScheme(sizes=(1, 2), series_length=1)
