import numpy as np
import pytest

from mfbox.ingest import (
    PRESET_BOX_SIZES,
    BoxScheme,
    IngestError,
    MalformedRowError,
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
        recs = parse_intraday_csv(path)
        assert [r.price for r in recs] == [655.1, 656.0, 654.8]
        assert [r.time for r in recs] == ["09:31", "09:32", "09:33"]
        assert all(r.date == "2001-11-26" for r in recs)

    def test_non_numeric_price_names_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2001-11-26,09:31,655.1",
            "2001-11-26,09:32,abc",
        ])
        with pytest.raises(MalformedRowError, match="row 3"):
            parse_intraday_csv(path)
        # rows are named by file line, so a blank line 3 moves the bad price to row 4
        path = write_csv(tmp_path / "gap.csv", [
            "2001-11-26,09:31,655.1",
            "",
            "2001-11-26,09:32,abc",
        ])
        with pytest.raises(MalformedRowError, match="row 4"):
            parse_intraday_csv(path)

    def test_empty_file_gives_empty_sequence(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert parse_intraday_csv(path) == []
        assert segment_by_day([]).days == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="nowhere.csv"):
            parse_intraday_csv(tmp_path / "nowhere.csv")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-11-26,09:31"], header="date,time")
        with pytest.raises(IngestError, match="price"):
            parse_intraday_csv(path)

    def test_short_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-11-26,09:31,1.0", "2001-11-26,09:32"])
        with pytest.raises(MalformedRowError, match="row 3"):
            parse_intraday_csv(path)

    def test_custom_column_names(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-11-26,09:31,7.5"], header="d,t,px")
        recs = parse_intraday_csv(path, date_col="d", time_col="t", price_col="px")
        assert recs[0].price == 7.5

    def test_nonfinite_price_passes_through(self, tmp_path):
        # parsing applies no filtering; segmentation drops the day
        path = write_csv(tmp_path / "d.csv", ["2001-11-26,09:31,nan", "2001-11-26,09:32,1.0"])
        recs = parse_intraday_csv(path)
        assert len(recs) == 2
        seg = segment_by_day(recs)
        assert seg.days == []
        assert "non-positive or non-finite" in seg.dropped[0].reason


def make_records(day, prices, start=0):
    from mfbox.ingest import MinuteRecord

    return [MinuteRecord(day, f"{9 + (start + i) // 60:02d}:{(start + i) % 60:02d}", p)
            for i, p in enumerate(prices)]


class TestSegmentByDay:
    def test_clean_split(self):
        rng = np.random.default_rng(0)
        recs = make_records("2001-11-26", list(1 + rng.random(240)))
        recs += make_records("2001-11-27", list(1 + rng.random(240)))
        seg = segment_by_day(recs)
        assert [d.day_id for d in seg.days] == ["2001-11-26", "2001-11-27"]
        assert all(d.length == 240 for d in seg.days)
        assert seg.dropped == []

    def test_zero_price_drops_day(self):
        recs = make_records("2001-11-26", [1.0] * 240)
        bad = [1.0] * 240
        bad[77] = 0.0
        recs += make_records("2001-11-27", bad)
        seg = segment_by_day(recs)
        assert [d.day_id for d in seg.days] == ["2001-11-26"]
        assert seg.dropped[0].day_id == "2001-11-27"
        assert "non-positive" in seg.dropped[0].reason

    def test_modal_length_filter(self):
        recs = (make_records("d1", [1.0] * 240)
                + make_records("d2", [2.0] * 240)
                + make_records("d3", [3.0] * 180))
        seg = segment_by_day(recs)
        assert [d.day_id for d in seg.days] == ["d1", "d2"]
        assert seg.dropped[0].day_id == "d3"
        assert "modal length 240" in seg.dropped[0].reason

    def test_modal_tie_prefers_longer(self):
        recs = make_records("d1", [1.0] * 100) + make_records("d2", [1.0] * 200)
        seg = segment_by_day(recs)
        assert [d.day_id for d in seg.days] == ["d2"]
        assert [d.day_id for d in seg.dropped] == ["d1"]
        assert "modal length 200" in seg.dropped[0].reason

    @pytest.mark.parametrize("day_id", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_unsafe_day_id_dropped(self, day_id):
        # the day id names the day's output directory, so it must be one path component
        recs = make_records("2001-11-26", [1.0] * 60) + make_records(day_id, [2.0] * 60)
        seg = segment_by_day(recs)
        assert [d.day_id for d in seg.days] == ["2001-11-26"]
        assert [(d.day_id, d.length) for d in seg.dropped] == [(day_id, 60)]
        assert "path component" in seg.dropped[0].reason

    def test_order_preserving_concatenation(self):
        rng = np.random.default_rng(3)
        p1, p2 = list(1 + rng.random(60)), list(1 + rng.random(60))
        seg = segment_by_day(make_records("a", p1) + make_records("b", p2))
        rebuilt = np.concatenate([d.values for d in seg.days])
        assert np.array_equal(rebuilt, np.asarray(p1 + p2))


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

    def test_too_short(self):
        with pytest.raises(ValueError):
            derive_box_scheme(1)
        with pytest.raises(ValueError):
            BoxScheme(sizes=(1, 2), series_length=1)
