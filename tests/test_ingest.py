"""Parsing, gap filling, day segmentation, splits and the synthetic generator."""
import os
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest

from driftcast.errors import (
    EmptySeries,
    GapTooLarge,
    InvalidEvent,
    NegativeReading,
    NoCompleteDay,
    NonMonotoneTimestamps,
    TooFewDays,
    UnparseableRow,
)
from driftcast.ingest import (
    DailyProfile,
    DaySample,
    DriftEvent,
    LoadSeries,
    SplitSpec,
    generate_synthetic,
    parse_load_csv,
    resample_and_fill,
    segment_days,
    split_dataset,
    write_load_csv,
)

TEN_MIN = timedelta(minutes=10)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParse:
    def test_three_wellformed_rows(self, tmp_path):
        path = _write(tmp_path, "a.csv",
                      "timestamp,consumption_kwh\n"
                      "2024-01-01T00:00:00,1.0\n"
                      "2024-01-01T00:10:00,2.0\n"
                      "2024-01-01T00:20:00,3.0\n")
        series = parse_load_csv(path)
        assert len(series) == 3
        assert series.resolution == TEN_MIN
        assert np.array_equal(series.values, [1.0, 2.0, 3.0])
        assert series.start_time == datetime(2024, 1, 1)

    def test_header_only_is_empty(self, tmp_path):
        path = _write(tmp_path, "b.csv", "timestamp,consumption_kwh\n")
        with pytest.raises(EmptySeries):
            parse_load_csv(path)

    def test_repeated_timestamp_rejected(self, tmp_path):
        path = _write(tmp_path, "c.csv",
                      "timestamp,consumption_kwh\n"
                      "2024-01-01T00:00:00,1.0\n"
                      "2024-01-01T00:00:00,2.0\n")
        with pytest.raises(NonMonotoneTimestamps):
            parse_load_csv(path)

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = _write(tmp_path, "d.csv",
                      "timestamp,consumption_kwh\n"
                      "2024-01-01T00:10:00,2.0\n"
                      "2024-01-01T00:00:00,1.0\n")
        series = parse_load_csv(path)
        assert np.array_equal(series.values, [1.0, 2.0])

    def test_bad_value_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "e.csv",
                      "timestamp,consumption_kwh\n"
                      "2024-01-01T00:00:00,1.0\n"
                      "2024-01-01T00:10:00,not-a-number\n")
        with pytest.raises(UnparseableRow) as err:
            parse_load_csv(path)
        assert err.value.line_number == 3

    def test_negative_reading_rejected(self, tmp_path):
        path = _write(tmp_path, "f.csv",
                      "timestamp,consumption_kwh\n"
                      "2024-01-01T00:00:00,-0.5\n")
        with pytest.raises(NegativeReading):
            parse_load_csv(path)

    def test_interior_gap_becomes_missing_slot(self, tmp_path):
        path = _write(tmp_path, "g.csv",
                      "timestamp,consumption_kwh\n"
                      "2024-01-01T00:00:00,1.0\n"
                      "2024-01-01T00:10:00,1.5\n"
                      "2024-01-01T00:20:00,2.0\n"
                      "2024-01-01T00:40:00,3.0\n")
        series = parse_load_csv(path)
        assert len(series) == 5
        assert np.isnan(series.values).sum() == 1
        assert np.isnan(series.values[3])

    def test_misaligned_row_reports_its_file_line(self, tmp_path):
        # Unsorted rows and blank lines: 00:43 is the fifth reading in time
        # order but sits on line 8 of the file.
        path = _write(tmp_path, "h.csv",
                      "timestamp,consumption_kwh\n"
                      "2024-01-01T00:20:00,3.0\n"
                      "\n"
                      "\n"
                      "2024-01-01T00:00:00,1.0\n"
                      "2024-01-01T00:10:00,2.0\n"
                      "2024-01-01T00:30:00,4.0\n"
                      "2024-01-01T00:43:00,5.0\n"
                      "2024-01-01T00:50:00,6.0\n")
        with pytest.raises(UnparseableRow) as err:
            parse_load_csv(path)
        assert err.value.line_number == 8
        assert str(err.value).startswith("line 8: timestamp 2024-01-01T00:43:00 is not aligned")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("rows", [
        ["2024-01-01T00:10:00,2.0", "2024-01-01T00:00:00,1.0", "2024-01-01T00:20:00,3.0"],
        ["2024-01-01T00:00:00,1.0", "2024-01-01T00:10:00,2.0", "2024-01-01T00:10:00,3.0"],
        ["2024-01-01T00:00:00,1.0", "2024-01-01T00:10:00,2.0", "2024-01-01T00:25:00,3.0"],
    ], ids=["unsorted", "repeated", "misaligned"])
    def test_a_pipe_reads_as_the_same_bytes_from_a_file(self, tmp_path, rows):
        # Each case reads a row a second time: the first in time order, or the bad one.
        text = "\n".join(["timestamp,consumption_kwh", *rows, ""])

        def outcome(path):
            try:
                series = parse_load_csv(path)
            except Exception as exc:
                return type(exc), str(exc), getattr(exc, "line_number", None)
            return series.start_time, series.resolution, series.values.tobytes()

        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w", encoding="utf-8") as sink:
            sink.write(text)
        try:
            piped = outcome(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert piped == outcome(_write(tmp_path, "same.csv", text))

    def test_writer_past_year_9999_raises_overflow(self, tmp_path):
        series = LoadSeries(start_time=datetime(9999, 12, 31, 23, 50), resolution=TEN_MIN,
                            values=np.array([1.0, 2.0]))
        with pytest.raises(OverflowError):
            write_load_csv(series, tmp_path / "late.csv")

    def test_round_trip_through_writer(self, tmp_path):
        series = LoadSeries(start_time=datetime(2024, 3, 1), resolution=TEN_MIN,
                            values=np.array([0.5, 1.25, 2.0]))
        out = tmp_path / "round.csv"
        write_load_csv(series, out)
        again = parse_load_csv(out)
        assert np.array_equal(series.values, again.values)
        assert again.resolution == TEN_MIN


class TestBoundedMemory:
    """The reader and the writer hold one block of rows as Python objects at a time."""

    @staticmethod
    def _traced_peaks(tmp_path, n_days):
        """The traced peaks of writing and then parsing an n-day 10-minute stream, and
        the bytes of the values the parse returns."""
        series = generate_synthetic(DailyProfile(), [], noise_sd=0.35, seed=0, n_days=n_days)
        path = tmp_path / f"{n_days}.csv"
        tracemalloc.start()
        try:
            write_load_csv(series, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            parsed = parse_load_csv(path)
            parse_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert parsed.values.tobytes() == series.values.tobytes()
        return write_peak, parse_peak, parsed.values.nbytes

    def test_peaks_do_not_grow_with_the_stream(self, tmp_path):
        # Holding every row of the file peaked at 6.5 MB to read 120 days, and
        # formatting the whole file before writing it at 4.3 MB.
        write_120, parse_120, values_120 = self._traced_peaks(tmp_path, 120)
        assert write_120 <= 1.5e6
        assert parse_120 <= 1.5e6
        write_365, parse_365, values_365 = self._traced_peaks(tmp_path, 365)
        assert write_365 <= 1.5 * write_120
        # Beyond the values it returns, the parse keeps one 8-byte offset per reading.
        assert parse_365 - values_365 <= 1.5 * (parse_120 - values_120)


class TestResampleAndFill:
    def test_linear_midpoint(self):
        series = LoadSeries(datetime(2024, 1, 1), TEN_MIN,
                            np.array([1.0, np.nan, 2.0]))
        filled = resample_and_fill(series, max_gap=1)
        assert filled.values[1] == pytest.approx(1.5)
        assert filled.is_gapless

    def test_gapless_series_unchanged(self):
        series = LoadSeries(datetime(2024, 1, 1), TEN_MIN, np.array([1.0, 2.0]))
        assert resample_and_fill(series, max_gap=3) is series

    def test_run_longer_than_max_gap_rejected(self):
        values = np.array([1.0, *[np.nan] * 5, 2.0])
        series = LoadSeries(datetime(2024, 1, 1), TEN_MIN, values)
        with pytest.raises(GapTooLarge):
            resample_and_fill(series, max_gap=3)

    def test_idempotent(self):
        values = np.array([1.0, np.nan, np.nan, 4.0, np.nan, 6.0])
        series = LoadSeries(datetime(2024, 1, 1), TEN_MIN, values)
        once = resample_and_fill(series, max_gap=2)
        twice = resample_and_fill(once, max_gap=2)
        assert np.array_equal(once.values, twice.values)

    def test_two_slot_gap_is_linear_ramp(self):
        series = LoadSeries(datetime(2024, 1, 1), TEN_MIN,
                            np.array([3.0, np.nan, np.nan, 9.0]))
        filled = resample_and_fill(series, max_gap=2)
        assert np.allclose(filled.values, [3.0, 5.0, 7.0, 9.0])

    def test_gaps_of_different_lengths_fill_bit_for_bit(self):
        values = np.array([0.3, np.nan, 1.7, 2.9, np.nan, np.nan, np.nan, 0.1])
        filled = resample_and_fill(LoadSeries(datetime(2024, 1, 1), TEN_MIN, values),
                                   max_gap=3)
        expected = values.copy()
        for start, n in ((1, 1), (4, 3)):
            left, right = values[start - 1], values[start + n]
            for k in range(1, n + 1):
                expected[start + k - 1] = left + (right - left) * (k / (n + 1))
        assert filled.values.tobytes() == expected.tobytes()

    def test_first_run_too_long_is_named(self):
        values = np.array([1.0, np.nan, 2.0, *[np.nan] * 4, 3.0, *[np.nan] * 5, 4.0])
        series = LoadSeries(datetime(2024, 1, 1), TEN_MIN, values)
        with pytest.raises(GapTooLarge, match=r"^4 consecutive missing slots "
                           r"\(2024-01-01T00:30:00 \.\. 2024-01-01T01:00:00\) "
                           r"exceed max_gap=3$"):
            resample_and_fill(series, max_gap=3)


def _series_of_slots(n_slots, start=datetime(2024, 1, 1), values=None):
    if values is None:
        values = np.arange(n_slots, dtype=float)
    return LoadSeries(start, TEN_MIN, values)


class TestSegmentDays:
    def test_exactly_two_days(self):
        segmentation = segment_days(_series_of_slots(288))
        assert len(segmentation) == 2
        assert all(day.readings.size == 144 for day in segmentation)

    def test_trailing_partial_day_dropped_and_counted(self):
        segmentation = segment_days(_series_of_slots(300))
        assert len(segmentation) == 2
        assert segmentation.dropped_trailing_slots == 12

    def test_less_than_one_day_rejected(self):
        with pytest.raises(NoCompleteDay):
            segment_days(_series_of_slots(100))

    def test_leading_partial_day_dropped_and_counted(self):
        start = datetime(2024, 1, 1, 12, 0)  # midday start: 72 leading slots
        segmentation = segment_days(_series_of_slots(72 + 144, start=start))
        assert len(segmentation) == 1
        assert segmentation.dropped_leading_slots == 72

    def test_concatenation_reproduces_interior(self):
        series = _series_of_slots(300)
        segmentation = segment_days(series)
        rebuilt = np.concatenate([day.readings for day in segmentation])
        assert np.array_equal(rebuilt, series.values[:288])

    def test_gapless_precondition(self):
        values = np.arange(288, dtype=float)
        values[5] = np.nan
        with pytest.raises(ValueError):
            segment_days(LoadSeries(datetime(2024, 1, 1), TEN_MIN, values))


def _days(n):
    base = datetime(2024, 1, 1).date()
    return [DaySample(day=base + timedelta(days=i), readings=np.full(144, float(i)))
            for i in range(n)]


class TestSplit:
    def test_hundred_days(self):
        train, val, test = split_dataset(_days(100), SplitSpec())
        assert (len(train), len(val), len(test)) == (63, 12, 25)

    def test_eight_days(self):
        train, val, test = split_dataset(_days(8), SplitSpec())
        assert (len(train), len(val), len(test)) == (5, 1, 2)

    def test_too_few_days(self):
        with pytest.raises(TooFewDays):
            split_dataset(_days(4), SplitSpec())

    def test_partition_is_ordered_and_disjoint(self):
        days = _days(30)
        train, val, test = split_dataset(days, SplitSpec())
        assert train + val + test == days
        assert max(d.day for d in train) < min(d.day for d in val)
        assert max(d.day for d in val) < min(d.day for d in test)


class TestSynthetic:
    def test_noiseless_stationary_days_identical(self):
        series = generate_synthetic(DailyProfile(), [], noise_sd=0.0, seed=1,
                                    n_days=30)
        days = segment_days(series)
        assert len(days) == 30
        day_means = np.array([d.readings.mean() for d in days])
        assert day_means.std() < 1e-12
        assert np.array_equal(days[0].readings, days[17].readings)

    def test_same_seed_is_bit_identical(self):
        kwargs = dict(profile=DailyProfile(), noise_sd=0.7, seed=99, n_days=10)
        first = generate_synthetic(drift_events=[], **kwargs)
        second = generate_synthetic(drift_events=[], **kwargs)
        assert np.array_equal(first.values, second.values)

    def test_mean_shift_moves_day_means_by_magnitude(self):
        noise_sd = 0.4
        series = generate_synthetic(
            DailyProfile(), [DriftEvent(day=15, kind="mean_shift", magnitude=5.0)],
            noise_sd=noise_sd, seed=2, n_days=30)
        day_means = np.array([d.readings.mean() for d in segment_days(series)])
        observed = day_means[15:].mean() - day_means[:14].mean()
        assert abs(observed - 5.0) < 3 * noise_sd / np.sqrt(144)

    def test_event_outside_range_rejected(self):
        for day in (40, float("nan")):
            with pytest.raises(InvalidEvent):
                generate_synthetic(DailyProfile(),
                                   [DriftEvent(day=day, kind="mean_shift", magnitude=1.0)],
                                   noise_sd=0.0, seed=0, n_days=30)
        with pytest.raises(InvalidEvent):
            DriftEvent(day=3, kind="sideways_shift", magnitude=1.0)

    @pytest.mark.parametrize("noise_sd", [-1.0, float("nan")])
    def test_negative_or_nan_noise_rejected(self, noise_sd):
        with pytest.raises(ValueError, match="noise_sd"):
            generate_synthetic(DailyProfile(), [], noise_sd=noise_sd, seed=0, n_days=2)

    @pytest.mark.parametrize("profile,events", [
        (DailyProfile(base=float("nan")), []),
        (DailyProfile(peaks=((8.0, 2.0, float("inf")),)), []),
        (DailyProfile(), [DriftEvent(day=5, kind="mean_shift", magnitude=float("nan"))]),
        (DailyProfile(), [DriftEvent(day=5, kind="scale_shift", magnitude=float("inf"))]),
    ], ids=["nan_base", "inf_peak", "nan_shift", "inf_scale"])
    def test_non_finite_profile_or_event_rejected(self, profile, events):
        with pytest.raises(ValueError, match="non-finite"):
            generate_synthetic(profile, events, noise_sd=0.5, seed=0, n_days=10)

    def test_event_day_must_be_a_whole_number(self):
        def shifted(day):
            return generate_synthetic(DailyProfile(),
                                      [DriftEvent(day=day, kind="mean_shift", magnitude=1.0)],
                                      noise_sd=0.0, seed=0, n_days=12)

        with pytest.raises(InvalidEvent, match="10.5"):
            shifted(10.5)
        with pytest.raises(InvalidEvent, match="True"):  # a JSON boolean is no day
            shifted(True)
        days = segment_days(shifted(10))
        assert shifted(10.0).values.tobytes() == np.concatenate(
            [d.readings for d in days]).tobytes()
        assert np.array_equal(days[9].readings, days[8].readings + 1.0)

    def test_scale_shift_multiplies(self):
        series = generate_synthetic(
            DailyProfile(), [DriftEvent(day=3, kind="scale_shift", magnitude=2.0)],
            noise_sd=0.0, seed=0, n_days=4)
        days = segment_days(series)
        assert np.allclose(days[3].readings, 2.0 * days[0].readings)

    def test_shape_swap_preserves_day_total(self):
        series = generate_synthetic(
            DailyProfile(), [DriftEvent(day=2, kind="shape_swap", magnitude=0.5)],
            noise_sd=0.0, seed=0, n_days=2)
        days = segment_days(series)
        assert days[1].readings.sum() == pytest.approx(days[0].readings.sum())
        assert not np.allclose(days[1].readings, days[0].readings)

    def test_values_stay_non_negative(self):
        series = generate_synthetic(DailyProfile(base=0.5), [], noise_sd=2.0,
                                    seed=5, n_days=3)
        assert np.all(series.values >= 0.0)
