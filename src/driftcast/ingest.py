"""Parse, regularize, segment and split consumption streams.

A LoadSeries is a regular timeline: start time plus a fixed resolution,
with one value per slot. The parser may leave NaN in slots where the CSV
had no reading; resample_and_fill() removes them, and everything
downstream demands a gapless series.

Day boundaries are midnight in whatever UTC offset the input timestamps
carry (naive timestamps are taken at face value). Days that do not come
out at exactly readings-per-day slots are dropped and counted, which keeps
every DaySample fixed-length -- the density grid requires that.
"""
from __future__ import annotations

import csv
import io
import math
import shutil
import tempfile
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import chain, compress, islice
from operator import itemgetter

import numpy as np

from .errors import (
    EmptySeries,
    GapTooLarge,
    InputError,
    InvalidEvent,
    NegativeReading,
    NoCompleteDay,
    NonMonotoneTimestamps,
    TooFewDays,
    UnparseableRow,
)

DEFAULT_RESOLUTION = timedelta(minutes=10)

CSV_TIMESTAMP_COLUMN = "timestamp"
CSV_VALUE_COLUMN = "consumption_kwh"


@dataclass(frozen=True)
class LoadSeries:
    """Univariate consumption stream at a fixed resolution (kWh per slot)."""

    start_time: datetime
    resolution: timedelta
    values: np.ndarray  # float64; NaN marks a missing slot awaiting fill

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.size == 0:
            raise EmptySeries("a LoadSeries needs at least one value")
        if self.resolution <= timedelta(0):
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if np.isinf(self.values).any():  # NaN marks a missing slot; no copy without them
            raise ValueError("readings must be finite")
        if (self.values < 0).any():
            raise NegativeReading("consumption readings must be >= 0")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def is_gapless(self) -> bool:
        return not bool(np.isnan(self.values).any())

    def timestamp_at(self, index: int) -> datetime:
        return self.start_time + index * self.resolution


@dataclass(frozen=True)
class DaySample:
    """One complete day of readings, the unit of drift analysis."""

    day: date
    readings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "readings", np.asarray(self.readings, dtype=float))
        if not np.all(np.isfinite(self.readings)):
            raise ValueError(f"day {self.day} has non-finite readings")


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.75
    validation_fraction_of_train: float = 1.0 / 6.0

    def __post_init__(self):
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        if not 0 < self.validation_fraction_of_train < 1:
            raise ValueError("validation_fraction_of_train must lie in (0, 1)")


def readings_per_day(resolution: timedelta) -> int:
    if resolution <= timedelta(0) or timedelta(days=1) % resolution:
        raise ValueError(f"resolution {resolution} does not divide a day evenly")
    return timedelta(days=1) // resolution


# --- CSV parsing ------------------------------------------------------------

_MICROSECOND = timedelta(microseconds=1)

# Rows read, and slots written, at a time: about 1 MB of Python objects.
_CSV_BLOCK = 2048


def _parse_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    return datetime.fromisoformat(text)


def _read_columns(reader, ts_idx: int, val_idx: int, n_columns: int):
    """The first reading's timestamp, then each reading's microseconds after it and its
    value, in file order, read a block of rows and a column at a time. Rows with no text
    are skipped; a block the columns reject raises its first bad line's error."""
    first, micros, values, line = None, array("q"), array("d"), 2
    while rows := list(islice(reader, _CSV_BLOCK)):
        # A row has text if its joined cells do; the file lines are counted only on error.
        has_text = list(map(bool, map(str.strip, map("".join, rows))))
        lines = compress(range(line, line + len(rows)), has_text)
        line, rows = line + len(rows), list(compress(rows, has_text))
        if not rows:
            continue
        try:
            stamps = list(map(_parse_timestamp, map(itemgetter(ts_idx), rows)))
            block = np.array(list(map(itemgetter(val_idx), rows)), dtype=float)
            first = first or stamps[0]
            valid = ({ts.tzinfo is None for ts in stamps} <= {first.tzinfo is None}
                     and np.isfinite(block).all() and (block >= 0).all())
        except (IndexError, ValueError):
            valid = False
        if not valid:
            _raise_first_bad_row(zip(lines, rows), ts_idx, val_idx, n_columns, first)
        micros.extend((ts - first) // _MICROSECOND for ts in stamps)
        values.frombytes(block.tobytes())
        del has_text, lines, rows, stamps  # before the next block is read
    return first, np.frombuffer(micros, dtype=np.int64), np.frombuffer(values)


def _seekable(path):
    """`path` open for reading bytes, a pipe copied once into a temporary file to seek."""
    raw = open(path, "rb")
    if raw.seekable():
        return raw
    with raw:
        copy = tempfile.TemporaryFile()
        shutil.copyfileobj(raw, copy)
    copy.seek(0)
    return copy


def _stamp_at(handle, index: int, ts_idx: int) -> tuple[int, datetime]:
    """The file line and timestamp of the index-th row with text, read again from the
    start of `handle`: the parse keeps neither."""
    handle.seek(0)
    rows = ((line, row) for line, row in enumerate(csv.reader(handle), start=1)
            if line > 1 and "".join(row).strip())
    line, row = next(islice(rows, index, None))
    return line, _parse_timestamp(row[ts_idx])


def _raise_first_bad_row(rows, ts_idx: int, val_idx: int, n_columns: int, first):
    """Raise the error of the first (file line, cells) row that fails a per-row check."""
    first_naive = first and first.tzinfo is None  # None until the file has a reading
    for line_number, row in rows:
        if len(row) <= max(ts_idx, val_idx):
            raise UnparseableRow(line_number, f"expected {n_columns} columns, got {len(row)}")
        try:
            ts = _parse_timestamp(row[ts_idx])
        except ValueError as exc:
            raise UnparseableRow(line_number, f"bad timestamp {row[ts_idx]!r}: {exc}") from None
        try:
            value = float(row[val_idx])
        except ValueError:
            raise UnparseableRow(line_number, f"bad value {row[val_idx]!r}") from None
        if not math.isfinite(value):
            raise UnparseableRow(line_number, f"non-finite value {row[val_idx]!r}")
        if value < 0:
            raise NegativeReading(f"line {line_number}: negative reading {value}")
        first_naive = ts.tzinfo is None if first_naive is None else first_naive
        if (ts.tzinfo is None) != first_naive:
            raise UnparseableRow(line_number, "mixed aware and naive timestamps")
    raise AssertionError("the columns rejected rows that each pass the per-row checks")


def _gap_counts(micros: np.ndarray) -> Counter:
    """How often each gap between consecutive offsets occurs, a block at a time."""
    return Counter(chain.from_iterable(np.diff(micros[lo : lo + _CSV_BLOCK + 1]).tolist()
                                       for lo in range(0, micros.size - 1, _CSV_BLOCK)))


def parse_load_csv(path) -> LoadSeries:
    """Read a two-column CSV into a LoadSeries.

    The resolution is inferred as the modal gap between consecutive
    readings; slots with no reading are left as NaN for resample_and_fill.
    """
    with io.TextIOWrapper(_seekable(path), encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            if (header := next(reader, None)) is None:
                raise EmptySeries(f"{path}: file is empty")
            header = [h.strip() for h in header]
            if CSV_TIMESTAMP_COLUMN not in header or CSV_VALUE_COLUMN not in header:
                raise UnparseableRow(1, f"header must contain {CSV_TIMESTAMP_COLUMN!r} and "
                                        f"{CSV_VALUE_COLUMN!r}, got {header}")
            ts_idx, val_idx = header.index(CSV_TIMESTAMP_COLUMN), header.index(CSV_VALUE_COLUMN)
            first, micros, values = _read_columns(reader, ts_idx, val_idx, len(header))
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
        if not micros.size:
            raise EmptySeries(f"{path}: no data rows")

        gaps = _gap_counts(micros) or Counter([DEFAULT_RESOLUTION // _MICROSECOND])  # one reading
        order = range(micros.size)  # the file index of each reading in time order
        if min(gaps) <= 0:  # sort stably, as list.sort; aware stamps compare in UTC
            order = np.argsort(micros, kind="stable")
            micros, values = micros[order] - micros[order[0]], values[order]
            repeats = np.flatnonzero(np.diff(micros) <= 0)
            if repeats.size:
                repeated = _stamp_at(handle, order[repeats[0] + 1], ts_idx)[1]
                raise NonMonotoneTimestamps(f"timestamp {repeated.isoformat()} repeats")
            gaps = _gap_counts(micros)
        start = _stamp_at(handle, order[0], ts_idx)[1] if order[0] else first  # with its offset

        # The most frequent gap; max keeps the first of a tie, so sorted gives the smallest.
        resolution = timedelta(microseconds=max(sorted(gaps), key=gaps.__getitem__))
        gapless = True
        for lo in range(0, micros.size, _CSV_BLOCK):
            # total_seconds() / step, exactly while the span is under 2**53 us (285 years).
            exact = micros[lo : lo + _CSV_BLOCK] / 1e6 / resolution.total_seconds()
            slots = np.rint(exact)
            misaligned = np.flatnonzero(np.abs(exact - slots) > 1e-6)
            if misaligned.size:
                line, stamp = _stamp_at(handle, order[lo + misaligned[0]], ts_idx)
                raise UnparseableRow(line, f"timestamp {stamp.isoformat()} is not aligned with "
                                           f"the inferred {resolution} resolution")
            gapless = gapless and np.array_equal(slots, np.arange(lo, lo + slots.size))
            micros[lo : lo + _CSV_BLOCK] = slots  # each reading's slot, from here on
        if not gapless:
            filled = np.full(int(micros[-1]) + 1, np.nan)
            filled[micros] = values
            values = filled
        return LoadSeries(start_time=start, resolution=resolution, values=values)


def write_load_csv(series: LoadSeries, path) -> None:
    """Write the series in the canonical two-column schema a block of slots at a time: a
    row per present slot, as csv.writer writes [timestamp_at(i).isoformat(), repr(value)]."""
    present = ~np.isnan(series.values)
    start, resolution = series.start_time, series.resolution
    if present.any():  # OverflowError past year 9999, before the file is touched
        series.timestamp_at(present.size - 1 - int(np.argmax(present[::-1])))
    # Whole-second steps at a fixed offset: every stamp ends in start's fraction and offset.
    whole_seconds = ((start.tzinfo is None or isinstance(start.tzinfo, timezone))
                     and not resolution.microseconds)
    suffix = start.isoformat()[len("YYYY-MM-DDTHH:MM:SS"):] if whole_seconds else ""
    first, step = np.datetime64(start.replace(tzinfo=None), "us"), np.timedelta64(resolution)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(f"{CSV_TIMESTAMP_COLUMN},{CSV_VALUE_COLUMN}\r\n")
        for lo in range(0, present.size, _CSV_BLOCK):
            slots = lo + np.flatnonzero(present[lo : lo + _CSV_BLOCK])
            if whole_seconds:
                stamps = np.datetime_as_string(first + slots * step, unit="s").tolist()
            else:
                stamps = [series.timestamp_at(i).isoformat() for i in slots.tolist()]
            handle.write("".join([f"{stamp}{suffix},{value!r}\r\n" for stamp, value
                                  in zip(stamps, series.values[slots].tolist())]))


# --- gap filling ------------------------------------------------------------

def resample_and_fill(series: LoadSeries, max_gap: int) -> LoadSeries:
    """Fill interior missing runs of length <= max_gap by linear interpolation.

    Linear rather than forward fill: consumption is an intensity, and the
    linear ramp preserves short-gap totals better. Idempotent.
    """
    if series.is_gapless:
        return series
    values = series.values.copy()
    missing = np.isnan(values)
    if missing[0] or missing[-1]:
        raise ValueError("leading/trailing slots have no reading to interpolate from")

    # Missing runs are [start, end); the mask flips at each start and each end, in turn.
    starts, ends = (np.flatnonzero(np.diff(missing)) + 1).reshape(-1, 2).T
    lengths = ends - starts
    too_long = np.flatnonzero(lengths > max_gap)
    if too_long.size:
        start, end = int(starts[too_long[0]]), int(ends[too_long[0]])
        t0, t1 = series.timestamp_at(start), series.timestamp_at(end - 1)
        raise GapTooLarge(f"{end - start} consecutive missing slots "
                          f"({t0.isoformat()} .. {t1.isoformat()}) exceed max_gap={max_gap}")
    run = np.repeat(np.arange(lengths.size), lengths)  # the run each missing slot is in
    slots = np.flatnonzero(missing)
    left, right = values[starts - 1][run], values[ends][run]
    k = slots - starts[run] + 1  # 1-based position inside the run
    values[slots] = left + (right - left) * (k / (lengths[run] + 1))
    return LoadSeries(start_time=series.start_time, resolution=series.resolution,
                      values=values)


# --- day segmentation -------------------------------------------------------

@dataclass(frozen=True)
class DaySegmentation(Sequence):
    """Ordered complete days plus a report of what was dropped."""

    days: tuple[DaySample, ...]
    dropped_leading_slots: int
    dropped_trailing_slots: int

    def __len__(self) -> int:
        return len(self.days)

    def __getitem__(self, index):
        return self.days[index]

    def report(self) -> dict:
        return {
            "complete_days": len(self.days),
            "dropped_leading_slots": self.dropped_leading_slots,
            "dropped_trailing_slots": self.dropped_trailing_slots,
            "dropped_anomalous_days": 0,  # kept in the report; regular slots leave none
        }


def segment_days(series: LoadSeries) -> DaySegmentation:
    """Cut a gapless series into complete calendar days.

    The slots are regular and the resolution divides a day, so midnight
    falls on a slot only when the start lies on the resolution's grid:
    first at slot (-slots_since_midnight) % rpd, then every rpd slots.
    """
    if not series.is_gapless:
        raise ValueError("segment_days requires a gapless series; fill gaps first")
    try:
        rpd = readings_per_day(series.resolution)
    except ValueError as exc:
        raise NoCompleteDay(f"series has no whole days: {exc}") from None
    n, start = len(series), series.start_time
    since_midnight = start - start.replace(hour=0, minute=0, second=0, microsecond=0)
    slots_since_midnight, off_grid = divmod(since_midnight, series.resolution)
    first = (-slots_since_midnight) % rpd
    n_days = 0 if off_grid else max(n - first, 0) // rpd
    if not n_days:
        raise NoCompleteDay(f"series spans no complete day ({n} slots at {series.resolution})")
    first_day = series.timestamp_at(first).date()
    days = tuple(DaySample(day=first_day + timedelta(days=k),
                           readings=series.values[first + k * rpd : first + (k + 1) * rpd].copy())
                 for k in range(n_days))
    return DaySegmentation(days=days, dropped_leading_slots=first,
                           dropped_trailing_slots=n - first - n_days * rpd)


# --- chronological split ----------------------------------------------------

def split_dataset(days: Sequence[DaySample], spec: SplitSpec = SplitSpec(),
                  ) -> tuple[list[DaySample], list[DaySample], list[DaySample]]:
    """Chronological train/validation/test split; never shuffled.

    The first floor(train_fraction * n) days form the train pool and the
    rest is test; the last floor(pool * validation_fraction) days of the
    pool become validation, so tuning sees the most recent regime.
    """
    n = len(days)
    if n < 8:
        raise TooFewDays(f"need at least 8 days to split, got {n}")
    pool = int(math.floor(spec.train_fraction * n))
    n_val = int(math.floor(pool * spec.validation_fraction_of_train))
    train = list(days[: pool - n_val])
    validation = list(days[pool - n_val : pool])
    test = list(days[pool:])
    return train, validation, test


# --- synthetic drifting streams ----------------------------------------------

VALID_EVENT_KINDS = ("mean_shift", "scale_shift", "shape_swap")


@dataclass(frozen=True)
class DriftEvent:
    """A permanent change to the generating process from `day` onward.

    mean_shift adds `magnitude` kWh to every slot, scale_shift multiplies
    by `magnitude`, shape_swap rotates the daily shape by `magnitude` of a
    full day (0.5 swaps morning and evening).
    """

    day: int  # 1-based
    kind: str
    magnitude: float

    def __post_init__(self):
        if self.kind not in VALID_EVENT_KINDS:
            raise InvalidEvent(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class DailyProfile:
    """Smooth base shape: a flat base plus Gaussian usage bumps."""

    base: float = 10.0
    peaks: tuple[tuple[float, float, float], ...] = ((8.0, 2.0, 3.0), (19.0, 3.0, 5.0))

    def shape(self, rpd: int) -> np.ndarray:
        hours = np.arange(rpd) * (24.0 / rpd)
        values = np.full(rpd, float(self.base))
        for center, width, height in self.peaks:
            values += height * np.exp(-0.5 * ((hours - center) / width) ** 2)
        return values


def generate_synthetic(profile: DailyProfile,
                       drift_events: Sequence[DriftEvent],
                       noise_sd: float,
                       seed: int,
                       n_days: int,
                       resolution: timedelta = DEFAULT_RESOLUTION,
                       start_time: datetime = datetime(2024, 1, 1),
                       ) -> LoadSeries:
    """Deterministic drifting stream: stationary until each event's day."""
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    if not noise_sd >= 0:  # NaN too
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    for event in drift_events:
        if isinstance(event.day, bool) or not (1 <= event.day <= n_days
                                               and event.day % 1 == 0):  # NaN too
            raise InvalidEvent(f"event day {event.day} is not a whole day in 1..{n_days}")

    rpd = readings_per_day(resolution)
    rng = np.random.default_rng(seed)
    block = np.tile(profile.shape(rpd), (n_days, 1))  # row d - 1 is day d
    for event in sorted(drift_events, key=lambda e: e.day):
        later = block[int(event.day) - 1:]  # the event's day and every day after
        if event.kind == "mean_shift":
            later += event.magnitude
        elif event.kind == "scale_shift":
            later *= event.magnitude
        else:  # shape_swap
            later[:] = np.roll(later, int(round(event.magnitude * rpd)), axis=1)
    if not np.isfinite(block).all():
        raise ValueError("the profile and its events give non-finite load values")
    block += rng.normal(0.0, noise_sd, (n_days, rpd)) if noise_sd > 0 else 0.0
    return LoadSeries(start_time=start_time, resolution=resolution,
                      values=np.maximum(block, 0.0).ravel())
