"""Property tests: divergence bounds, p-value order, nested taus, exact kernel
sums, resumed and stacked training runs, the search's score-free seeding, the
ingest round trip, gap filling and day segmentation, and the CSV reader and
writer against their per-row references, also at the edges of their blocks."""
import csv
import dataclasses
import tempfile
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import reference_parse_load_csv, reference_timestamp, reference_write_load_csv

from driftcast.density import estimate_kde, kernel_sum, shared_grid
from driftcast.divergence import jsd
from driftcast.drift import DriftState, advance, decide, init_drift_state, p_value
from driftcast.errors import NoCompleteDay, NonMonotoneTimestamps, UnparseableRow
from driftcast.forecaster import (
    Hyperparameters,
    NormStats,
    build_windows,
    incremental_update,
    new_model,
    train,
)
from driftcast.hpo import SearchSpace, optimize, seeding_points
from driftcast.ingest import (
    _CSV_BLOCK,
    DaySample,
    DaySegmentation,
    LoadSeries,
    parse_load_csv,
    readings_per_day,
    resample_and_fill,
    segment_days,
    write_load_csv,
)

# Derandomized so the suite stays reproducible; no deadline on a shared machine.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
samples = st.lists(finite, min_size=1, max_size=40)
bandwidths = st.floats(min_value=0.05, max_value=5.0)
unit = st.floats(min_value=0.0, max_value=1.0)


@PROPERTY
@given(samples, samples, bandwidths)
def test_jsd_is_symmetric_and_bounded(a, b, bandwidth):
    grid = shared_grid(a, b, bandwidth)
    p, q = estimate_kde(a, bandwidth, grid), estimate_kde(b, bandwidth, grid)
    forward, backward = jsd(p, q).value, jsd(q, p).value
    assert forward == backward
    assert 0.0 <= forward <= 1.0


_ONE_READING_DAYS = [DaySample(day=date(2024, 1, d), readings=np.zeros(1)) for d in (1, 2)]


def _history_state(history):
    return dataclasses.replace(init_drift_state(_ONE_READING_DAYS, load_bandwidth=1.0),
                               divergence_history=np.asarray(history, float))


@PROPERTY
@given(st.lists(unit, min_size=2, max_size=60), unit, unit)
def test_p_value_is_non_increasing_in_the_divergence(history, x, y):
    state = _history_state(history)
    low, high = min(x, y), max(x, y)
    assert p_value(state, low) >= p_value(state, high) - 1e-12


def _days(levels, rng, readings_per_day=48):
    start = date(2024, 1, 1)
    return [DaySample(day=start + timedelta(days=i),
                      readings=rng.normal(level, 1.0, readings_per_day))
            for i, level in enumerate(levels)]


def _fired(days, tau):
    state = init_drift_state(days[:4], load_bandwidth=1.0)
    fired = set()
    for day in days[4:]:
        decision = decide(state, day, tau)
        if decision.is_drift:
            fired.add(day.day)
        state = advance(state, day, decision.divergence)
    return fired


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=2**16), unit, unit)
def test_drift_at_a_lower_tau_fires_at_every_higher_tau(shifts, seed, tau_x, tau_y):
    days = _days([10.0] * 4 + [10.0 + s for s in shifts], np.random.default_rng(seed))
    assert _fired(days, min(tau_x, tau_y)) <= _fired(days, max(tau_x, tau_y))


@PROPERTY
@given(st.integers(min_value=1, max_value=700), st.integers(min_value=0, max_value=2**16),
       bandwidths, st.integers(min_value=0, max_value=700))
def test_blocked_kernel_sum_equals_one_shot_sum_bitwise(n, seed, bandwidth, cut):
    # Sizes past the 256-row block, and a resumed sum cut anywhere.
    v = np.random.default_rng(seed).normal(0.0, 5.0, n)
    points = np.linspace(v.min() - 1.0, v.max() + 1.0, 64)
    z = (points[None, :] - v[:, None]) / bandwidth
    one_shot = np.exp(-0.5 * z * z).sum(axis=0)
    cut = min(cut, n)
    resumed = kernel_sum(v[cut:], bandwidth, points, kernel_sum(v[:cut], bandwidth, points))
    assert kernel_sum(v, bandwidth, points).tobytes() == one_shot.tobytes()
    assert resumed.tobytes() == one_shot.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
       st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40), bandwidths)
def test_the_grid_with_a_day_is_the_shared_grid_of_pool_and_day(pool, day, bandwidth):
    # grid_with reads the state's grid, never the pool: rounding x - pad is monotone in x.
    pool, day = np.array(pool), np.array(day)
    state = DriftState(pool=pool, grid=shared_grid(pool, pool, bandwidth),
                       pool_sum=np.zeros(512), divergence_history=np.empty(0),
                       load_bandwidth=bandwidth)
    both = np.concatenate([pool, day])
    assert state.grid_with(day) == shared_grid(day, pool, bandwidth)
    assert state.grid_with(day) == shared_grid(both, both, bandwidth)


# --- ingest -------------------------------------------------------------------

resolutions = st.sampled_from([timedelta(minutes=m) for m in (5, 10, 15, 30, 60)])
zones = st.sampled_from([None, timezone.utc, timezone(timedelta(hours=-5, minutes=-30))])
readings = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.sampled_from([0.0, 0.3]), st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=2**16))
def test_resumed_probe_equals_a_fresh_update_bitwise(probe_epochs, epochs, dropout,
                                                     n_windows, seed):
    rng = np.random.default_rng(seed)
    tuned = Hyperparameters(learning_rate=0.01, dropout_rate=dropout, n_units=4)
    model = new_model(tuned, NormStats(vmin=0.0, vmax=1.0), rng_seed=seed)
    windows = build_windows(rng.random(n_windows + 17), 12, 6)
    _, run = incremental_update(model, windows, tuned, epochs=probe_epochs, batch_size=8,
                                keep_run_after=min(probe_epochs, epochs))
    resumed = incremental_update(model, windows, tuned, epochs=epochs, batch_size=8,
                                 resume=run)
    fresh = incremental_update(model, windows, tuned, epochs=epochs, batch_size=8)
    assert resumed.weights.flat.tobytes() == fresh.weights.flat.tobytes()
    assert (resumed.version, resumed.hyperparameters) == (fresh.version,
                                                          fresh.hyperparameters)


stack_rates = st.lists(st.tuples(st.sampled_from([0.3, 0.05, 0.01, 0.001]),
                                st.sampled_from([0.0, 0.2, 0.5])),
                      min_size=1, max_size=4, unique_by=lambda pair: pair[0])


@pytest.mark.parametrize("with_val", [True, False], ids=["val", "no_val"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(stack_rates, st.integers(min_value=0, max_value=1),
       st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**16))
def test_a_stacked_train_equals_separate_calls_bitwise(with_val, rates, patience, n_windows,
                                                       seed):
    # Distinct learning rates with patience 0-1 stop members at different epochs;
    # without a validation set every member trains all its epochs.
    rng = np.random.default_rng(seed)
    models = [new_model(Hyperparameters(learning_rate=lr, dropout_rate=dr, n_units=4),
                        NormStats(vmin=0.0, vmax=1.0), rng_seed=seed) for lr, dr in rates]
    windows = build_windows(rng.random(n_windows + 17), 12, 6)
    val = build_windows(rng.random(40), 12, 6) if with_val else []
    stacked = train(models, windows, val, epochs=6, batch_size=8, patience=patience)
    for model, got in zip(models, stacked, strict=True):
        alone = train(model, windows, val, epochs=6, batch_size=8, patience=patience)
        assert got.weights.flat.tobytes() == alone.weights.flat.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(stack_rates, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**16))
def test_a_stacked_update_resumes_like_separate_calls_bitwise(rates, probe_epochs, epochs,
                                                              n_windows, seed):
    rng = np.random.default_rng(seed)
    tuned = [Hyperparameters(learning_rate=lr, dropout_rate=dr, n_units=4) for lr, dr in rates]
    model = new_model(tuned[0], NormStats(vmin=0.0, vmax=1.0), rng_seed=seed)
    windows = build_windows(rng.random(n_windows + 17), 12, 6)
    kept = min(probe_epochs, epochs)
    probes, runs = incremental_update(model, windows, tuned, epochs=probe_epochs,
                                      batch_size=8, keep_run_after=kept)
    for hp, probe, run in zip(tuned, probes, runs, strict=True):
        alone, _ = incremental_update(model, windows, hp, epochs=probe_epochs, batch_size=8,
                                      keep_run_after=kept)
        assert probe.weights.flat.tobytes() == alone.weights.flat.tobytes()
        assert run.epochs_done == kept
        resumed = incremental_update(model, windows, hp, epochs=epochs, batch_size=8,
                                     resume=run)
        fresh = incremental_update(model, windows, hp, epochs=epochs, batch_size=8)
        assert resumed.weights.flat.tobytes() == fresh.weights.flat.tobytes()


@PROPERTY
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=2**16), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_optimize_opens_with_the_score_free_seeding_points(budget, n_init, seed,
                                                           n_rates, n_widths):
    space = SearchSpace(learning_rates=(0.0001, 0.001, 0.01)[:n_rates],
                        dropout_rates=(0.0, 0.2), n_units_values=(4, 8, 16)[:n_widths])
    seeding = seeding_points(space, budget, seed, n_init)
    assert len(seeding) == min(budget, n_init, len(space.all_points()))
    for objective in (lambda hp: hp.learning_rate + hp.dropout_rate,
                      lambda hp: -hp.n_units - 10.0 * hp.dropout_rate):
        _, history = optimize(objective, space, budget=budget, seed=seed, n_init=n_init)
        assert [t.hyperparameters for t in history[: len(seeding)]] == seeding


@st.composite
def series_with_gaps(draw, max_len=80):
    """A series whose missing slots are interior, so every slot is recoverable."""
    values = draw(st.lists(readings, min_size=2, max_size=max_len))
    missing = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    values = [np.nan if gap and 0 < k < len(values) - 1 else v
              for k, (v, gap) in enumerate(zip(values, missing))]
    start = draw(st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2030, 1, 1),
                              timezones=zones)).replace(microsecond=0)
    return LoadSeries(start_time=start, resolution=draw(resolutions), values=values)


def _longest_gap(values):
    longest = run = 0
    for missing in np.isnan(values):
        run = run + 1 if missing else 0
        longest = max(longest, run)
    return longest


@PROPERTY
@given(series_with_gaps())
def test_csv_round_trip_is_exact(series):
    # The parser infers the resolution as the modal gap between readings.
    present = np.flatnonzero(~np.isnan(series.values))
    gaps = np.diff(present)
    assume(np.sum(gaps == 1) > max(np.sum(gaps == g) for g in set(gaps.tolist()) | {0}
                                   if g != 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "load.csv"
        write_load_csv(series, path)
        parsed = parse_load_csv(path)
    assert parsed.start_time == series.start_time
    assert parsed.start_time.utcoffset() == series.start_time.utcoffset()
    assert parsed.resolution == series.resolution
    assert parsed.values.tobytes() == series.values.tobytes()


@PROPERTY
@given(series_with_gaps(), st.integers(min_value=0, max_value=4))
def test_fill_is_idempotent_and_keeps_readings(series, slack):
    filled = resample_and_fill(series, max_gap=_longest_gap(series.values) + slack)
    again = resample_and_fill(filled, max_gap=0)
    assert filled.is_gapless
    assert again.values.tobytes() == filled.values.tobytes()
    assert (again.start_time, again.resolution) == (filled.start_time, filled.resolution)
    present = ~np.isnan(series.values)
    assert filled.values[present].tobytes() == series.values[present].tobytes()
    assert (filled.start_time, filled.resolution) == (series.start_time, series.resolution)


@PROPERTY
@given(resolutions, st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=2**16))
def test_segmentation_accounts_for_every_slot(resolution, offset_slots, n, seed):
    # A gapless series on the resolution's grid: every slot lands in a
    # complete day or in the dropped leading or trailing partial day.
    start = datetime(2024, 3, 1) + offset_slots * resolution
    values = np.random.default_rng(seed).uniform(0.0, 5.0, n)
    series = LoadSeries(start_time=start, resolution=resolution, values=values)
    rpd = readings_per_day(resolution)
    try:
        segmentation = segment_days(series)
    except NoCompleteDay:
        first_midnight = (-(offset_slots % rpd)) % rpd
        assert first_midnight + rpd > n
        return
    days = segmentation.days
    lead, trail = segmentation.dropped_leading_slots, segmentation.dropped_trailing_slots
    assert segmentation.report()["dropped_anomalous_days"] == 0
    assert lead < rpd and trail < rpd
    assert lead + len(days) * rpd + trail == n
    assert np.concatenate([d.readings for d in days]).tobytes() == \
           values[lead : n - trail].tobytes()
    assert [d.day for d in days] == [days[0].day + timedelta(days=k) for k in range(len(days))]
    assert series.timestamp_at(lead).time() == datetime.min.time()


def _segment_days_per_slot(series: LoadSeries) -> DaySegmentation:
    """Reference segmentation: group the slots by the calendar date of each
    slot's own timestamp, keeping groups of a full day that start at midnight."""
    rpd = readings_per_day(series.resolution)
    slot_days = [series.timestamp_at(i).date() for i in range(len(series))]
    days: list[DaySample] = []
    dropped_leading = 0
    dropped_trailing = 0
    dropped_anomalous = 0

    i = 0
    n = len(series)
    while i < n:
        d = slot_days[i]
        j = i
        while j < n and slot_days[j] == d:
            j += 1
        count = j - i
        midnight_aligned = series.timestamp_at(i).time() == datetime.min.time()
        if count == rpd and midnight_aligned:
            days.append(DaySample(day=d, readings=series.values[i:j].copy()))
        elif not days and j < n:
            dropped_leading += count
        elif j == n:
            dropped_trailing += count
        else:
            dropped_anomalous += 1
        i = j

    if not days:
        raise NoCompleteDay(f"series spans no complete day ({n} slots at {series.resolution})")
    assert dropped_anomalous == 0  # a regular series has no short day inside it
    return DaySegmentation(days=tuple(days),
                           dropped_leading_slots=dropped_leading,
                           dropped_trailing_slots=dropped_trailing)


@settings(PROPERTY, max_examples=300)
@given(resolutions, zones, st.dates(min_value=date(2000, 1, 1), max_value=date(2030, 1, 1)),
       st.integers(min_value=0, max_value=86_399), st.booleans(),
       st.integers(min_value=1, max_value=500))
def test_segmentation_matches_the_per_slot_reference(resolution, zone, day, seconds,
                                                     aligned, n):
    # Any second of the day; half the cases are moved down onto the grid.
    if aligned:
        seconds -= seconds % int(resolution.total_seconds())
    start = datetime.combine(day, datetime.min.time(), zone) + timedelta(seconds=seconds)
    series = LoadSeries(start_time=start, resolution=resolution,
                        values=np.arange(n, dtype=float))
    try:
        expected = _segment_days_per_slot(series)
    except NoCompleteDay:
        with pytest.raises(NoCompleteDay):
            segment_days(series)
        return
    segmentation = segment_days(series)
    assert [d.day for d in segmentation] == [d.day for d in expected]
    assert [d.readings.tobytes() for d in segmentation] == \
           [d.readings.tobytes() for d in expected]
    assert segmentation.report() == expected.report()


# --- column-wise CSV reader and writer against the per-row references ---------

csv_resolutions = st.sampled_from([timedelta(seconds=1), timedelta(seconds=10),
                                   timedelta(minutes=10), timedelta(hours=1)])
fixed_zones = st.sampled_from([None, timezone.utc, timezone(timedelta(hours=-5, minutes=-30))])
# A zone whose offset changes per row comes only through the Python API.
write_zones = st.one_of(fixed_zones, st.just(ZoneInfo("Europe/Berlin")))


@st.composite
def written_series(draw):
    """A series with random NaN gaps; half the starts keep a fraction of a second,
    and a quarter-second resolution takes the writer's per-row path."""
    n = draw(st.integers(min_value=1, max_value=60))
    values = draw(st.lists(st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                                     st.just(np.nan)), min_size=n, max_size=n))
    start = draw(st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1),
                              timezones=write_zones))
    if draw(st.booleans()):
        start = start.replace(microsecond=0)
    resolution = draw(st.one_of(csv_resolutions, st.just(timedelta(milliseconds=250))))
    return LoadSeries(start_time=start, resolution=resolution, values=values)


@PROPERTY
@given(written_series())
def test_writer_bytes_equal_the_per_row_writer(series):
    with tempfile.TemporaryDirectory() as tmp:
        write_load_csv(series, Path(tmp) / "new.csv")
        reference_write_load_csv(series, Path(tmp) / "old.csv")
        assert (Path(tmp) / "new.csv").read_bytes() == (Path(tmp) / "old.csv").read_bytes()


def _assert_parses_like_the_reference(path):
    """Same series, or the same exception type and message. A misaligned row is
    the exception: the reference names its sorted position, the parser its line."""
    try:
        expected = reference_parse_load_csv(path)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            parse_load_csv(path)
        message, wanted = str(raised.value), str(exc)
        if "is not aligned" in wanted:
            line = raised.value.line_number
            assert message.split(":", 1)[1] == wanted.split(":", 1)[1]
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            header = [cell.strip() for cell in rows[0]]
            stamp = reference_timestamp(rows[line - 1][header.index("timestamp")])
            assert f"timestamp {stamp.isoformat()} is not aligned" in message
        else:
            assert message == wanted
        return
    parsed = parse_load_csv(path)
    assert parsed.start_time == expected.start_time
    assert parsed.start_time.utcoffset() == expected.start_time.utcoffset()
    assert parsed.resolution == expected.resolution
    assert parsed.values.tobytes() == expected.values.tobytes()


@PROPERTY
@given(written_series())
def test_parsing_the_writer_output_equals_the_per_row_parser(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "load.csv"
        reference_write_load_csv(series, path)
        _assert_parses_like_the_reference(path)


BLANK_ROWS = ([], ["   "], ["", ""], [" ", "\t"])


def _malformed_cells(draw, stamp, aware):
    """(timestamp, value) cells that break one of the parser's checks."""
    kind = draw(st.sampled_from(["bad_stamp", "bad_value", "non_finite", "negative", "mixed",
                                 "repeat", "misaligned", "text"]))
    if kind == "bad_stamp":
        return "2024-13-01T00:00:00", "1.0"
    if kind == "bad_value":
        return stamp.isoformat(), "one"
    if kind == "non_finite":
        return stamp.isoformat(), draw(st.sampled_from(["inf", "nan", "-inf", "1e999"]))
    if kind == "negative":
        return stamp.isoformat(), "-1.5"
    if kind == "mixed":
        other = stamp.replace(tzinfo=None if aware else timezone(timedelta(hours=1)))
        return other.isoformat(), "1.0"
    if kind == "repeat":  # the same instant, at another offset in an aware file
        other = stamp.astimezone(timezone(timedelta(hours=1))) if aware else stamp
        return draw(st.sampled_from([stamp, other])).isoformat(), "2.0"
    if kind == "misaligned":
        return (stamp + timedelta(milliseconds=draw(st.integers(1, 999)))).isoformat(), "1.0"
    text = draw(st.text(max_size=12))
    return draw(st.sampled_from([(text, "1.0"), (stamp.isoformat(), text)]))


@st.composite
def csv_files(draw, max_malformed=0):
    """A hand-built CSV: unsorted rows with gaps, `Z` and padded cells, values with
    `_` separators, blank rows, optional extra columns and malformed rows."""
    zone, resolution = draw(fixed_zones), draw(csv_resolutions)
    start = draw(st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2030, 1, 1)))
    start = start.replace(microsecond=0, tzinfo=zone)
    extra = draw(st.booleans())
    header = ["site", " timestamp ", "consumption_kwh", "note"] if extra else \
             ["timestamp", "consumption_kwh"]
    stamps = [start + k * resolution for k in range(draw(st.integers(1, 30)))
              if k == 0 or draw(st.integers(0, 3))]
    rows = []
    for stamp in stamps:
        value = draw(readings)
        stamp_text, value_text = stamp.isoformat(), repr(value)
        if zone is timezone.utc and draw(st.booleans()):
            stamp_text = stamp_text.replace("+00:00", "Z")
        if value.is_integer() and draw(st.booleans()):
            value_text = f"{int(value):_}"
        if draw(st.booleans()):
            stamp_text, value_text = f" {stamp_text} ", f"\t{value_text} "
        rows.append((stamp_text, value_text))
    n_malformed = draw(st.integers(min(1, max_malformed), max_malformed))
    for _ in range(n_malformed):
        rows.insert(draw(st.integers(0, len(rows))),
                    _malformed_cells(draw, draw(st.sampled_from(stamps)), zone is not None))
    rows = [["A", *cells, "x"] if extra else list(cells) for cells in draw(st.permutations(rows))]
    if n_malformed and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), rows[0][:1 + extra])  # too few cells
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BLANK_ROWS)))
    return [header, *rows]


def _write_rows(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


@settings(PROPERTY, max_examples=150)
@given(csv_files())
def test_hand_built_csv_parses_like_the_per_row_parser(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "load.csv"
        _write_rows(rows, path)
        _assert_parses_like_the_reference(path)


@settings(PROPERTY, max_examples=300)
@given(csv_files(max_malformed=3))
def test_malformed_rows_raise_like_the_per_row_parser(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "load.csv"
        _write_rows(rows, path)
        _assert_parses_like_the_reference(path)


# --- the reader's row blocks and the writer's slot blocks, at their edges -------
# Hypothesis's files have a few dozen rows, so they never reach a block boundary.

BLOCK = _CSV_BLOCK
TEN_MIN = timedelta(minutes=10)
UTC_PLUS_2, UTC_MINUS_3 = timezone(timedelta(hours=2)), timezone(timedelta(hours=-3))
UTC_PLUS_530 = timezone(timedelta(hours=5, minutes=30))


def _regular_rows(n, zone=None):
    """Rows of a regular 10-minute stream, [isoformat, repr(value)], distinct values."""
    start = datetime(2024, 1, 1, tzinfo=zone)
    return [[(start + k * TEN_MIN).isoformat(), repr(0.5 + k / 8)] for k in range(n)]


def _write_checked_csv(tmp_path, rows):
    path = tmp_path / "load.csv"
    _write_rows([["timestamp", "consumption_kwh"], *rows], path)
    _assert_parses_like_the_reference(path)
    return path


def _assert_writes_like_the_reference(tmp_path, series):
    write_load_csv(series, tmp_path / "new.csv")
    reference_write_load_csv(series, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    _assert_parses_like_the_reference(tmp_path / "new.csv")


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_a_block_and_a_row_either_side(tmp_path, n):
    series = LoadSeries(start_time=datetime(2024, 1, 1, 0, 0, 0, 250_000, UTC_PLUS_2),
                        resolution=TEN_MIN, values=0.5 + np.arange(n) / 8)
    _assert_writes_like_the_reference(tmp_path, series)


@pytest.mark.parametrize("first_missing", [BLOCK - 2, BLOCK])
def test_a_gap_across_a_block_boundary(tmp_path, first_missing):
    # Three missing slots: from BLOCK - 2 they cross the writer's first slot block;
    # from BLOCK they fall between the reader's first two row blocks.
    values = 0.5 + np.arange(BLOCK + 8) / 8
    values[first_missing : first_missing + 3] = np.nan
    series = LoadSeries(start_time=datetime(2024, 1, 1), resolution=TEN_MIN, values=values)
    _assert_writes_like_the_reference(tmp_path, series)
    assert parse_load_csv(tmp_path / "new.csv").values.tobytes() == values.tobytes()


@pytest.mark.parametrize("blank_rows", [1, BLOCK])
@pytest.mark.parametrize("at", [BLOCK - 1, BLOCK])
def test_blank_rows_at_a_block_boundary(tmp_path, blank_rows, at):
    rows = _regular_rows(BLOCK + 5)
    rows[at:at] = [[" ", "\t"]] * blank_rows  # BLOCK of them fill a whole block
    _write_checked_csv(tmp_path, rows)


@pytest.mark.parametrize("cells", [("2024-01-15T05:20:00", "one"),
                                   ("2024-01-15T05:20:00+02:00", "1.0")])
def test_a_bad_row_one_past_a_block_names_its_line(tmp_path, cells):
    # A bad value, then an aware stamp in a file whose first block is naive.
    rows = _regular_rows(BLOCK + 5)
    rows.insert(3, [])
    rows[BLOCK] = list(cells)
    path = _write_checked_csv(tmp_path, rows)
    with pytest.raises(UnparseableRow) as err:
        parse_load_csv(path)
    assert err.value.line_number == BLOCK + 2


def test_an_earliest_row_in_a_later_block_sets_the_start(tmp_path):
    rows = _regular_rows(BLOCK + 5, UTC_PLUS_2)
    earliest = datetime.fromisoformat(rows.pop(0)[0]).astimezone(UTC_MINUS_3)
    rows.insert(BLOCK + 2, [earliest.isoformat(), "9.0"])
    path = _write_checked_csv(tmp_path, rows)
    assert parse_load_csv(path).start_time.utcoffset() == timedelta(hours=-3)


@pytest.mark.parametrize("kind", ["repeat", "misaligned"])
def test_messages_give_a_later_blocks_stamp_at_its_own_offset(tmp_path, kind):
    # A `Z` file with the first row of its second block at +05:30: the same instant
    # as the row before it, or one second past its own slot.
    rows = [[stamp.replace("+00:00", "Z"), value]
            for stamp, value in _regular_rows(BLOCK + 5, timezone.utc)]
    slot = BLOCK - 1 if kind == "repeat" else BLOCK
    stamp = datetime(2024, 1, 1, tzinfo=timezone.utc) + slot * TEN_MIN
    stamp += timedelta(seconds=kind == "misaligned")
    rows[BLOCK][0] = stamp.astimezone(UTC_PLUS_530).isoformat()
    path = _write_checked_csv(tmp_path, rows)
    with pytest.raises(NonMonotoneTimestamps if kind == "repeat" else UnparseableRow) as err:
        parse_load_csv(path)
    assert f"timestamp {stamp.astimezone(UTC_PLUS_530).isoformat()} " in str(err.value)
    if kind == "misaligned":
        assert err.value.line_number == BLOCK + 2
