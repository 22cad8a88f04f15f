"""Capture or compare the deterministic reports of a fixed run matrix.

    PYTHONPATH=src python tools/golden_reports.py capture DIR
    PYTHONPATH=src python tools/golden_reports.py compare DIR

`capture` writes one `<case>.json` per run into DIR: the report's `to_json`
under deterministic timing, so two trees that compute the same bits write the
same bytes. `compare` reruns the matrix and exits 1 naming every case whose
report differs from, or is missing in, DIR, or does not read back to the
same bytes through `EvaluationReport.from_json`. For each JSON file that
differs it also prints the paths that differ, list indices shown as `[*]`, with
how many values moved on each and the largest gap between two numbers.

The matrix: 26-day and 120-day synthetic streams (seeds 0-1) in baseline,
passive and active mode at tau 0.15, 0 and 1; passive runs that tune three
probes over dropout 0, 0.2 and 0.4 with `hpo_fit_epochs` below, equal to and
above `epochs_incremental`; `retune_units_full_retrain` runs; and initial
searches whose score-free seeding trials train as stacks: three learning
rates whose members stop early at different epochs (patience 1), a budget
above `n_init` so surrogate trials follow the seeding batch, and a seeding
batch that mixes 4 and 8 units; and passive runs at `input_len` 30 (with
`retune_units_full_retrain`) and 138, the largest a 10-minute day admits, so
that an adaptation trains on one window per day. Two seed-0 cases,
`d26-u64-baseline-s0` and `d26-u64-passive-s0`, run d26 at 64 units, so a
change that moves bits only at paper-like widths also shows.

The ingest cases follow: for each stream and seed, `ingest-<stream>-s<seed>.csv`
holds the bytes `write_load_csv` writes, and `ingest-<stream>-s<seed>-parsed.json`
the series `parse_load_csv` reads back from that file (its start time with
offset, its resolution and its values' bytes in hex). Capture a golden
directory from the parent tree (point PYTHONPATH at its `src`), then compare
with the change's tree.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

try:
    import driftcast  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from driftcast.evaluation import EvaluationReport
from driftcast.ingest import (
    DailyProfile,
    DriftEvent,
    generate_synthetic,
    parse_load_csv,
    write_load_csv,
)
from driftcast.pipeline import RunConfig, run

PROFILE = DailyProfile(base=10.0, peaks=((8.0, 2.0, 3.0), (19.0, 3.0, 5.0)))
SEEDS = (0, 1)

# (days, events, run config): a +12 kWh jump then a daily creep, and a year-like
# stream with a late level shift and a shape swap on a minimal forecaster.
STREAMS = {
    "d26": (26, [DriftEvent(21, "mean_shift", 12.0)]
            + [DriftEvent(day, "mean_shift", 1.0) for day in range(22, 27)],
            RunConfig(load_bandwidth=1.0, deterministic_timing=True,
                      hpo_initial_budget=2, hpo_adapt_budget=2, hpo_fit_epochs=1,
                      epochs_initial=6, epochs_incremental=3, patience=3,
                      learning_rates=(0.001, 0.01), dropout_rates=(0.0,),
                      n_units_values=(8,))),
    "d120": (120, [DriftEvent(96, "mean_shift", 4.0), DriftEvent(108, "shape_swap", 0.25)],
             RunConfig(load_bandwidth=1.0, deterministic_timing=True,
                       hpo_initial_budget=1, hpo_adapt_budget=1, hpo_fit_epochs=1,
                       epochs_initial=1, epochs_incremental=1,
                       learning_rates=(0.001,), dropout_rates=(0.0,),
                       n_units_values=(8,))),
}

POLICIES = {
    "baseline": dict(mode="baseline", tau=None),
    "passive": dict(mode="passive", tau=None),
    "active0.15": dict(mode="active", tau=0.15),
    "active0": dict(mode="active", tau=0.0),
    "active1": dict(mode="active", tau=1.0),
}


def streams(seed):
    """Each stream of the matrix at one seed, by name: STREAMS, then "d26q15", d26's
    events at a 15-minute resolution."""
    series = {stream: generate_synthetic(PROFILE, events, noise_sd=0.35, seed=seed,
                                         n_days=days)
              for stream, (days, events, _) in STREAMS.items()}
    series["d26q15"] = generate_synthetic(PROFILE, STREAMS["d26"][1], noise_sd=0.35,
                                          seed=seed, n_days=26,
                                          resolution=timedelta(minutes=15))
    return series


def cases():
    """(name, config, stream) for every run of the matrix."""
    for seed in SEEDS:
        series = streams(seed)
        for stream, (_, _, base) in STREAMS.items():
            for policy, fields in POLICIES.items():
                yield f"{stream}-{policy}-s{seed}", replace(base, **fields), series[stream]
        d26 = STREAMS["d26"][2]
        for probe_epochs in (2, 3, 4):  # epochs_incremental is 3
            config = replace(d26, mode="passive", hpo_adapt_budget=3,
                             hpo_fit_epochs=probe_epochs,
                             dropout_rates=(0.0, 0.2, 0.4))
            yield f"d26-probes-k{probe_epochs}-s{seed}", config, series["d26"]
        for policy in ("passive", "active1"):
            config = replace(d26, retune_units_full_retrain=True, n_units_values=(4, 8),
                             **POLICIES[policy])
            yield f"d26-retrain-{policy}-s{seed}", config, series["d26"]
        three_rates = replace(d26, hpo_initial_budget=3, learning_rates=(0.0001, 0.001, 0.01))
        yield (f"d26-stop-s{seed}", replace(three_rates, mode="passive", epochs_initial=12,
                                            patience=1), series["d26"])
        yield (f"d26-gp-s{seed}", replace(three_rates, hpo_initial_budget=7,
                                          dropout_rates=(0.0, 0.2, 0.4)), series["d26"])
        yield (f"d26-mixed-s{seed}", replace(d26, hpo_initial_budget=5, n_units_values=(4, 8),
                                             dropout_rates=(0.0, 0.2)), series["d26"])
        yield (f"d26-len30-retrain-s{seed}", replace(d26, input_len=30, n_units_values=(4, 8),
                                                     retune_units_full_retrain=True,
                                                     **POLICIES["passive"]), series["d26"])
        yield (f"d26-len138-passive-s{seed}", replace(d26, input_len=138, **POLICIES["passive"]),
               series["d26"])
        for policy in ("baseline", "passive", "active0.15"):
            yield (f"d26q15-{policy}-s{seed}", replace(d26, **POLICIES[policy]),
                   series["d26q15"])
        if seed == 0:
            for policy in ("baseline", "passive"):
                yield (f"d26-u64-{policy}-s{seed}",
                       replace(d26, n_units_values=(64,), **POLICIES[policy]), series["d26"])


def ingest_cases():
    """(file name, bytes) for every stream and seed: the CSV `write_load_csv` writes,
    then the series `parse_load_csv` reads back from it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "load.csv"
        for seed in SEEDS:
            for stream, series in streams(seed).items():
                write_load_csv(series, path)
                yield f"ingest-{stream}-s{seed}.csv", path.read_bytes()
                parsed = parse_load_csv(path)
                yield f"ingest-{stream}-s{seed}-parsed.json", json.dumps({
                    "start_time": parsed.start_time.isoformat(),
                    "resolution": str(parsed.resolution),
                    "values": parsed.values.tobytes().hex(),
                }, indent=2).encode()


def leaf_diffs(old, new, path=""):
    """(path, gap) for each leaf where two JSON values differ: gap is |new - old|
    when both are numbers (not bools), else None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from leaf_diffs(old.get(key), new.get(key), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from leaf_diffs(a, b, f"{path}[{i}]")
    elif json.dumps(old) != json.dumps(new):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (old, new))
        yield path, abs(new - old) if numbers else None


def describe_diff(old: bytes, new: bytes) -> list[str]:
    """One line per differing path of two JSON files, then the largest numeric gap;
    nothing when either is not JSON."""
    try:
        diffs = list(leaf_diffs(json.loads(old), json.loads(new)))
    except ValueError:
        return []
    by_path: dict[str, list] = {}
    for path, gap in diffs:
        by_path.setdefault(re.sub(r"\[\d+\]", "[*]", path), []).append(gap)
    lines = [f"  {path}: {len(gaps)} value(s)"
             + ("" if None in gaps else f", largest gap {max(gaps):.3g}")
             for path, gaps in by_path.items()]
    gaps = [gap for _, gap in diffs if gap is not None]
    return lines + ([f"  largest numeric gap {max(gaps):.3g}"] if gaps else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=["capture", "compare"])
    parser.add_argument("dir", type=Path)
    args = parser.parse_args(argv)
    if args.action == "capture":
        args.dir.mkdir(parents=True, exist_ok=True)
    differing = []

    def check(name: str, data: bytes) -> None:
        path = args.dir / name
        if args.action == "capture":
            path.write_bytes(data)
        elif not path.is_file():
            differing.append(f"{name}: no golden file")
        elif path.read_bytes() != data:
            differing.append("\n".join([f"{name}: differs",
                                        *describe_diff(path.read_bytes(), data)]))
        print(f"{name}: {'written' if args.action == 'capture' else 'checked'}", flush=True)

    for name, config, series in cases():
        text = run(config, series).to_json()
        check(f"{name}.json", text.encode())
        if EvaluationReport.from_json(text).to_json() != text:
            differing.append(f"{name}.json: report does not round-trip")
    for name, data in ingest_cases():
        check(name, data)
    for line in differing:
        print(f"DIFFERS {line}", file=sys.stderr)
    if args.action == "compare":
        print(f"{len(differing)} differing case(s)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
