"""Command-line interface.

Subcommands: ingest, synth, run, compare, report. Exit codes: 0 success,
2 input error, 3 config error, 4 runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timedelta
from pathlib import Path

from .errors import ConfigError, DriftcastError, InputError, NegativeDuration
from .evaluation import EvaluationReport
from .ingest import (
    DailyProfile,
    DriftEvent,
    generate_synthetic,
    parse_load_csv,
    resample_and_fill,
    segment_days,
    write_load_csv,
)
from .pipeline import RunConfig, compare, render_comparison, run

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4

_PROFILE_KEYS = {"base", "peaks", "noise_sd", "resolution_minutes", "start_time", "events"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftcast",
                                     description="Drift-adaptive interval load forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate, fill and segment a CSV stream")
    p_ingest.add_argument("csv", help="input CSV (timestamp, consumption_kwh)")
    p_ingest.add_argument("--out", required=True, help="canonical series CSV to write")
    p_ingest.add_argument("--max-gap", type=int, default=6,
                          help="longest missing run to interpolate (slots)")
    p_ingest.add_argument("--report", help="write the segmentation report JSON here")

    p_synth = sub.add_parser("synth", help="generate a synthetic drifting stream")
    p_synth.add_argument("--profile", required=True, help="profile config JSON")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--days", type=int, required=True)
    p_synth.add_argument("--out", required=True, help="CSV to write")

    p_run = sub.add_parser("run", help="run one forecasting strategy end to end")
    p_run.add_argument("--mode", choices=["baseline", "passive", "active"])
    p_run.add_argument("--tau", type=float)
    p_run.add_argument("--config", help="run config JSON; flags override it")
    p_run.add_argument("--input", required=True, help="canonical series CSV")
    p_run.add_argument("--out", required=True, help="report JSON to write")
    p_run.add_argument("--seed", type=int)

    p_cmp = sub.add_parser("compare", help="compare candidate reports to a baseline")
    p_cmp.add_argument("--baseline", required=True)
    p_cmp.add_argument("--candidate", action="append", required=True)
    p_cmp.add_argument("--out", help="comparison JSON to write")

    p_rep = sub.add_parser("report", help="render a report for reading")
    p_rep.add_argument("--in", dest="path", required=True)
    p_rep.add_argument("--format", choices=["text", "csv"], default="text")
    return parser


def _read_object(path: str, what: str) -> dict:
    """The JSON object in the UTF-8 file at `path`; anything else is a ConfigError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {data!r}")
    return data


def _cmd_ingest(args) -> int:
    RunConfig(max_gap=args.max_gap)  # a gap bound that a run rejects is a config error
    series = parse_load_csv(args.csv)
    filled = resample_and_fill(series, args.max_gap)
    segmentation = segment_days(filled)
    write_load_csv(filled, args.out)
    report = segmentation.report()
    report["resolution_minutes"] = filled.resolution.total_seconds() / 60.0
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = _read_object(args.profile, "profile config")
    if set(spec) - _PROFILE_KEYS:
        raise ConfigError(f"unknown profile keys: {sorted(set(spec) - _PROFILE_KEYS)}")
    try:
        profile = DailyProfile(
            base=spec.get("base", 10.0),
            peaks=tuple(tuple(p) for p in spec.get("peaks",
                                                   [[8.0, 2.0, 3.0], [19.0, 3.0, 5.0]])))
        events = [DriftEvent(**event) for event in spec.get("events", [])]
        noise_sd = float(spec.get("noise_sd", 0.5))
        resolution = timedelta(minutes=float(spec.get("resolution_minutes", 10)))
        start = datetime.fromisoformat(spec.get("start_time", "2024-01-01T00:00:00"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad profile config: {exc}") from None
    try:
        series = generate_synthetic(profile, events, noise_sd=noise_sd, seed=args.seed,
                                    n_days=args.days, resolution=resolution,
                                    start_time=start)
    except (TypeError, ValueError) as exc:  # e.g. --days < 1, a non-numeric profile value
        raise ConfigError(f"bad synth request: {exc}") from None
    write_load_csv(series, args.out)
    print(f"wrote {len(series)} readings over {args.days} days to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config_data = _read_object(args.config, "config") if args.config else {}
    flags = {"mode": args.mode, "tau": args.tau, "seed": args.seed}  # a flag given overrides
    config_data.update((key, value) for key, value in flags.items() if value is not None)
    config = RunConfig.from_dict(config_data)

    series = parse_load_csv(args.input)
    report = run(config, series)
    Path(args.out).write_text(report.to_json(), encoding="utf-8")
    print(f"{report.mode}: mean MAPE {report.mean_mape:.2f}%, "
          f"mean RMSE {report.mean_rmse:.3f}, "
          f"{report.adaptation_count} adaptation(s), cost {report.total_cost:.2f}")
    return EXIT_OK


def _load_report(path: str) -> EvaluationReport:
    try:
        return EvaluationReport.from_json(Path(path).read_text(encoding="utf-8"))
    except (TypeError, ValueError, NegativeDuration) as exc:  # JSONDecodeError too
        raise InputError(f"{path} is not a valid report: {exc}") from None


def _cmd_compare(args) -> int:
    baseline = _load_report(args.baseline)
    candidates = [_load_report(path) for path in args.candidate]
    result = compare(baseline, candidates)
    text = json.dumps(result, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(render_comparison(result))
    return EXIT_OK


def _cmd_report(args) -> int:
    report = _load_report(args.path)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["day_index", "mape", "rmse"])
        for entry in report.daily_errors:
            writer.writerow([entry.day_index.isoformat(), repr(entry.mape),
                             repr(entry.rmse)])
        return EXIT_OK
    print(f"run:            {report.label}")
    print(f"seed:           {report.seed}")
    print(f"split:          {report.split}")
    print(f"test days:      {len(report.daily_errors)}")
    print(f"mean MAPE:      {report.mean_mape:.2f}% (std {report.std_mape:.2f})")
    print(f"mean RMSE:      {report.mean_rmse:.3f} (std {report.std_rmse:.3f})")
    print(f"adaptations:    {report.adaptation_count}")
    print(f"total cost:     {report.total_cost:.2f}")
    drifts = [d for d in report.drift_decisions if d.is_drift]
    if report.drift_decisions:
        print(f"drift days:     {', '.join(d.day_index.isoformat() for d in drifts) or 'none'}")
    return EXIT_OK


_HANDLERS = {
    "ingest": _cmd_ingest,
    "synth": _cmd_synth,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DriftcastError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
