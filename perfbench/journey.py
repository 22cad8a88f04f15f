"""The user's journey through the public CLI, and the checks on its outputs.

One journey is: a fresh import of `driftcast`, `driftcast ingest` of the raw
CSV, `driftcast run` in baseline, passive and active mode, and `driftcast
compare`, all in this process through `driftcast.cli.main`. The checks run
after the clock stops. A CLI call fails when it exits nonzero, raises, or
one of its output checks fails; a failure is counted, never raised.

Times are CPU seconds of this process (`time.process_time`). The program is
single-threaded (BLAS pinned to one thread) and never waits, so on an idle
machine this equals wall time; unlike wall time, it leaves out the time a
hypervisor steals from a shared VM. Wall time is kept alongside.
"""
from __future__ import annotations

import gc
import importlib
import io
import json
import math
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from workloads import ACTIVE_TAU, READINGS_PER_DAY, Workload

MODES = ("baseline", "passive", "active")
CALLS = ("ingest", *MODES, "compare")


def fresh_import():
    """Import `driftcast` and its CLI anew, as a new process would."""
    for name in [n for n in sys.modules if n == "driftcast" or n.startswith("driftcast.")]:
        del sys.modules[name]
    package = importlib.import_module("driftcast")
    importlib.import_module("driftcast.cli")
    return package


@dataclass
class Call:
    code: int | None  # None when cli.main raised
    stdout: str
    stderr: str
    seconds: float  # CPU


def cli_call(package, tracer, label: str, argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.run = label
    started = process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = package.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # counted as a failed call, never fatal
        code = None
        err.write(traceback.format_exc())
    seconds = process_time() - started
    if tracer is not None:
        tracer.run = None
    return Call(code, out.getvalue(), err.getvalue(), seconds)


@dataclass
class Files:
    """Where one (workload, seed) keeps its inputs and outputs."""

    work: Path

    def __post_init__(self):
        self.raw = self.work / "raw.csv"
        self.config = self.work / "run.json"
        self.canonical = self.work / "canonical.csv"
        self.segmentation = self.work / "segmentation.json"
        self.reports = {mode: self.work / f"{mode}.json" for mode in MODES}
        self.comparison = self.work / "compare.json"


def ingest_argv(files: Files) -> list[str]:
    return ["ingest", str(files.raw), "--out", str(files.canonical),
            "--report", str(files.segmentation)]


def run_argv(files: Files, mode: str) -> list[str]:
    tau = ["--tau", str(ACTIVE_TAU)] if mode == "active" else []
    return ["run", "--mode", mode, *tau, "--config", str(files.config),
            "--input", str(files.canonical), "--out", str(files.reports[mode])]


def compare_argv(files: Files) -> list[str]:
    return ["compare", "--baseline", str(files.reports["baseline"]),
            "--candidate", str(files.reports["passive"]),
            "--candidate", str(files.reports["active"]),
            "--out", str(files.comparison)]


def setup(files: Files, tracer=None):
    """Import plus ingest: returns (package, ingest call, CPU seconds)."""
    gc.collect()
    started = process_time()
    package = fresh_import()
    imported = process_time()
    if tracer is not None:
        tracer.install(package)
    call = cli_call(package, tracer, "ingest", ingest_argv(files))
    return package, call, imported - started + call.seconds


@dataclass
class Journey:
    seconds: dict[str, float] = field(default_factory=dict)  # CPU
    wall_s: float = 0.0
    calls: dict[str, Call] = field(default_factory=dict)
    reports: dict[str, str] = field(default_factory=dict)  # mode -> report JSON
    failures: dict[str, list[str]] = field(default_factory=dict)
    table: str = ""

    @property
    def failed(self) -> int:
        return sum(1 for label in CALLS if self.failures.get(label))


def run_journey(files: Files, workload: Workload, seed: int, golden: dict,
                tracer=None) -> Journey:
    journey = Journey()
    started, started_wall = process_time(), perf_counter()
    package, journey.calls["ingest"], journey.seconds["setup_s"] = setup(files, tracer)
    for mode in MODES:
        call = cli_call(package, tracer, mode, run_argv(files, mode))
        journey.calls[mode] = call
        journey.seconds[f"run_s.{mode}"] = call.seconds
    journey.calls["compare"] = cli_call(package, tracer, "compare", compare_argv(files))
    journey.seconds["total_s"] = process_time() - started
    journey.wall_s = perf_counter() - started_wall
    journey.table = journey.calls["compare"].stdout
    journey.failures = check_journey(package, files, workload, seed, golden, journey)
    return journey


# --- output checks -------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""


def check_ingest(files: Files, workload: Workload, call: Call) -> list[str]:
    problems = _exit_problem(call)
    try:
        segmentation = json.loads(_read(files.segmentation))
    except json.JSONDecodeError:
        return problems + ["segmentation report is not JSON"]
    expected = {"complete_days": workload.n_days, "dropped_leading_slots": 0,
                "dropped_trailing_slots": 0, "dropped_anomalous_days": 0,
                "resolution_minutes": 1440 / READINGS_PER_DAY}
    if segmentation != expected:
        problems.append(f"segmentation {segmentation} != {expected}")
    rows = _read(files.canonical).count("\n") - 1
    if rows != workload.n_days * READINGS_PER_DAY:
        problems.append(f"canonical CSV has {rows} readings, expected "
                        f"{workload.n_days * READINGS_PER_DAY}")
    return problems


def _exit_problem(call: Call) -> list[str]:
    if call.code == 0:
        return []
    return [f"exit code {call.code}: {call.stderr.strip()[-400:]}"]


def check_journey(package, files: Files, workload: Workload, seed: int, golden: dict,
                  journey: Journey) -> dict[str, list[str]]:
    problems = {label: _exit_problem(journey.calls[label]) for label in CALLS}
    problems["ingest"] = check_ingest(files, workload, journey.calls["ingest"])
    reports, rows = {}, {}
    for mode in MODES:
        text = _read(files.reports[mode])
        journey.reports[mode] = text
        try:
            reports[mode] = package.evaluation.EvaluationReport.from_json(text)
            rows[mode] = json.loads(text)["daily_errors"]
        except (ValueError, KeyError, TypeError) as exc:
            problems[mode].append(f"report does not load: {exc!r}")
            continue
        report = reports[mode]
        if len(report.daily_errors) != workload.test_days:
            problems[mode].append(f"{len(report.daily_errors)} daily rows, expected "
                                  f"{workload.test_days} test days")
        if report.split.get("test_days") != workload.test_days:
            problems[mode].append(f"split {report.split} has the wrong test days")
        if not all(math.isfinite(e.mape) and math.isfinite(e.rmse)
                   for e in report.daily_errors):
            problems[mode].append("non-finite daily error")
    if len(reports) == len(MODES):
        _check_modes(reports, rows, workload, problems)
        if seed == golden.get("seed") and workload.name in golden.get("workloads", {}):
            _check_golden(reports, golden["workloads"][workload.name],
                          golden["mape_rel_tol"], problems)
    problems["compare"] += _check_comparison(files)
    return {label: found for label, found in problems.items() if found}


def _check_modes(reports, rows, workload: Workload, problems) -> None:
    base, passive, active = (reports[m] for m in MODES)
    first = json.dumps(rows["baseline"][:1])
    for mode in ("passive", "active"):
        if json.dumps(rows[mode][:1]) != first:
            problems[mode].append("first test day differs from baseline")
    drift_days = [i for i, d in enumerate(active.drift_decisions) if d.is_drift]
    through = drift_days[0] + 1 if drift_days else len(base.daily_errors)
    if active.daily_errors[:through] != base.daily_errors[:through]:
        problems["active"].append("rows before the first adaptation differ from baseline")
    if base.adaptation_count != 0 or base.drift_decisions:
        problems["baseline"].append("baseline adapted or recorded decisions")
    if passive.adaptation_count != workload.test_days or passive.drift_decisions:
        problems["passive"].append(f"passive adapted {passive.adaptation_count} times "
                                   f"over {workload.test_days} test days")
    if active.adaptation_count != len(drift_days):
        problems["active"].append(f"{active.adaptation_count} adaptations for "
                                  f"{len(drift_days)} drift days")
    if len(active.drift_decisions) != workload.test_days:
        problems["active"].append(f"{len(active.drift_decisions)} decisions for "
                                  f"{workload.test_days} test days")
    if not all(0.0 <= d.p_value < 1.0 for d in active.drift_decisions):
        problems["active"].append("p-value outside [0, 1)")


def _check_golden(reports, expected: dict, rel_tol: float, problems) -> None:
    for mode in MODES:
        want = expected["mean_mape"][mode]
        got = reports[mode].mean_mape
        if not math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0):
            problems[mode].append(f"mean_mape {got!r} is not within {rel_tol} of "
                                  f"the golden {want!r}")
    drift = [d.is_drift for d in reports["active"].drift_decisions]
    if drift != expected["drift"]:
        problems["active"].append(f"drift decisions {drift} != golden {expected['drift']}")


def _check_comparison(files: Files) -> list[str]:
    try:
        comparison = json.loads(_read(files.comparison))
        rows = comparison["rows"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return ["comparison JSON does not load"]
    problems = []
    if [row.get("mode") for row in rows] != list(MODES):
        problems.append(f"comparison rows {[row.get('mode') for row in rows]}")
    elif rows[0]["improvement_mape"] != 0 or rows[0]["improvement_rmse"] != 0:
        problems.append("baseline row shows a nonzero improvement")
    return problems
