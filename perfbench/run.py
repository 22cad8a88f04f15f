"""driftcast benchmark: time the user's journey end to end, or trace it per layer.

    python3 perfbench/run.py --workload long120 --seed 3 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
The seed generates the raw CSV stream (before any clock starts); the program
sees only that CSV and a run config JSON.

--trace 0  repeats set-up and whole journeys (ingest, three runs, compare)
           while another fits in --seconds (at least one journey) and
           reports the end-to-end metrics as medians over the repeats.
--trace 1  runs one journey untraced and one traced, then the layer probes,
           and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Spans, the environment and the full result go to
.perfbench/<workload>-seed<seed>-trace<t>.json. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

# One BLAS thread: the benchmark is a single process on a shared 2-core
# machine, and a fixed thread count keeps runs comparable. main() sets it
# before anything imports numpy.
BLAS_THREADS = 1

# Set-ups timed before the journeys, on top of each journey's own; setup_s is
# their median.
EXTRA_SETUPS = 6


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads, "threads_requested": BLAS_THREADS}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args) -> dict:
    import numpy as np

    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "processes": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(files, workload, seed, seconds, golden):
    """End-to-end pass: medians over repeated set-ups and journeys."""
    from journey import check_ingest, run_journey, setup

    attempted = failed = 0
    problems = []
    setups = []
    begun = perf_counter()
    for _ in range(EXTRA_SETUPS):
        _, call, elapsed = setup(files)
        setups.append(elapsed)
        attempted += 1
        found = check_ingest(files, workload, call)
        failed += bool(found)
        problems += [f"setup ingest: {p}" for p in found]
    journeys = []
    # Start another journey only if one more is expected to end within --seconds.
    while not journeys or (perf_counter() - begun + statistics.median(
            j.wall_s for j in journeys) <= seconds):
        journey = run_journey(files, workload, seed, golden)
        if journeys:  # deterministic timing: repeats must reproduce the reports
            for mode, text in journey.reports.items():
                if text != journeys[0].reports[mode]:
                    journey.failures.setdefault(mode, []).append(
                        "report differs from the first journey's")
        journeys.append(journey)
        setups.append(journey.seconds["setup_s"])
    calls, failures, found = _outcome(journeys)
    attempted, failed, problems = attempted + calls, failed + failures, problems + found
    metrics = {name: statistics.median(j.seconds[name] for j in journeys)
               for name in ("run_s.baseline", "run_s.passive", "run_s.active", "total_s")}
    metrics["setup_s"] = statistics.median(setups)
    mean_mapes = _mean_mapes(journeys[0])
    for mode, value in mean_mapes.items():
        metrics[f"mape.{mode}"] = value
    metrics["peak_rss_mb"] = _peak_rss_mb()
    detail = {"journeys": len(journeys), "setups": setups,
              "journey_seconds": [j.seconds for j in journeys],
              "journey_wall_s": [j.wall_s for j in journeys],
              "mean_mape": mean_mapes, "drift": _drift(journeys[0]),
              "compare_table": journeys[-1].table}
    return metrics, attempted, failed, problems, detail


def _outcome(journeys) -> tuple[int, int, list[str]]:
    """CLI calls attempted, calls failed, and what failed, over some journeys."""
    from journey import CALLS

    problems = [f"{label}: {p}" for j in journeys for label, found in j.failures.items()
                for p in found]
    return len(CALLS) * len(journeys), sum(j.failed for j in journeys), problems


def _mean_mapes(journey) -> dict[str, float]:
    out = {}
    for mode, text in journey.reports.items():
        try:
            out[mode] = json.loads(text)["mean_mape"]
        except (json.JSONDecodeError, KeyError):
            pass
    return out


def _drift(journey) -> list[bool] | None:
    try:
        return [d["is_drift"] for d in json.loads(journey.reports["active"])["drift_decisions"]]
    except (json.JSONDecodeError, KeyError):
        return None


def trace(files, workload, seed, golden):
    """Per-layer pass: one untraced journey as the base, one traced, then probes."""
    from journey import CALLS, fresh_import, run_journey
    from probes import all_probes
    from spans import Tracer, layer_metrics, run_breakdown, tally

    base = run_journey(files, workload, seed, golden)
    tracer = Tracer()
    traced = run_journey(files, workload, seed, golden, tracer=tracer)
    package = fresh_import()
    tracer.install(package)
    tracer.run = "probe"
    probes = all_probes(package)
    tracer.run = None

    metrics = layer_metrics(tracer.spans, CALLS)
    metrics.update(probes)
    base_total = base.seconds["total_s"]
    metrics["trace.base_total_s"] = base_total
    metrics["trace.overhead_frac"] = (traced.seconds["total_s"] - base_total) / base_total
    attempted, failed, problems = _outcome((base, traced))
    detail = {"breakdown": run_breakdown(tracer.spans, CALLS),
              "traced_seconds": traced.seconds, "base_seconds": base.seconds,
              "by_span": tally(tracer.spans),
              "spans": tracer.spans}
    return metrics, attempted, failed, problems, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "driftcast" / "__init__.py").is_file():
        print(f"perfbench: no driftcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from journey import Files, fresh_import
    from workloads import WORKLOADS, generate_stream

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    package = fresh_import()
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: driftcast imported from {package.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    env = environment(args)

    OUT.mkdir(exist_ok=True)
    files = Files(OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}")
    files.work.mkdir()
    try:
        package.ingest.write_load_csv(generate_stream(package.ingest, workload, args.seed),
                                      files.raw)
        files.config.write_text(json.dumps(workload.config, indent=2) + "\n",
                                encoding="utf-8")
        if args.trace:
            metrics, attempted, failed, problems, detail = trace(files, workload,
                                                                 args.seed, golden)
        else:
            metrics, attempted, failed, problems, detail = measure(
                files, workload, args.seed, args.seconds, golden)
    finally:
        shutil.rmtree(files.work, ignore_errors=True)

    units = _units(args.trace)
    missing = sorted(set(units) - set(metrics))
    if missing:  # only when an output was broken, which already counts as failed
        problems.append(f"no value for {missing}; reported as 0")
        metrics.update(dict.fromkeys(missing, 0.0))
    result = {"correct": failed == 0 and not missing, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"environment": env, "result": result, "problems": problems, **detail}
    out_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(detail["compare_table"].rstrip())
        print("journeys: " + ", ".join(f"{j['total_s']:.3f} s CPU / {wall:.3f} s wall"
                                       for j, wall in zip(detail["journey_seconds"],
                                                          detail["journey_wall_s"])))
        metrics["failed_frac"] = failed / attempted
        units = dict(units, failed_frac="ratio")
    else:
        _print_breakdown(detail["breakdown"])
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>14.6g} {unit}")
    print(f"details: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def _units(traced: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def _print_breakdown(breakdown: dict) -> None:
    from spans import LAYERS

    print("self time per layer, as a share of each CLI call:")
    print(f"  {'call':9s} {'call_s':>8s} " + " ".join(f"{l[:6]:>6s}" for l in LAYERS)
          + "  initial adapt detector")
    for run, row in breakdown.items():
        total = row["call_s"] or 1.0
        shares = " ".join(f"{row[f'self_s.{l}'] / total:6.1%}" for l in LAYERS)
        print(f"  {run:9s} {row['call_s']:8.3f} {shares}  {row['initial_s'] / total:6.1%}"
              f" {row['adaptation_s'] / total:6.1%} {row['detector_s'] / total:6.1%}")


if __name__ == "__main__":
    sys.exit(main())
