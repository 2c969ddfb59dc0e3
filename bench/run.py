"""Run the repository benchmark and print every metric with its unit.

Usage::

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE.json]

Each workload repeats passes over its fixed list of operations (one
simulation point each) for the whole number of passes that comes
nearest to ``--seconds``, and times every operation on its own, in
nominal seconds (see ``yardstick.py``).  An operation's time is the
median of its samples in the run, and a pass's time is the sum of
those.  Set-ups from a fresh interpreter are spread over the same run;
their median is ``setup_s``.
``--trace 1`` instead runs one untraced pass and then profiled passes,
and reports the per-layer record (see ``layers.py``).  Correctness
checks run after the timed phase; any failure makes the command exit 1.
When several workloads are selected, each runs in its own interpreter
(a re-run of this script), so that per-process figures such as
``peak_rss_mb`` read one workload alone.

The metric names, units and directions are declared in BENCHMARK.json
at the repository root; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  All scratch
state lives in ``.bench_work/`` and is removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("report", "sim-coherent", "sim-private")
#: fresh-interpreter set-ups per run; setup_s is their median
SETUPS = 9


def make_workload(name: str, seed: int, work: Path):
    from workloads import COHERENT_POINTS, PRIVATE_POINTS, Report, SimSet

    if name == "report":
        return Report(seed, work)
    points = COHERENT_POINTS if name == "sim-coherent" else PRIVATE_POINTS
    return SimSet(name, points, seed, work)


def end_to_end(workload, passes: List, setups: List) -> Dict:
    """The end-to-end metrics, and the host-time figures beside them.

    Every operation and set-up is timed in nominal seconds (see
    ``yardstick.py``), and each is charged its median over the run.
    """
    nominal = workload.yardstick.nominal

    def pass_s(seconds) -> float:
        return sum(statistics.median(seconds(p.op_s[op]) for p in passes)
                   for op in passes[0].op_s)

    nominal_pass_s = pass_s(lambda op: nominal(*op))
    metrics = {
        "pass_s": nominal_pass_s,
        "setup_s": statistics.median(nominal(*s) for s in setups),
        "sim_kips": passes[0].instructions / nominal_pass_s / 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    return metrics, {
        "host_pass_s": pass_s(lambda op: op[0]),
        "host_setup_s": statistics.median(s[0] for s in setups),
        "yardstick_s": statistics.median(workload.yardstick.samples),
        "yardstick_samples": len(workload.yardstick.samples),
        "passes": len(passes)}


def per_layer(workload, base, passes: List, failures: List[str]) -> Dict:
    from layers import LAYERS, TIMED_LAYERS, Folder, profiled_total

    folded = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    total = 0.0
    for traced in passes:
        total += profiled_total(traced.profile)
        for layer, record in Folder(traced.profile,
                                    SRC / "repro").fold().items():
            folded[layer]["self_s"] += record["self_s"]
            folded[layer]["calls"] += record["calls"]
    attributed = sum(record["self_s"] for record in folded.values())
    if abs(attributed - total) > 0.05 * total:
        failures.append(f"layer self times sum to {attributed:.3f} s of "
                        f"{total:.3f} s profiled")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = folded[layer]["self_s"] / attributed
        metrics[f"{layer}.calls"] = folded[layer]["calls"] / len(passes)
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = folded[layer]["self_s"] / len(passes)
    metrics["trace_overhead"] = statistics.median(
        p.wall_s for p in passes) / base.wall_s
    metrics.update(workload.layer_counts())
    return metrics, {}


def measure(name: str, seed: int, seconds: float, traced: bool,
            declared: Dict[str, str], work: Path) -> Dict:
    """Run one workload; returns its full record.

    ``attempted`` counts every operation of every pass plus every
    check; ``failed`` counts failed checks (an operation that fails
    raises, which fails the run).
    """
    record = {"workload": name, "metrics": {}, "diagnostics": {},
              "stats_digest": "", "pass_wall_s": [], "setup_s": []}
    failures: List[str] = []
    operations = checks = 0
    try:
        workload = make_workload(name, seed, work)
        yardstick = workload.yardstick
        setups: List[Tuple[float, int, int]] = []
        begun = time.perf_counter()

        def spent() -> float:
            return time.perf_counter() - begun

        def set_up(due: float) -> None:
            # set-ups are spread over the run, so that a slow burst of
            # the host reaches only some of them
            while not traced and len(setups) < due:
                mark = yardstick.mark()
                setups.append((workload.cold_start(), mark, mark))
                yardstick.sample()

        base = workload.run_pass(traced=False) if traced else None
        passes = []
        # stop at the whole number of passes nearest to ``seconds``: a
        # pass a little shorter than ``seconds`` must not double the run
        while not passes or spent() + passes[-1].wall_s / 2 < seconds:
            set_up(SETUPS * spent() / seconds)
            passes.append(workload.run_pass(traced))
        yardstick.sample()          # the one after the last operation
        set_up(SETUPS)
        everything = passes + ([base] if base else [])
        operations = sum(len(p.op_s) for p in everything)
        checks, check_failures = workload.check()
        failures.extend(check_failures)
        checks += 1
        if len({p.digest for p in everything}) != 1:
            failures.append("passes simulated different RunStats")
        if traced:
            checks += 1
            values, diagnostics = per_layer(workload, base, passes,
                                            failures)
        else:
            values, diagnostics = end_to_end(workload, passes, setups)
        if set(values) != set(declared):
            raise KeyError(f"computed metrics {sorted(values)} differ "
                           f"from BENCHMARK.json {sorted(declared)}")
        record["metrics"] = {metric: {"value": values[metric],
                                      "unit": declared[metric]}
                             for metric in declared}
        for key in passes[-1].extra:
            diagnostics[key] = statistics.median(p.extra[key]
                                                 for p in passes)
        record["diagnostics"] = diagnostics
        record["stats_digest"] = passes[-1].digest
        record["pass_wall_s"] = [p.wall_s for p in passes]
        record["setup_s"] = setups
    except Exception:
        traceback.print_exc()
        failures.append(traceback.format_exc(limit=1).strip())
        checks += 1
    record["failures"] = failures
    record["attempted"] = operations + checks
    record["failed"] = len(failures)
    record["correct"] = record["failed"] == 0
    return record


def print_record(record: Dict) -> None:
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    for key, value in record["diagnostics"].items():
        print(f"{name} {key} {value!r}")
    print(f"{name} stats_digest {record['stats_digest']} sha256")
    for failure in record["failures"]:
        print(f"{name} FAILED {failure}", file=sys.stderr)


def isolated(name: str, args, scratch: Path) -> Dict:
    """Measure one workload in a fresh interpreter and return its record.

    Resident-memory high-water marks are per process, so each workload
    gets its own: ``peak_rss_mb`` then reads that workload alone.
    """
    out = scratch / f"{name}-{os.getpid()}.json"
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)],
        stdout=subprocess.PIPE, text=True)
    # echo its lines but the last, which summarises that one workload
    sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
    try:
        return json.loads(out.read_text())["records"][0]
    except (OSError, ValueError, LookupError):
        message = f"exited with {proc.returncode} and left no record"
        print(f"{name} FAILED {message}", file=sys.stderr)
        return {"workload": name, "metrics": {}, "attempted": 1,
                "failed": 1, "correct": False, "failures": [message]}
    finally:
        out.unlink(missing_ok=True)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="pass time to measure per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="profile passes and report the per-layer "
                             "record instead of the end-to-end metrics")
    parser.add_argument("--out", help="also write every record here")
    args = parser.parse_args(argv)

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    if len(args.workload) > 1:
        records = [isolated(name, args, scratch) for name in args.workload]
    else:
        sys.path.insert(0, str(SRC))
        # Set before repro (and numpy) is imported; subprocesses inherit
        # it.  A fixed commit stamp keeps the results-db provenance from
        # shelling out to git (the checkout need not be a repository).
        # The simulator is single-threaded: BLAS worker threads would
        # only add start-up work.
        os.environ["REPRO_GIT_COMMIT"] = "bench"
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        group = "per_layer" if args.trace else "end_to_end"
        declared = {entry["name"]: entry["unit"] for entry in spec[group]}
        name = args.workload[0]
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
        try:
            record = measure(name, args.seed, args.seconds,
                             bool(args.trace), declared, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print_record(record)
        records = [record]

    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "records": records},
                      handle, indent=2)
    try:
        scratch.rmdir()
    except OSError:
        pass        # still holds a record file or another run's state
    single = len(records) == 1
    summary = {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            (metric if single else f"{record['workload']}/{metric}"): entry
            for record in records
            for metric, entry in record["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
