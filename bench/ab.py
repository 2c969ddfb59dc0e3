"""Interleaved A/B comparison of two revisions on the benchmark.

Usage::

    python3 bench/ab.py BASE HEAD [--workload W ...] [--seed 1]

BASE and HEAD are git revisions.  Each is extracted with ``git archive``
into ``.bench_work/``, and this working tree's ``bench/`` and
``BENCHMARK.json`` are copied over both, so the two sides run identical
benchmark code and settings, at the ``run_seconds`` BENCHMARK.json
sets.  For every workload the script runs 10 pairs of ``bench/run.py``,
one seed per pair, alternating which side goes first (the host drifts
over minutes; alternation spreads the drift over both sides).

Per end-to-end metric it reports each side's median and quartiles,
HEAD's win fraction (ties count for neither side) and a verdict:

``gain``        HEAD won at least 9 in 10 pairs and the medians differ
                by more than BASE's interquartile range;
``unresolved``  the run-to-run spread (IQR / median, the larger side's)
                exceeds the metric's bound, unless every HEAD run beats
                every BASE run;
``regression``  HEAD's median is worse than BASE's by more than the
                metric's bound from BENCHMARK.json;
``no change``   otherwise.

It also reports whether both sides produced the same ``stats_digest``
on every seed, i.e. whether the simulated outcomes are unchanged.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: pairs per workload: the fewest from which a gain may be claimed
PAIRS = 10


def checkout(revision: str, dest: Path) -> Path:
    """``revision``'s tree with this working tree's benchmark on top."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    shutil.rmtree(dest / "bench", ignore_errors=True)
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run_once(tree: Path, workload: str, seed: int) -> Dict:
    """One untraced benchmark run: its metrics and stats digest."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{tree.name} {workload} seed {seed} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    digest = next(line.split()[2] for line in lines
                  if line.startswith(f"{workload} stats_digest "))
    return {"metrics": {name: entry["value"] for name, entry
                        in result["metrics"].items()},
            "digest": digest}


def verdict(base: List[float], head: List[float], better: str,
            bound: float) -> Dict:
    """Compare one metric's paired runs (see the module docstring)."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    b_q1, b_med, b_q3 = statistics.quantiles(base, n=4)
    h_q1, h_med, h_q3 = statistics.quantiles(head, n=4)
    spread = max((b_q3 - b_q1) / b_med, (h_q3 - h_q1) / h_med)
    all_better = (min(head) > max(base)) if sign > 0 \
        else (max(head) < min(base))
    if wins >= 0.9 * len(base) and sign * (h_med - b_med) > b_q3 - b_q1:
        outcome = "gain"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif sign * (b_med - h_med) / b_med > bound:
        outcome = "regression"
    else:
        outcome = "no change"
    return {"base": [b_q1, b_med, b_q3], "head": [h_q1, h_med, h_q3],
            "wins": wins, "pairs": len(base), "spread": spread,
            "change": (h_med - b_med) / b_med, "verdict": outcome}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed+i")
    args = parser.parse_args(argv)

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ab-", dir=scratch))
    try:
        trees = {"base": checkout(args.base, work / "base"),
                 "head": checkout(args.head, work / "head")}
        for workload in args.workload:
            runs: Dict[str, List[Dict]] = {"base": [], "head": []}
            for index in range(PAIRS):
                order = ("base", "head") if index % 2 == 0 \
                    else ("head", "base")
                for side in order:
                    runs[side].append(run_once(
                        trees[side], workload, args.seed + index))
                print(f"{workload}: pair {index + 1}/{PAIRS} done",
                      file=sys.stderr, flush=True)
            same = sum(b["digest"] == h["digest"]
                       for b, h in zip(runs["base"], runs["head"]))
            verdicts = {
                entry["name"]: verdict(
                    [run["metrics"][entry["name"]] for run in runs["base"]],
                    [run["metrics"][entry["name"]] for run in runs["head"]],
                    entry["better"], entry["bound"])
                for entry in spec["end_to_end"]}
            print(f"\n{workload}: simulated outcomes identical on "
                  f"{same}/{PAIRS} seeds")
            print(f"  {'metric':16s} {'base q1/med/q3':>30s} "
                  f"{'head q1/med/q3':>30s} {'wins':>6s} {'change':>8s}"
                  f"  verdict")
            for name, row in verdicts.items():
                base = "/".join(f"{v:.4g}" for v in row["base"])
                head = "/".join(f"{v:.4g}" for v in row["head"])
                print(f"  {name:16s} {base:>30s} {head:>30s} "
                      f"{row['wins']:>3d}/{row['pairs']:<2d} "
                      f"{row['change']:>+8.1%}  {row['verdict']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
