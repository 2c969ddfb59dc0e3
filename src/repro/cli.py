"""Command-line interface for the G-TSC reproduction.

Subcommands::

    gtsc-repro list                       # workloads and experiments
    gtsc-repro simulate BFS --protocol gtsc --consistency rc
    gtsc-repro trace BFS --out bfs.trace.json   # Perfetto trace + audit
    gtsc-repro profile BFS KM --jobs 2    # matrix sweep w/ heartbeats
    gtsc-repro run fig12 [fig15 ...]      # regenerate figures
    gtsc-repro run --all
    gtsc-repro report --output EXPERIMENTS.md
    gtsc-repro serve --port 8642          # long-lived experiment service
    gtsc-repro serve --jobs 0             # pure dispatcher for a fleet
    gtsc-repro serve worker --connect 127.0.0.1:8642   # fleet worker
    gtsc-repro submit BFS --port 8642     # run one point via the service
    gtsc-repro jobs --port 8642           # inspect the service queue
    gtsc-repro jobs --metrics-text        # Prometheus text exposition
    gtsc-repro db query --workload BFS    # list provenance-stamped runs
    gtsc-repro db report -o report.html   # HTML report from queries

(Installed as ``gtsc-repro``; also runnable as ``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import make_gpu
from repro.harness.report import EXPECTATIONS, build_report
from repro.harness.runner import ExperimentRunner
from repro.harness.tables import format_result
from repro.validate import check_gtsc_log
from repro.workloads import ALL_NAMES, MULTIGPU_NAMES, \
    WORKLOADS, build_workload

EXPERIMENT_FNS = {e.experiment_id: e.fn for e in EXPECTATIONS}


DEFAULT_DB_PATH = "results/repro.db"


def _add_db_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", default=DEFAULT_DB_PATH, metavar="PATH",
                        help="sqlite results database: records every "
                             "finished run with provenance and answers "
                             "repeat runs without simulating "
                             f"(default: {DEFAULT_DB_PATH})")
    parser.add_argument("--no-db", action="store_true",
                        help="neither read nor record results in a "
                             "database")


def _results_db(args: argparse.Namespace):
    """The results database ``--db`` names, opened (``None`` under
    ``--no-db``); a file sqlite cannot use ends the command with one
    line instead of a traceback."""
    if getattr(args, "no_db", False) or getattr(args, "db", None) is None:
        return None
    import sqlite3

    from repro.db.store import ResultsDB

    try:
        return ResultsDB(args.db)
    except sqlite3.DatabaseError as error:
        raise SystemExit(
            f"cannot use {args.db} as a results database ({error}) — "
            f"point --db at another file ('run', 'report', 'sweep', "
            f"'profile' and 'serve' also take --no-db)") from None


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="small",
                        choices=["tiny", "small", "paper"],
                        help="machine preset (default: small)")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload scale factor (default: 0.5)")
    parser.add_argument("--seed", type=int, default=2018,
                        help="workload seed (default: 2018)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="simulate independent points over N worker "
                             "processes (default: 1, in-process)")
    _add_db_args(parser)
    parser.add_argument("--progress", action="store_true",
                        help="print live heartbeat lines to stderr "
                             "while a batch simulates")


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    db = _results_db(args)
    progress = getattr(args, "progress", False)
    if args.jobs > 1:
        from repro.harness.parallel import ParallelRunner
        return ParallelRunner(jobs=args.jobs, preset=args.preset,
                              scale=args.scale, seed=args.seed,
                              progress=progress, db=db)
    return ExperimentRunner(preset=args.preset, scale=args.scale,
                            seed=args.seed, progress=progress, db=db)


def cmd_list(_args: argparse.Namespace) -> int:
    print("workloads:")
    for name in ALL_NAMES + MULTIGPU_NAMES:
        spec = WORKLOADS[name]
        tag = ("multigpu" if spec.multigpu
               else "coherent" if spec.requires_coherence else "no-coh  ")
        print(f"  {name:4s} [{tag}] {spec.description}")
    print("\nexperiments:")
    for expectation in EXPECTATIONS:
        print(f"  {expectation.experiment_id:20s} {expectation.title}")
    return 0


def _spec_of(args: argparse.Namespace) -> dict:
    """The canonical request spec the CLI args describe."""
    from repro.serve import schema as serve_schema

    overrides = {"lease": args.lease}
    for token in getattr(args, "set", None) or []:
        name, _, raw = token.partition("=")
        if not _:
            raise SystemExit(f"--set expects NAME=VALUE, got {token!r}")
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        overrides[name] = value
    try:
        return serve_schema.make_spec(
            args.workload, protocol=args.protocol,
            consistency=args.consistency, preset=args.preset,
            scale=args.scale, seed=args.seed, overrides=overrides)
    except serve_schema.SpecError as error:
        raise SystemExit(str(error))


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.serve import schema as serve_schema

    spec = _spec_of(args)
    config = serve_schema.spec_config(spec)
    kernel = build_workload(args.workload, scale=args.scale,
                            seed=args.seed)
    gpu = make_gpu(config, record_accesses=args.check)
    stats = gpu.run(kernel)
    if args.json:
        # the same versioned envelope the serve protocol answers with,
        # so one consumer handles local and service results alike
        import json
        envelope = serve_schema.result_envelope(
            spec, stats, key=serve_schema.spec_key(spec))
        print(json.dumps(envelope, indent=2, sort_keys=True))
        return 0
    print(f"machine: {config.describe()}")
    print(f"kernel:  {kernel.name}, {kernel.num_warps} warps, "
          f"{kernel.total_instructions} instructions\n")
    print(stats.summary())
    if args.check and config.protocol is Protocol.GTSC:
        checked = check_gtsc_log(gpu.machine.log, gpu.machine.versions)
        print(f"\ncoherence: {checked} loads verified against "
              f"timestamp order")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.obs import Observability, replay_audit, \
        validate_chrome_trace
    from repro.validate import CoherenceViolation

    from repro.serve import schema as serve_schema

    spec = _spec_of(args)
    config = serve_schema.spec_config(spec)
    kernel = build_workload(args.workload, scale=args.scale,
                            seed=args.seed)
    obs = Observability.full(interval=args.interval,
                             trace_engine=args.trace_engine)
    gpu = make_gpu(config, record_accesses=True, obs=obs)
    stats = gpu.run(kernel)

    out = args.out or f"{args.workload}.trace.json"
    trace = obs.tracer.to_chrome()
    events = validate_chrome_trace(trace)
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(trace, handle)
    print(f"machine: {config.describe()}")
    print(f"kernel:  {kernel.name}, {stats.cycles} cycles, "
          f"{stats.counter('instructions')} instructions")
    print(f"trace:   {out} ({events} events; open in Perfetto or "
          f"chrome://tracing)")
    if args.jsonl:
        obs.tracer.write_jsonl(args.jsonl)
        print(f"jsonl:   {args.jsonl}")
    if args.audit_jsonl:
        obs.audit.write_jsonl(args.audit_jsonl)
        print(f"audit:   {args.audit_jsonl}")

    try:
        home_capacity = (config.home_ts_entries
                         if config.n_gpus > 1 else None)
        replayed = replay_audit(obs.audit.records, lease=config.lease,
                                home_capacity=home_capacity)
    except CoherenceViolation as violation:
        print(f"audit:   FAILED: {violation}", file=sys.stderr)
        return 1
    mix = ", ".join(f"{kind}={count}" for kind, count
                    in sorted(obs.audit.counts().items()))
    print(f"audit:   {replayed} transition(s) replayed, "
          f"0 violations ({mix})")
    if config.protocol is Protocol.GTSC:
        loads = check_gtsc_log(gpu.machine.log, gpu.machine.versions)
        print(f"loads:   {loads} verified against timestamp order")
    samples = len(obs.metrics.samples)
    print(f"metrics: {samples} sample(s) at interval "
          f"{obs.metrics.interval}")
    return 0


#: where simulation time actually goes: the event loop itself, the
#: packed scheduler scan, the cache array, and the G-TSC L1 and L2
#: controllers (the L1 hit probe is inlined in ``GTSCL1Controller.load``).
#: ``--cprofile`` prints a focused self-time table restricted to these
#: files after the overall cumulative view, so the named hot symbols
#: (``Engine.run`` / ``Engine.post`` / ``SM._issue`` / ``ready_mask`` /
#: ``GTSCL1Controller.load`` / ``GTSCL2Bank._read``) are readable
#: without scrolling past harness frames.
_HOT_MODULES = (r"repro/(sim/engine|gpu/sm|gpu/warp|mem/cache"
                r"|core/l1|core/l2)\.py")


def _cprofile_run(args: argparse.Namespace, workload: str) -> int:
    """Profile one simulation under cProfile and print the hotspots.

    Runs the paper's headline configuration (G-TSC under RC) for the
    given workload with the requested preset/scale/seed, then prints
    the top 25 functions by cumulative time plus a self-time table
    restricted to the simulator's hot modules — so perf work on the
    simulator measures instead of guessing.
    """
    import cProfile
    import pstats

    config_factory = getattr(GPUConfig, args.preset)
    config = config_factory(protocol=Protocol.GTSC,
                            consistency=Consistency.RC)
    kernel = build_workload(workload, scale=args.scale, seed=args.seed)
    gpu = make_gpu(config, record_accesses=False)
    profiler = cProfile.Profile()
    profiler.enable()
    stats = gpu.run(kernel)
    profiler.disable()
    print(f"cProfile: {workload} gtsc-rc on {config.describe()} "
          f"({stats.cycles} cycles simulated)\n")
    profile = pstats.Stats(profiler, stream=sys.stdout)
    profile.sort_stats("cumulative").print_stats(25)
    print("simulator hot modules by self time "
          "(engine event loop, scheduler scan, caches, G-TSC L1/L2):")
    profile.sort_stats("tottime").print_stats(_HOT_MODULES, 15)
    # the engine's own instrumentation: how events were dispatched
    counters = gpu.machine.engine.counters()
    print("engine hot loop:")
    for name in sorted(counters):
        print(f"  {name:28s} {counters[name]:>12d}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import time

    unknown = [w for w in args.workloads
               if w not in ALL_NAMES + MULTIGPU_NAMES]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    workloads = args.workloads or [
        name for name in ALL_NAMES
        if WORKLOADS[name].requires_coherence
    ]
    if args.cprofile:
        return _cprofile_run(args, workloads[0])
    runner = _make_runner(args)
    runner.progress = True  # profiling without a pulse is pointless
    points = ExperimentRunner.matrix_points(workloads,
                                            baseline=args.baseline)
    started = time.monotonic()
    runner.prefetch(points)
    elapsed = time.monotonic() - started
    print(f"\n{'point':40s} {'cycles':>10s}")
    for point in points:
        workload, protocol, consistency, overrides = point
        stats = runner.run(workload, protocol, consistency,
                           **dict(overrides))
        label = ExperimentRunner._describe_point(point)
        print(f"{label:40s} {stats.cycles:>10d}")
    print(f"\n{len(points)} point(s) in {elapsed:.1f}s "
          f"({runner.simulations_run} simulated, "
          f"{len(points) - runner.simulations_run} from cache)")
    if runner.engine_counters:
        # how much of the event stream was cancelled work
        totals = runner.engine_counters
        scheduled = totals.get("engine_events_scheduled", 0) or 1
        print("\nengine hot loop (summed over fresh simulations):")
        for name in sorted(totals):
            print(f"  {name:28s} {totals[name]:>12d}")
        print(f"  {'cancel ratio':28s} "
              f"{totals.get('engine_cancelled', 0) / scheduled:>11.1%}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    names: List[str] = (list(EXPERIMENT_FNS) if args.all
                        else args.experiments)
    if not names:
        print("no experiments given (use names or --all)",
              file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in EXPERIMENT_FNS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}",
              file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENT_FNS)}", file=sys.stderr)
        return 2
    runner = _make_runner(args)
    for name in names:
        result = EXPERIMENT_FNS[name](runner)
        if args.chart:
            from repro.harness.charts import render_chart
            try:
                print(render_chart(result))
            except ValueError:
                print(format_result(result))
        else:
            print(format_result(result))
        print()
    return 0


def cmd_multigpu(args: argparse.Namespace) -> int:
    from repro.harness.experiments import multigpu as multigpu_exp

    counts = sorted(set(args.gpus))
    if any(count < 1 for count in counts):
        print("GPU counts must be >= 1", file=sys.stderr)
        return 2
    runner = _make_runner(args)
    result = multigpu_exp(runner, gpu_counts=counts,
                          workloads=args.workload or None)
    print(format_result(result))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.sweeps import sweep

    values: List = []
    for token in args.values:
        try:
            values.append(int(token))
        except ValueError:
            print(f"sweep values must be integers, got {token!r}",
                  file=sys.stderr)
            return 2
    runner = _make_runner(args)
    try:
        series = sweep(
            runner,
            workloads=args.workload,
            parameter=args.parameter,
            values=values,
            protocol=Protocol(args.protocol),
            consistency=Consistency(args.consistency),
            metric=args.metric,
        )
    except (KeyError, TypeError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(series.table())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    text = build_report(runner)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    return 0


DEFAULT_SERVE_PORT = 8642


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import Scheduler, ServeServer

    scheduler = Scheduler(
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        retry_after=args.retry_after,
        db=_results_db(args),
        timeout=args.job_timeout,
        max_attempts=args.max_attempts,
        lease_duration=args.lease_duration,
    )
    server = ServeServer(scheduler, host=args.host, port=args.port,
                         drain_timeout=args.drain_timeout)
    try:
        asyncio.run(server.serve_forever())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_serve_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.serve import FleetWorker, ServeClient

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"--connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    client = ServeClient(host=host, port=int(port),
                         timeout=args.timeout, retries=args.retries)
    worker = FleetWorker(
        client, name=args.name,
        timeout=args.job_timeout,
        lease_duration=args.lease_duration,
        poll_interval=args.poll_interval,
        max_jobs=args.max_jobs,
        idle_exit=args.idle_exit,
        drain_exit=not args.reconnect,
    )
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: worker.stop())
        except (ValueError, OSError):  # pragma: no cover
            pass                       # non-main thread / platform
    worker.run()
    return 0


def _client_of(args: argparse.Namespace):
    from repro.serve import ServeClient
    return ServeClient(host=args.host, port=args.port,
                       timeout=args.timeout, retries=args.retries)


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeError, ServeUnavailable
    from repro.stats.collector import RunStats

    spec = _spec_of(args)
    client = _client_of(args)
    try:
        reply = client.submit(spec, wait=not args.no_wait)
    except (ServeError, ServeUnavailable) as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    if reply.get("kind") == "accepted":
        print(f"accepted: job {reply['job_id']} "
              f"(cached={reply['cached']}, "
              f"coalesced={reply['coalesced']})")
        return 0
    stats = RunStats.from_dict(reply["stats"])
    how = ("cache" if reply["cached"]
           else "coalesced" if reply["coalesced"] else "simulated")
    print(f"result via {how} (job {reply.get('job_id', '-')}, "
          f"key {reply['key'][:12]}…)")
    print(stats.summary())
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeError, ServeUnavailable

    client = _client_of(args)
    try:
        if args.metrics_text:
            print(client.metrics(format="prometheus")["text"], end="")
            return 0
        reply = client.jobs()
    except (ServeError, ServeUnavailable) as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    counts = reply["counts"]
    print("  ".join(f"{state}={counts[state]}"
                    for state in ("pending", "leased", "done",
                                  "failed")))
    for name, summary in sorted(reply.get("latency", {}).items()):
        print(f"{name}: n={summary['count']} "
              f"mean={summary['mean_ms']:.1f}ms "
              f"p50<={summary['p50_ms']}ms "
              f"p95<={summary['p95_ms']}ms "
              f"p99<={summary['p99_ms']}ms")
    for job in reply["jobs"]:
        spec = job["spec"]
        label = (f"{spec['workload']} {spec['protocol']}-"
                 f"{spec['consistency']} scale={spec['scale']}")
        extra = f" attempts={job['attempts']}" if job["attempts"] else ""
        error = f" error={job['error']}" if job["error"] else ""
        print(f"{job['id']}  {job['state']:8s} {label}{extra}{error}")
    return 0


def _open_db(args: argparse.Namespace):
    """Open an existing results database for a read-side verb."""
    import os

    if not os.path.exists(args.db):
        raise SystemExit(
            f"no results database at {args.db} — 'run', 'report', "
            f"'sweep', 'profile' and 'serve' write it (see their --db)")
    return _results_db(args)


def cmd_db_query(args: argparse.Namespace) -> int:
    import json

    db = _open_db(args)
    if args.summary:
        print(json.dumps(db.summary(), indent=2, sort_keys=True))
        return 0
    rows = db.runs(workload=args.workload, protocol=args.protocol,
                   consistency=args.consistency, commit=args.commit,
                   preset=args.preset_filter, status=args.status,
                   source=args.source, limit=args.limit)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if not rows:
        print("no matching runs")
        return 0
    print(f"{'run key':14s} {'benchmark':9s} {'config':14s} "
          f"{'preset':6s} {'gpus':>4s} {'cycles':>10s} {'source':12s} "
          f"{'commit':10s} {'wall s':>8s}")
    for row in rows:
        config = (f"{row['protocol']}-{row['consistency']}"
                  if row["protocol"] else "-")
        wall = (f"{row['wall_time_s']:.2f}"
                if row["wall_time_s"] is not None else "-")
        print(f"{row['run_key'][:12]:14s} "
              f"{(row['workload'] or '-'):9s} {config:14s} "
              f"{(row['preset'] or '-'):6s} "
              f"{row.get('n_gpus', 1):>4d} {row['cycles']:>10d} "
              f"{(row['source'] or '-'):12s} "
              f"{row['git_commit'][:8]:10s} {wall:>8s}")
    print(f"\n{len(rows)} run(s) shown of {db.count()} in {args.db}")
    return 0


def cmd_db_report(args: argparse.Namespace) -> int:
    from repro.db.report import render_report, write_report

    db = _open_db(args)
    if args.output == "-":
        print(render_report(db, title=args.title, commit=args.commit))
        return 0
    path = write_report(db, args.output, title=args.title,
                        commit=args.commit)
    print(f"wrote {path} ({db.count()} run(s) from {args.db})")
    return 0


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="server address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int,
                        default=DEFAULT_SERVE_PORT,
                        help=f"server port "
                             f"(default: {DEFAULT_SERVE_PORT})")


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    _add_endpoint_args(parser)
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-request socket timeout in seconds "
                             "(default: 120)")
    parser.add_argument("--retries", type=int, default=5,
                        help="attempts before giving up on transient "
                             "failures (default: 5)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtsc-repro",
        description="Reproduction of G-TSC (HPCA 2018): simulate, "
                    "regenerate figures, build reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list workloads and experiments")
    p_list.set_defaults(fn=cmd_list)

    p_sim = sub.add_parser("simulate", help="simulate one workload")
    p_sim.add_argument("workload", choices=ALL_NAMES + MULTIGPU_NAMES)
    p_sim.add_argument("--protocol", default="gtsc",
                       choices=[p.value for p in Protocol])
    p_sim.add_argument("--consistency", default="rc",
                       choices=[c.value for c in Consistency])
    p_sim.add_argument("--lease", type=int, default=10)
    p_sim.add_argument("--check", action="store_true",
                       help="record accesses and verify coherence")
    p_sim.add_argument("--json", action="store_true",
                       help="emit the versioned result envelope "
                            "(same schema as 'submit --json')")
    p_sim.add_argument("--set", action="append", metavar="NAME=VALUE",
                       help="extra GPUConfig override; repeatable")
    _add_runner_args(p_sim)
    p_sim.set_defaults(fn=cmd_simulate)

    p_trace = sub.add_parser(
        "trace",
        help="simulate one workload with full observability on")
    p_trace.add_argument("workload", choices=ALL_NAMES + MULTIGPU_NAMES)
    p_trace.add_argument("--protocol", default="gtsc",
                         choices=[p.value for p in Protocol])
    p_trace.add_argument("--consistency", default="rc",
                         choices=[c.value for c in Consistency])
    p_trace.add_argument("--lease", type=int, default=10)
    p_trace.add_argument("--preset", default="tiny",
                         choices=["tiny", "small", "paper"],
                         help="machine preset (default: tiny — traces "
                              "buffer every event in memory)")
    p_trace.add_argument("--scale", type=float, default=0.3,
                         help="workload scale factor (default: 0.3)")
    p_trace.add_argument("--seed", type=int, default=2018)
    p_trace.add_argument("--out", metavar="PATH",
                         help="Chrome-trace output path "
                              "(default: <workload>.trace.json)")
    p_trace.add_argument("--jsonl", metavar="PATH",
                         help="also write the raw event stream as JSONL")
    p_trace.add_argument("--audit-jsonl", metavar="PATH",
                         help="also write the protocol audit log "
                              "as JSONL")
    p_trace.add_argument("--set", action="append", metavar="NAME=VALUE",
                         help="extra GPUConfig override (e.g. "
                              "n_gpus=2); repeatable")
    p_trace.add_argument("--interval", type=int, default=500,
                         help="metrics sampling interval in cycles "
                              "(default: 500)")
    p_trace.add_argument("--trace-engine", action="store_true",
                         help="also trace raw engine event dispatch "
                              "(verbose)")
    p_trace.set_defaults(fn=cmd_trace)

    p_prof = sub.add_parser(
        "profile",
        help="run the protocol matrix over workloads with live "
             "progress and timing/cache summaries")
    p_prof.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="benchmarks (default: every coherent one)")
    p_prof.add_argument("--baseline", action="store_true",
                        help="include the no-L1 baseline point")
    p_prof.add_argument("--cprofile", action="store_true",
                        help="instead of the matrix sweep, run the "
                             "first workload once (G-TSC, RC) under "
                             "cProfile and print the top-25 "
                             "cumulative hotspots")
    _add_runner_args(p_prof)
    p_prof.set_defaults(fn=cmd_profile)

    p_run = sub.add_parser("run", help="regenerate tables/figures")
    p_run.add_argument("experiments", nargs="*",
                       help="experiment ids (see 'list')")
    p_run.add_argument("--all", action="store_true",
                       help="run every experiment")
    p_run.add_argument("--chart", action="store_true",
                       help="render results as ASCII bar charts")
    _add_runner_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_mg = sub.add_parser(
        "multigpu",
        help="compare G-TSC vs TC vs MESI across GPU counts on the "
             "inter-GPU sharing workloads")
    p_mg.add_argument("--gpus", type=int, nargs="+",
                      default=[1, 2, 4, 8], metavar="N",
                      help="GPU counts to compare (default: 1 2 4 8)")
    p_mg.add_argument("--workload", action="append",
                      choices=MULTIGPU_NAMES,
                      help="restrict to specific inter-GPU "
                           "workload(s); repeatable (default: all)")
    _add_runner_args(p_mg)
    p_mg.set_defaults(fn=cmd_multigpu)

    p_sweep = sub.add_parser(
        "sweep", help="sweep one config parameter across values")
    p_sweep.add_argument("parameter",
                         help="GPUConfig field, e.g. lease, l1_size")
    p_sweep.add_argument("values", nargs="+",
                         help="integer values to sweep")
    p_sweep.add_argument("--workload", action="append", required=True,
                         choices=ALL_NAMES + MULTIGPU_NAMES,
                         help="benchmark(s); repeatable")
    p_sweep.add_argument("--protocol", default="gtsc",
                         choices=[p.value for p in Protocol])
    p_sweep.add_argument("--consistency", default="rc",
                         choices=[c.value for c in Consistency])
    p_sweep.add_argument("--metric", default="cycles",
                         help="cycles | noc_bytes | l1_hit_rate | "
                              "stall_mem_cycles | energy | dram_reads")
    _add_runner_args(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_rep = sub.add_parser("report",
                           help="write the paper-vs-measured report")
    p_rep.add_argument("--output", default="EXPERIMENTS.md",
                       help="output path, or '-' for stdout")
    _add_runner_args(p_rep)
    p_rep.set_defaults(fn=cmd_report)

    p_serve = sub.add_parser(
        "serve",
        help="run the experiment service (a job queue in the results "
             "database, in memory under --no-db; dedup; shared result "
             "store) until SIGTERM; 'serve worker' joins a remote "
             "fleet instead")
    _add_endpoint_args(p_serve)
    p_serve.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="in-process fleet workers, each "
                              "running the 'serve worker' loop on a "
                              "thread; 0 makes this a pure dispatcher "
                              "for remote 'serve worker' processes "
                              "(default: 1)")
    p_serve.add_argument("--queue-limit", type=int, default=64,
                         help="max queued+running jobs before submits "
                              "get a retry-after refusal (default: 64)")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         metavar="S",
                         help="per-job execution timeout in seconds "
                              "(default: none)")
    p_serve.add_argument("--max-attempts", type=int, default=3,
                         help="lease grants per job before terminal "
                              "failure + quarantine (default: 3)")
    p_serve.add_argument("--lease-duration", type=float, default=300.0,
                         metavar="S",
                         help="seconds a worker may hold a job before "
                              "it is requeued (default: 300)")
    _add_db_args(p_serve)
    p_serve.add_argument("--retry-after", type=float, default=1.0,
                         metavar="S",
                         help="retry-after hint sent with busy/"
                              "draining refusals (default: 1)")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="S",
                         help="max seconds SIGTERM waits for in-"
                              "flight results (default: 30)")
    p_serve.set_defaults(fn=cmd_serve)

    serve_sub = p_serve.add_subparsers(dest="serve_command",
                                       metavar="worker")
    p_worker = serve_sub.add_parser(
        "worker",
        help="lease and execute jobs from a remote dispatcher")
    p_worker.add_argument("--connect", required=True,
                          metavar="HOST:PORT",
                          help="dispatcher endpoint to lease from")
    p_worker.add_argument("--name", default=None,
                          help="lease identity "
                               "(default: <hostname>-<pid>)")
    p_worker.add_argument("--poll-interval", type=float, default=0.5,
                          metavar="S",
                          help="sleep between empty-queue polls "
                               "(default: 0.5)")
    p_worker.add_argument("--lease-duration", type=float,
                          default=None, metavar="S",
                          help="requested lease length (default: the "
                               "dispatcher's --lease-duration)")
    p_worker.add_argument("--job-timeout", type=float, default=None,
                          metavar="S",
                          help="per-job execution timeout "
                               "(default: none)")
    p_worker.add_argument("--max-jobs", type=int, default=None,
                          metavar="N",
                          help="exit after N jobs (default: run "
                               "until SIGTERM)")
    p_worker.add_argument("--idle-exit", type=float, default=None,
                          metavar="S",
                          help="exit after S seconds with an empty "
                               "queue (default: keep polling)")
    p_worker.add_argument("--reconnect", action="store_true",
                          help="keep polling when the dispatcher is "
                               "draining or unreachable instead of "
                               "exiting")
    p_worker.add_argument("--timeout", type=float, default=120.0,
                          help="per-request socket timeout in "
                               "seconds (default: 120)")
    p_worker.add_argument("--retries", type=int, default=5,
                          help="attempts before a request is "
                               "declared failed (default: 5)")
    p_worker.set_defaults(fn=cmd_serve_worker)

    p_sub = sub.add_parser(
        "submit",
        help="submit one simulation point to a running service")
    p_sub.add_argument("workload", choices=ALL_NAMES + MULTIGPU_NAMES)
    p_sub.add_argument("--protocol", default="gtsc",
                       choices=[p.value for p in Protocol])
    p_sub.add_argument("--consistency", default="rc",
                       choices=[c.value for c in Consistency])
    p_sub.add_argument("--lease", type=int, default=10)
    p_sub.add_argument("--preset", default="small",
                       choices=["tiny", "small", "paper"])
    p_sub.add_argument("--scale", type=float, default=0.5)
    p_sub.add_argument("--seed", type=int, default=2018)
    p_sub.add_argument("--set", action="append", metavar="NAME=VALUE",
                       help="extra GPUConfig override; repeatable")
    p_sub.add_argument("--no-wait", action="store_true",
                       help="enqueue and return the job id instead of "
                            "waiting for the result")
    p_sub.add_argument("--json", action="store_true",
                       help="emit the versioned result envelope")
    _add_client_args(p_sub)
    p_sub.set_defaults(fn=cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list the service's job queue and state counts")
    p_jobs.add_argument("--json", action="store_true",
                        help="emit the raw reply")
    p_jobs.add_argument("--metrics-text", action="store_true",
                        help="print the service metrics in Prometheus "
                             "text-exposition format instead")
    _add_client_args(p_jobs)
    p_jobs.set_defaults(fn=cmd_jobs)

    p_db = sub.add_parser(
        "db", help="query the provenance-stamped results database")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)

    p_query = db_sub.add_parser(
        "query", help="list recorded runs, newest first")
    p_query.add_argument("--db", default=DEFAULT_DB_PATH,
                         metavar="PATH",
                         help=f"database path "
                              f"(default: {DEFAULT_DB_PATH})")
    p_query.add_argument("--workload", choices=ALL_NAMES + MULTIGPU_NAMES)
    p_query.add_argument("--protocol",
                         choices=[p.value for p in Protocol])
    p_query.add_argument("--consistency",
                         choices=[c.value for c in Consistency])
    p_query.add_argument("--commit", metavar="PREFIX",
                         help="filter by git-commit prefix")
    p_query.add_argument("--preset", dest="preset_filter",
                         choices=["tiny", "small", "paper"])
    p_query.add_argument("--status",
                         help="filter by run status (e.g. done)")
    p_query.add_argument("--source",
                         help="filter by producer (runner, "
                              "runner-pool, runner-cache, serve)")
    p_query.add_argument("--limit", type=int, default=50,
                         help="max rows to list (default: 50)")
    p_query.add_argument("--summary", action="store_true",
                         help="print the fleet summary instead of "
                              "rows")
    p_query.add_argument("--json", action="store_true",
                         help="emit rows as JSON")
    p_query.set_defaults(fn=cmd_db_query)

    p_dbrep = db_sub.add_parser(
        "report", help="render the HTML report from database queries "
                       "alone (no simulation)")
    p_dbrep.add_argument("--db", default=DEFAULT_DB_PATH,
                         metavar="PATH",
                         help=f"database path "
                              f"(default: {DEFAULT_DB_PATH})")
    p_dbrep.add_argument("--output", default="results/report.html",
                         help="output path, or '-' for stdout "
                              "(default: results/report.html)")
    p_dbrep.add_argument("--title", default="G-TSC results",
                         help="report title")
    p_dbrep.add_argument("--commit", metavar="PREFIX",
                         help="restrict the report to one git-commit "
                              "prefix")
    p_dbrep.set_defaults(fn=cmd_db_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
