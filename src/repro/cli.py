"""Command-line interface for the reproduction experiments.

Usage::

    python -m repro list
    python -m repro fig7 --pairs 100 --seed 2024
    python -m repro fig7 --pairs 100 --workers 4 --timings
    python -m repro table1 --pairs 40
    python -m repro success-rate --pairs 40 --profile
    python -m repro all --pairs 40 --output results/

Experiments are resolved through :mod:`repro.experiments.registry` —
the CLI imports no experiment module directly; each registers itself as
an :class:`~repro.experiments.registry.ExperimentSpec` on import.
``--workers`` shards sweep-backed experiments over a process pool,
``--timings`` prints the per-stage :class:`~repro.runtime.SweepTimings`
report after each experiment, ``--trace out.jsonl`` exports the run's
spans and metrics as JSON lines (see ``docs/api.md`` for the schema;
with ``all``, one file per experiment via a ``-<name>`` suffix), and
``--profile [N]`` runs the experiment under :mod:`cProfile` and appends
the top N functions by cumulative time (default 25).

Two non-experiment subcommands expose the always-on pose service
(:mod:`repro.service`)::

    python -m repro serve --port 9000 --workers 2
    python -m repro service-load --port 9000 --requests 200
    python -m repro service-load --standalone --requests 50 --json out.json

``serve`` runs :class:`~repro.service.core.PoseService` behind the TCP
transport until SIGTERM/SIGINT, then drains gracefully (every admitted
request gets its real response before the pool closes).  ``--chaos
KIND:ID[,ID...]`` injects a fire-once worker fault into the match of
each listed request id — the lever the CI smoke uses to prove a killed
worker is restarted mid-serve.  The data
plane is tunable: ``--shm/--no-shm`` toggles the shared-memory scan
transport, ``--cache-mb`` sizes the service's feature cache, and
``--trace PATH`` exports per-request span trees.
``service-load`` is the closed-loop load client: it builds full-scan
scan-pair requests from ``--pairs`` simulated pairs (dataset
``--seed``), detector boxes included; ``--standalone`` runs
service and load in one process (no TCP), ``--warmup`` absorbs cold
pool costs before the timed window, and ``--json`` writes the
:class:`~repro.service.load.LoadSummary` for the benchmark gate.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import pathlib
import pstats
import sys

from repro.experiments.registry import all_specs, get_spec
from repro.obs.export import trace_session
from repro.obs.metrics import active_registry
from repro.runtime.timings import collect_timings

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BB-Align (ICDCS 2024) reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pairs", type=int, default=40,
                        help="dataset pairs to evaluate (default 40)")
    common.add_argument("--seed", type=int, default=2024,
                        help="dataset seed (default 2024)")
    common.add_argument("--workers", type=int, default=1,
                        help="processes to shard sweeps over; 1 = serial "
                             "(default), 0 = host CPU count")
    common.add_argument("--timings", action="store_true",
                        help="print the per-stage wall-time report")
    common.add_argument("--profile", nargs="?", type=int, const=25,
                        default=None, metavar="N",
                        help="run under cProfile and print the top N "
                             "functions by cumulative time (default 25)")
    common.add_argument("--output", type=pathlib.Path, default=None,
                        help="directory to also write <name>.txt into")
    common.add_argument("--trace", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="export trace spans and metrics to a "
                             "JSON-lines file (schema in docs/api.md)")

    for spec in all_specs():
        spec_parser = sub.add_parser(spec.name, parents=[common],
                                     help=spec.description)
        if spec.cli_options is not None:
            spec.cli_options(spec_parser)
    sub.add_parser("all", parents=[common],
                   help="run every experiment in sequence")

    serve = sub.add_parser(
        "serve", help="run the always-on pose service over TCP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port; 0 binds an ephemeral port "
                            "(the bound port is printed)")
    serve.add_argument("--workers", type=int, default=2,
                       help="pool processes (default 2)")
    serve.add_argument("--queue-limit", type=int, default=32,
                       help="bounded admission queue depth (default 32)")
    serve.add_argument("--batch-size", type=int, default=4,
                       help="admitted requests in flight per worker "
                            "(default 4)")
    serve.add_argument("--batch-timeout", type=float, default=30.0,
                       help="seconds before a pool task counts as hung "
                            "(default 30)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request deadline in seconds "
                            "(default: none)")
    serve.add_argument("--chaos", default=None, metavar="KIND:ID[,ID...]",
                       help="inject a fire-once worker fault "
                            "(kill/hang/raise) into the match of each "
                            "given request id")
    serve.add_argument("--hang-seconds", type=float, default=6.0,
                       help="stall duration of an injected hang fault")
    serve.add_argument("--shm", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="carry scan-pair tasks through shared "
                            "memory (default on; --no-shm pickles them)")
    serve.add_argument("--cache-mb", type=float, default=64.0,
                       help="service feature cache budget in MiB "
                            "(default 64; 0 disables)")
    serve.add_argument("--trace", type=pathlib.Path, default=None,
                       metavar="PATH",
                       help="export per-request trace spans to a "
                            "JSON-lines file (schema in docs/api.md)")

    load = sub.add_parser(
        "service-load",
        help="closed-loop load client for the pose service")
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument("--port", type=int, default=None,
                      help="port of a running `repro serve`")
    load.add_argument("--standalone", action="store_true",
                      help="run an in-process service instead of "
                           "connecting over TCP")
    load.add_argument("--requests", type=int, default=40,
                      help="total requests to attempt (default 40)")
    load.add_argument("--concurrency", type=int, default=4,
                      help="simultaneous virtual clients (default 4)")
    load.add_argument("--pairs", type=int, default=40,
                      help="requests cycle through the scan pairs of "
                           "simulated pairs 0..pairs-1 (default 40)")
    load.add_argument("--seed", type=int, default=2024,
                      help="seed of the simulated dataset (default 2024)")
    load.add_argument("--workers", type=int, default=2,
                      help="pool processes for --standalone (default 2)")
    load.add_argument("--deadline-ms", type=int, default=0,
                      help="per-request deadline in ms (0 = none)")
    load.add_argument("--warmup", type=int, default=-1, metavar="N",
                      help="uncounted warmup requests before the timed "
                           "window (default: one per worker for "
                           "--standalone, 0 over TCP)")
    load.add_argument("--json", type=pathlib.Path, default=None,
                      metavar="PATH",
                      help="also write the summary as JSON")
    return parser


def _profile_report(profiler: cProfile.Profile, top: int) -> str:
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return buffer.getvalue().rstrip()


def _run_one(name: str, pairs: int, seed: int, workers: int,
             timings: bool, output: pathlib.Path | None,
             profile: int | None = None,
             trace: pathlib.Path | None = None,
             extra: dict | None = None) -> str:
    spec = get_spec(name)
    extra = extra or {}
    profiler = cProfile.Profile() if profile is not None else None

    def _invoke():
        if profiler is not None:
            profiler.enable()
        try:
            return spec.run(pairs, seed, workers=workers, **extra)
        finally:
            if profiler is not None:
                profiler.disable()

    trace_cm = (trace_session(trace, command=name, pairs=pairs, seed=seed,
                              workers=workers)
                if trace is not None else contextlib.nullcontext())
    with trace_cm:
        if timings or trace is not None:
            # Tracing always collects timings: the sweep records its
            # stage seconds and pipeline counters into the report's
            # registry, which folds into the trace session's on exit.
            with collect_timings() as report:
                result = _invoke()
            if trace is not None:
                registry = active_registry()
                if registry is not None:
                    registry.merge(report.registry)
            text = spec.format(result)
            if timings:
                text += "\n\n" + report.format()
        else:
            text = spec.format(_invoke())
    if profiler is not None:
        text += "\n\n" + _profile_report(profiler, profile)
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
        (output / f"{name}.txt").write_text(text + "\n")
    return text


def _parse_fault(spec: str, hang_seconds: float):
    """``KIND:ID[,ID...]`` → a fire-once :class:`WorkerFault` keyed by
    request id."""
    import tempfile

    from repro.runtime.faults import WorkerFault
    kind, _, raw = spec.partition(":")
    try:
        indices = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise SystemExit(
            f"--chaos expects KIND:ID[,ID...], got {spec!r}") from None
    return WorkerFault(kind=kind, indices=indices,
                       once_dir=tempfile.mkdtemp(prefix="repro-chaos-"),
                       hang_seconds=hang_seconds)


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service import PoseService, ServiceConfig, ServiceServer

    fault = (_parse_fault(args.chaos, args.hang_seconds)
             if args.chaos is not None else None)
    config = ServiceConfig(
        workers=args.workers, queue_limit=args.queue_limit,
        batch_size=args.batch_size, batch_timeout=args.batch_timeout,
        default_deadline=args.deadline, fault=fault,
        use_shm=args.shm, worker_cache_mb=args.cache_mb)

    async def run() -> None:
        service = PoseService(config)
        await service.start()
        server = ServiceServer(service, args.host, args.port)
        await server.start()
        print(f"pose service listening on {server.host}:{server.port} "
              f"({config.workers} workers, queue {config.queue_limit})",
              flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        # Graceful drain: close the listener first, then let queued and
        # in-flight requests run to their real responses.
        print("draining ...", flush=True)
        await server.stop()
        await service.stop()
        registry = active_registry()
        if registry is not None:
            # Fold the service's instruments into the trace session so
            # the export carries the run's counters alongside its spans.
            registry.merge(service.registry)
        print("drained; " + " ".join(
            f"{key.removeprefix('service/')}={value}" for key, value
            in service.registry.counter_values("service/").items()),
            flush=True)

    trace_cm = (trace_session(args.trace, command="serve",
                              workers=args.workers)
                if args.trace is not None else contextlib.nullcontext())
    with trace_cm:
        # The service captures the ambient trace collector in start();
        # per-request spans stitch under this session's root.
        asyncio.run(run())
    return 0


def _cmd_service_load(args) -> int:
    import asyncio
    import json

    from repro.comms.envelope import ServiceRequest
    from repro.experiments.common import scan_pair_messages
    from repro.service import (
        PoseService,
        ServiceClient,
        ServiceConfig,
        run_load,
    )

    if args.pairs < 1:
        raise SystemExit("service-load needs --pairs >= 1")
    messages = scan_pair_messages(min(args.pairs, max(args.requests, 1)),
                                  args.seed)

    def make_request(n: int) -> ServiceRequest:
        ego, other = messages[n % len(messages)]
        return ServiceRequest(request_id=(n + 1) & 0xFFFFFFFF, ego=ego,
                              other=other, deadline_ms=args.deadline_ms)

    async def run():
        if args.standalone:
            # Warm the pool once before the timed window (workers build
            # their pipeline on first use; unwarmed, that cost lands on
            # the first few latency samples and skews every percentile).
            warmup = (args.warmup if args.warmup >= 0
                      else (args.workers or 2))
            async with PoseService(
                    ServiceConfig(workers=args.workers)) as service:
                return await run_load(
                    service.submit, make_request=make_request,
                    requests=args.requests, concurrency=args.concurrency,
                    warmup=warmup)
        if args.port is None:
            raise SystemExit("service-load needs --port (or --standalone)")
        client = await ServiceClient.connect(args.host, args.port)
        try:
            return await run_load(
                client.request, make_request=make_request,
                requests=args.requests, concurrency=args.concurrency,
                warmup=max(args.warmup, 0))
        finally:
            await client.close()

    summary = asyncio.run(run())
    print(summary.format())
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(summary.to_dict(), indent=2)
                             + "\n")
    # Unhandled errors are the one thing the load client must never
    # see — the exit code is the soak contract in miniature.
    return 0 if summary.errors == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "service-load":
        return _cmd_service_load(args)
    if args.command == "list":
        specs = all_specs()
        width = max(len(spec.name) for spec in specs)
        for spec in specs:
            print(f"{spec.name:<{width}}  {spec.description}")
        return 0
    names = ([spec.name for spec in all_specs()]
             if args.command == "all" else [args.command])
    for name in names:
        trace = args.trace
        if trace is not None and len(names) > 1:
            # One trace session per experiment: suffix the stem so "all"
            # does not overwrite earlier experiments' traces.
            trace = trace.with_name(f"{trace.stem}-{name}{trace.suffix}")
        # Experiment-specific flags only exist on that experiment's own
        # subcommand namespace ("all" runs everything with defaults).
        extra = {dest: getattr(args, dest)
                 for dest in get_spec(name).cli_option_dests
                 if getattr(args, dest, None) is not None}
        print(_run_one(name, args.pairs, args.seed, args.workers,
                       args.timings, args.output, args.profile, trace,
                       extra))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
