"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pair-sweep --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate traced run that prints the per-layer
metrics.  Both check every output: against the outcomes recorded in
``perfbench/expected/`` (pair-sweep, fleet-frame) or against
``BBAlign.recover`` on the same messages (service-stream).  A mismatch
prints the differences, a result with ``"correct": false`` and no
metrics, and exits 1.  ``--held-out`` generates the inputs from the
held-out data seed, to recheck a claim on inputs it was not tuned on.

Timings are reported at reference host speed: a fixed probe kernel,
timed between units of work, measures how fast the shared host runs
around each unit (see ``harness.HostSpeed``; ``service-stream`` scales
its latencies by its workers' slowdown instead).  The report prints
each scaled metric's measured value next to it.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
The lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import catalog
import harness

HERE = Path(__file__).resolve().parent
WORKLOADS = {
    "pair-sweep": "pair_sweep",
    "fleet-frame": "fleet_frame",
    "service-stream": "service_stream",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--held-out", action="store_true",
                        help="generate inputs from the held-out data seed "
                             f"{catalog.HELD_OUT_DATA_SEED} instead of "
                             f"{catalog.DATA_SEED}")
    parser.add_argument("--seconds", type=float,
                        default=catalog.RUN_SECONDS,
                        help="run length; sets the amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.data_seed = (catalog.HELD_OUT_DATA_SEED if args.held_out
                      else catalog.DATA_SEED)
    return args


def expected_path(workload: str, data_seed: int) -> Path:
    return HERE / "expected" / f"{workload}.{data_seed}.json"


def load_expected(workload: str, data_seed: int) -> dict | None:
    """The recorded pool outcomes of a workload, if it has any."""
    path = expected_path(workload, data_seed)
    if not path.is_file():
        return None
    with path.open() as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        harness.bootstrap()
    except harness.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    module = __import__(WORKLOADS[args.workload])
    expected = load_expected(args.workload, args.data_seed)
    if args.workload != "service-stream" and (
            expected is None
            or expected["pool_size"] != module.POOL_SIZE):
        print(f"perfbench: no recorded outcomes for {args.workload} at "
              f"data seed {args.data_seed}; run perfbench/record.py",
              file=sys.stderr)
        return 2
    metrics, measured, tally, report, speed = module.run(
        args.seed, args.seconds, bool(args.trace), args.data_seed, expected)

    units = catalog.units(bool(args.trace))
    if set(metrics) != set(units):
        raise AssertionError(f"metrics {sorted(set(metrics) ^ set(units))} "
                             "differ from the catalog")
    print(f"{args.workload}: seed {args.seed}, data seed "
          f"{args.data_seed}, {args.seconds:g} s, trace {args.trace}")
    for line in report:
        print(f"  {line}")
    print(f"  {speed.format()}")
    print(f"  units: {tally.format()}; error_share "
          f"{tally.error_share:.4f}")
    correct = not tally.mismatches
    for line in tally.mismatches[:20]:
        print(f"  MISMATCH {line}")
    if len(tally.mismatches) > 20:
        print(f"  ... {len(tally.mismatches) - 20} more mismatches")
    if correct:
        for name, unit in units.items():
            meaning = catalog.DEFINITIONS.get(name, {})
            meaning = meaning.get(args.workload, meaning.get("all", ""))
            raw = (f"(measured {measured[name]:.6g}) "
                   if name in measured else "")
            print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<6} "
                  f"{raw}{meaning}".rstrip())
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": ({name: {"value": float(metrics[name]), "unit": unit}
                     for name, unit in units.items()} if correct else {}),
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
