"""Record the expected outcomes of the pair-sweep and fleet-frame pools.

Usage, from the repository root::

    python3 perfbench/record.py pair-sweep fleet-frame

Writes ``perfbench/expected/<workload>.<data seed>.json`` for the
default and the held-out data seed: for every pool item, the input
sizes and the outputs ``run.py`` compares against (success flag, inlier
counts, pose; for fleet frames also every edge and the fused poses).
Re-record only when a change is meant to alter outputs, and say so:
the benchmark's correctness check is only as good as the recording.
"""

from __future__ import annotations

import argparse
import json
import sys

import catalog
import harness
from run import expected_path

RECORDED = {"pair-sweep": "pair_sweep", "fleet-frame": "fleet_frame"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(RECORDED))
    args = parser.parse_args(argv)
    harness.bootstrap()
    for workload in args.workloads:
        module = __import__(RECORDED[workload])
        for data_seed in (catalog.DATA_SEED, catalog.HELD_OUT_DATA_SEED):
            def progress(index: int, total: int = module.POOL_SIZE) -> None:
                print(f"\r{workload} {data_seed}: {index + 1}/{total}",
                      end="", file=sys.stderr, flush=True)

            recorded = module.record(data_seed, progress)
            print(file=sys.stderr)
            path = expected_path(workload, data_seed)
            path.parent.mkdir(exist_ok=True)
            with path.open("w") as handle:
                json.dump(recorded, handle, separators=(",", ":"))
                handle.write("\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
