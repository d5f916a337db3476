"""Run one workload over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload pair-sweep --seeds 1-10

For every end-to-end metric: the median over the seeds and the spread,
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
benchmark is steady enough when every spread, ``setup_s``'s too, stays
below a third of the metric's bound; a spread over the bound itself is
flagged ``OVER BOUND``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,9"``."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float,
                        default=catalog.RUN_SECONDS)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if completed.returncode != 0 or not result.get("correct"):
            print(completed.stdout + completed.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name} {metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)

    worst = 0.0
    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, _unit, _better, bound in catalog.END_TO_END:
        data = values[name]
        median = statistics.median(data)
        q1, _q2, q3 = statistics.quantiles(data, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        mark = ("" if spread < bound / 3 else
                "  <--" if spread <= bound else "  OVER BOUND")
        worst = max(worst, spread / bound)
        print(f"{name:<20} {median:>12.5g} {spread:>8.4f} {bound:>6.2f}"
              f"{mark}")
    print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
