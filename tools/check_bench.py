#!/usr/bin/env python3
"""Benchmark-regression gate: compare BENCH_*.json against baselines.

Usage::

    python tools/check_bench.py benchmarks/results/BENCH_comms.json \
        benchmarks/results/BENCH_service.json
    python tools/check_bench.py --strict --max-slowdown 1.3 BENCH.json

Each bench file is compared against the committed baseline of the same
name under ``--baselines-dir`` (default
``benchmarks/results/baselines/``).  Two classes of drift:

* **Metric drift** — deterministic fields (inlier counts, match counts,
  outcome counts, configuration): any mismatch is a regression and the
  gate **fails**.  These values are seeded, so a change means behavior
  changed, not the weather on the CI runner.
* **Timing drift** — ``*_ms`` / ``*_s`` / ``*_mb`` / ``*_rps`` /
  ``*speedup`` fields: compared as ratios against ``--max-slowdown``
  (default 1.5).  ``*_rps`` and ``*speedup`` are larger-is-better, so
  their ratio is inverted; the rest (latencies, wall times, memory
  ceilings) are smaller-is-better.  Exceeding the budget **warns** by
  default — CI runners are noisy — and fails only under ``--strict``
  (or ``REPRO_BENCH_STRICT=1``).

A bench file with no baseline yet warns and passes, so adding a new
benchmark never blocks CI; commit its baseline with
``make bench-baseline``.

Exit codes: ``0`` pass (possibly with warnings), ``2`` regression,
``1`` usage error (missing/unreadable input).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Iterator

# Anchored to the repository (this file's parent's parent), not the
# caller's cwd, so `python tools/check_bench.py` works from anywhere.
DEFAULT_BASELINES = (pathlib.Path(__file__).resolve().parent.parent
                     / "benchmarks" / "results" / "baselines")
DEFAULT_MAX_SLOWDOWN = 1.5

#: Keys whose values never gate: schema bookkeeping and the strictness
#: flag the bench suites echo from their own environment.
IGNORED_KEYS = {"schema_version", "strict"}

#: Timing-key suffixes where *larger* is better (ratio inverted).
#: ``speedup`` also matches compound names (``rps_speedup``,
#: ``bytes_speedup``) so data-plane ratios gate inverted too.
_INVERTED_SUFFIXES = ("_rps", "speedup")


def _is_timing_key(key: str) -> bool:
    return (key.endswith("_ms") or key.endswith("_s")
            or key.endswith("_mb") or key.endswith(_INVERTED_SUFFIXES))


def _walk(node: object, path: tuple[str, ...] = ()) \
        -> Iterator[tuple[tuple[str, ...], object]]:
    """Yield (path, leaf) for every non-ignored leaf in a bench JSON."""
    if isinstance(node, dict):
        for key in sorted(node):
            if key in IGNORED_KEYS:
                continue
            yield from _walk(node[key], path + (key,))
    else:
        yield path, node


class Comparison:
    """Accumulates findings for one bench-file/baseline pair."""

    def __init__(self, name: str, max_slowdown: float) -> None:
        self.name = name
        self.max_slowdown = max_slowdown
        self.failures: list[str] = []
        self.warnings: list[str] = []
        self.checked = 0

    # ------------------------------------------------------------------
    def _compare_timing(self, label: str, current: float,
                        baseline: float) -> None:
        # "speedup" and throughput are better when larger; raw times
        # and memory ceilings when smaller.  Both reduce to one
        # slowdown ratio >= 1 meaning "got worse".
        if baseline <= 0 or current <= 0:
            return  # degenerate timing (e.g. sub-resolution stage): skip
        leaf = label.rsplit(".", 1)[-1]
        if leaf.endswith(_INVERTED_SUFFIXES):
            ratio = baseline / current
        else:
            ratio = current / baseline
        if ratio > self.max_slowdown:
            self.warnings.append(
                f"{label}: {ratio:.2f}x over baseline "
                f"({baseline:g} -> {current:g}, budget "
                f"{self.max_slowdown:g}x)")

    def _compare_metric(self, label: str, current: object,
                        baseline: object) -> None:
        if current != baseline:
            self.failures.append(
                f"{label}: {baseline!r} -> {current!r} (deterministic "
                f"field changed)")

    # ------------------------------------------------------------------
    def run(self, current: dict, baseline: dict) -> None:
        current_leaves = dict(_walk(current))
        baseline_leaves = dict(_walk(baseline))
        for path in sorted(baseline_leaves.keys() - current_leaves.keys()):
            self.failures.append(f"{'.'.join(path)}: missing from current "
                                 f"bench output")
        for path in sorted(current_leaves.keys() - baseline_leaves.keys()):
            self.failures.append(f"{'.'.join(path)}: not in baseline "
                                 f"(run `make bench-baseline` to accept)")
        for path in sorted(current_leaves.keys() & baseline_leaves.keys()):
            label = ".".join(path)
            cur, base = current_leaves[path], baseline_leaves[path]
            self.checked += 1
            if _is_timing_key(path[-1]):
                if isinstance(cur, (int, float)) \
                        and isinstance(base, (int, float)):
                    self._compare_timing(label, float(cur), float(base))
                else:
                    self._compare_metric(label, cur, base)
            else:
                self._compare_metric(label, cur, base)

    # ------------------------------------------------------------------
    def report(self, stream=None) -> None:
        stream = stream if stream is not None else sys.stdout
        for line in self.failures:
            print(f"FAIL  {self.name}: {line}", file=stream)
        for line in self.warnings:
            print(f"WARN  {self.name}: {line}", file=stream)
        if not self.failures and not self.warnings:
            print(f"OK    {self.name}: {self.checked} fields within "
                  f"budget", file=stream)


def _load(path: pathlib.Path) -> dict:
    with path.open(encoding="utf-8") as stream:
        data = json.load(stream)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Gate benchmark JSON outputs against committed "
                    "baselines.")
    parser.add_argument("bench_files", nargs="+", type=pathlib.Path,
                        help="BENCH_*.json files produced by the "
                             "benchmark suites")
    parser.add_argument("--baselines-dir", type=pathlib.Path,
                        default=DEFAULT_BASELINES,
                        help="directory of committed baseline JSONs "
                             f"(default {DEFAULT_BASELINES})")
    parser.add_argument("--max-slowdown", type=float,
                        default=DEFAULT_MAX_SLOWDOWN,
                        help="timing budget as a ratio over baseline "
                             f"(default {DEFAULT_MAX_SLOWDOWN})")
    parser.add_argument("--strict", action="store_true",
                        default=os.environ.get("REPRO_BENCH_STRICT") == "1",
                        help="treat timing-budget warnings as failures "
                             "(implied by REPRO_BENCH_STRICT=1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_slowdown <= 0:
        print("error: --max-slowdown must be > 0", file=sys.stderr)
        return 1

    any_failure = False
    any_warning = False
    for bench_path in args.bench_files:
        try:
            current = _load(bench_path)
        except (OSError, ValueError) as error:
            print(f"error: cannot read {bench_path}: {error}",
                  file=sys.stderr)
            return 1
        baseline_path = args.baselines_dir / bench_path.name
        if not baseline_path.exists():
            print(f"WARN  {bench_path.name}: no baseline at "
                  f"{baseline_path} (run `make bench-baseline`)")
            any_warning = True
            continue
        try:
            baseline = _load(baseline_path)
        except (OSError, ValueError) as error:
            print(f"error: cannot read {baseline_path}: {error}",
                  file=sys.stderr)
            return 1
        comparison = Comparison(bench_path.name, args.max_slowdown)
        comparison.run(current, baseline)
        comparison.report()
        any_failure = any_failure or bool(comparison.failures)
        any_warning = any_warning or bool(comparison.warnings)

    if any_failure or (args.strict and any_warning):
        print("check_bench: REGRESSION", file=sys.stderr)
        return 2
    if any_warning:
        print("check_bench: passed with warnings")
    else:
        print("check_bench: all benchmarks within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
