"""Distribution summaries used by every figure reproduction.

The paper reports CDFs (Figs. 7, 9, 10, 11, 13), box plots with
10/25/50/75/90 percentiles (Figs. 8, 12, 14), and distance-binned
breakdowns (Figs. 10-13, Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Cdf", "percentile_summary", "boxplot_stats", "bin_by"]


@dataclass(frozen=True)
class Cdf:
    """An empirical CDF.

    Attributes:
        values: sorted sample values.
        fractions: cumulative fractions in (0, 1], aligned with values.
    """

    values: np.ndarray
    fractions: np.ndarray

    @staticmethod
    def from_samples(samples) -> "Cdf":
        samples = np.sort(np.asarray(samples, dtype=float))
        if samples.size == 0:
            return Cdf(np.empty(0), np.empty(0))
        fractions = np.arange(1, len(samples) + 1) / len(samples)
        return Cdf(samples, fractions)

    def fraction_below(self, threshold: float) -> float:
        """P(X <= threshold) — e.g. "fraction of cases under 1 m"."""
        if self.values.size == 0:
            return float("nan")
        return float(np.searchsorted(self.values, threshold, side="right")
                     / len(self.values))

    def value_at(self, fraction: float) -> float:
        """Quantile: the smallest value with CDF >= fraction."""
        if self.values.size == 0:
            return float("nan")
        if not (0 < fraction <= 1):
            raise ValueError("fraction must be in (0, 1]")
        idx = int(np.searchsorted(self.fractions, fraction, side="left"))
        return float(self.values[min(idx, len(self.values) - 1)])


def percentile_summary(samples, percentiles=(10, 25, 50, 75, 90)) -> dict[int, float]:
    """Named percentiles of a sample (NaN-filled when empty)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return {int(p): float("nan") for p in percentiles}
    values = np.percentile(samples, percentiles)
    return {int(p): float(v) for p, v in zip(percentiles, values)}


def boxplot_stats(samples) -> dict[str, float]:
    """The paper's box-plot statistics (whiskers at p10/p90)."""
    summary = percentile_summary(samples)
    return {
        "whisker_low": summary[10],
        "q1": summary[25],
        "median": summary[50],
        "q3": summary[75],
        "whisker_high": summary[90],
        "count": float(np.asarray(samples).size),
    }


def bin_by(values, keys, edges) -> dict[tuple[float, float], np.ndarray]:
    """Partition ``values`` into bins of ``keys`` given bin ``edges``.

    Args:
        values: samples to group (any array-like; returned as arrays).
        keys: per-sample bin key (e.g. inter-vehicle distance).
        edges: monotonically increasing bin edges; bin i is
            ``[edges[i], edges[i+1])``.

    Returns:
        Mapping from (low, high) to the values whose key fell inside.
    """
    values = np.asarray(values)
    keys = np.asarray(keys, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if values.shape[0] != keys.shape[0]:
        raise ValueError("values and keys must align")
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be increasing with >= 2 entries")
    out: dict[tuple[float, float], np.ndarray] = {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (keys >= lo) & (keys < hi)
        out[(float(lo), float(hi))] = values[mask]
    return out
