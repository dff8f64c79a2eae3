"""Medians, quartiles and the regression verdict used by ``compare``.

The verdict follows the benchmark's rules for a change measured against
its parent: a gain needs the change to win at least nine tenths of the
paired runs *and* a median difference wider than the parent's own
quartile spread; a metric whose run-to-run spread is wider than its
bound is *unresolved* unless every run of the change reads better than
every run of the parent; otherwise the median may not be worse than the
parent's by more than the bound.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["Verdict", "quartiles", "relative_spread", "verdict"]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


@dataclass(frozen=True)
class Verdict:
    label: str  # "improved" | "no worse" | "regressed" | "unresolved"
    parent_wins: int
    change_wins: int


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Verdict:
    """Judge *change* against *parent*; runs are paired in order."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    change_wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    parent_wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    gain = sign * (c_median - p_median)

    def judged(label: str) -> Verdict:
        return Verdict(label, parent_wins, change_wins)

    if pairs and change_wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return judged("improved")
    if sign > 0:
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    spread = max(relative_spread(parent), relative_spread(change))
    if spread > bound and not every_run_better:
        return judged("unresolved")
    if p_median and -gain / abs(p_median) > bound:
        return judged("regressed")
    return judged("no worse")
