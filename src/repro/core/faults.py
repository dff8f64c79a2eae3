"""Seeded fault schedules: how a declared rate becomes a fired fault.

Every chaos harness in this repository — the LBS simulation
(:mod:`repro.lbs.faults`), the shard supervisor
(:mod:`repro.experiments.supervisor`), the serve dispatcher
(:mod:`repro.serve.faults`), the federated clients
(:mod:`repro.federated.faults`) and the disk (:mod:`repro.core.vfs`) —
declares its faults as probabilities on a frozen plan.  This module owns
the parts they share:

* :func:`check_rates` — each rate lies in [0, 1], and the rates of a
  mutually exclusive group sum to at most 1;
* :func:`pick` — one uniform draw selects at most one fault kind of a
  mutually exclusive group, by cumulative thresholds in declaration
  order, so raising one rate never reshuffles the draws that select the
  others;
* :class:`FaultCounts` — the tally of fired faults, keyed by fault kind;
* :func:`seeds_from_env` — the chaos suites' seed list.

*When* to draw stays with each caller, because that is what makes its
timeline reproducible: the LBS simulation and the serve dispatcher
consume one sequential stream in arrival order, the supervisor and the
federated clients derive one uniform per key with
:func:`~repro.core.rng.derive_rng`, and the faulty VFS rolls each rate
independently per operation.  The functions here only receive the
uniform.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable, Mapping
from typing import Any

from repro.core.errors import ConfigError

__all__ = ["SEEDS_ENV", "FaultCounts", "check_rates", "pick", "seeds_from_env"]

#: The one environment variable that widens every chaos suite's seed sweep.
SEEDS_ENV = "POIAGG_CHAOS_SEEDS"

#: Slack on a group's rate sum, so rates meant to fill [0, 1) exactly
#: (``0.1 + 0.2 + 0.7``) are not refused for floating-point rounding.
_SUM_SLACK = 1e-12


def check_rates(plan: object, fields: Iterable[str], *, exceeds: "str | None" = None) -> None:
    """Validate the rate attributes *fields* of *plan*.

    Each rate must lie in [0, 1].  With *exceeds*, the rates form a
    mutually exclusive group: their sum must be at most 1, and
    ``ConfigError(exceeds)`` is raised otherwise.
    """
    fields = tuple(fields)
    for name in fields:
        rate = getattr(plan, name)
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"{name} must be in [0, 1], got {rate}")
    if exceeds is not None and sum(getattr(plan, name) for name in fields) > 1.0 + _SUM_SLACK:
        raise ConfigError(exceeds)


def pick(u: float, plan: object, group: Mapping[str, str]) -> "str | None":
    """The fault kind that the uniform *u* selects, or ``None`` (healthy).

    *group* maps each fault kind of a mutually exclusive group to the
    rate attribute of *plan* that holds its probability.  The kinds take
    consecutive slices of [0, 1) in the group's order: the first kind
    fires when ``u < rate_1``, the second when ``u < rate_1 + rate_2``,
    and so on.
    """
    edge = 0.0
    for kind, field in group.items():
        edge += getattr(plan, field)
        if u < edge:
            return kind
    return None


class FaultCounts(dict[str, int]):
    """How many faults of each kind fired; a kind never seen reads as 0.

    :meth:`count` is safe to call from several threads (the serve
    dispatcher's workers share one injector).
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()

    def __missing__(self, kind: str) -> int:
        return 0

    def count(self, kind: str) -> None:
        """Record one fired fault of *kind*."""
        with self._lock:
            self[kind] += 1

    @property
    def total(self) -> int:
        return sum(self.values())


def seeds_from_env(default: tuple[int, ...] = (0,)) -> tuple[int, ...]:
    """The chaos seeds listed in ``POIAGG_CHAOS_SEEDS``, else *default*.

    The variable holds whitespace-separated integers; unset or blank
    means *default*, so a plain test run keeps each suite's own sweep.
    """
    value = os.environ.get(SEEDS_ENV, "")
    if not value.strip():
        return default
    try:
        return tuple(int(token) for token in value.split())
    except ValueError as exc:
        raise ConfigError(f"bad seed list in {SEEDS_ENV}={value!r}: {exc}") from exc
