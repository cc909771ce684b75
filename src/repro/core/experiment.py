"""Experiment helpers around a campaign: parameter sweeps and summaries.

A paper section is usually one :class:`~repro.core.runner.Campaign` over
a family of injector configurations, exported as a table.  This module
provides the two pieces around the campaign:

* :func:`sweep` — one fault class swept over a parameter
  (``OutputDelay`` over ``delay_frames`` is exactly fig. 4);
* :func:`summary_frame` — flat list-of-dict export of the per-injector
  metrics (ready for csv/json serialisation).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .campaign import RunRecord
from .faults.base import FaultModel
from .metrics import metrics_by_injector

__all__ = ["sweep", "summary_frame"]


def sweep(
    fault_factory: Callable[[float], FaultModel],
    values: Sequence[float],
    name_format: str = "{value}",
    include_baseline: bool = True,
) -> dict[str, list[FaultModel]]:
    """Build an injector dict sweeping one fault parameter.

    ``fault_factory`` maps each value to a fresh fault model.  Example::

        injectors = sweep(lambda k: OutputDelay(int(k)), [5, 10, 20, 30],
                          name_format="delay-{value:g}")

    Two values formatting to the same injector name (a constant
    ``name_format``, rounded floats like ``0.30001`` vs ``0.3`` under
    ``{value:.1f}``) would silently overwrite one sweep point with
    another; that collision raises a ``ValueError`` instead.
    """
    injectors: dict[str, list[FaultModel]] = {}
    if include_baseline:
        injectors["none"] = []
    for value in values:
        name = name_format.format(value=value)
        if name in injectors:
            raise ValueError(
                f"sweep name collision: value {value!r} formats to {name!r}, "
                f"which is already taken (name_format={name_format!r}); use a "
                f"format that distinguishes every swept value"
            )
        injectors[name] = [fault_factory(value)]
    return injectors


def summary_frame(records: Sequence[RunRecord]) -> list[dict]:
    """Flat per-injector summary rows (json/csv-ready).

    One dict per injector with the paper's metrics plus run counts; the
    row ordering follows first appearance in ``records``.
    """
    rows = []
    for name, m in metrics_by_injector(records).items():
        rows.append(
            {
                "injector": name,
                "runs": m.n_runs,
                "msr_percent": round(m.msr, 2),
                "vpk": round(m.vpk, 3),
                "apk": round(m.apk, 3),
                "ttv_median_s": round(m.ttv_median_s, 3) if m.ttv_s else None,
                "total_km": round(m.total_km, 3),
                "total_violations": m.total_violations,
                "total_accidents": m.total_accidents,
            }
        )
    return rows
