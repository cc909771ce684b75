"""Resilience metrics: MSR, VPK, APK and TTV (paper §II).

* **Mission Success Rate (MSR)** — percentage of runs that completed their
  navigation mission within the time limit.  Higher is more resilient.
* **Traffic Violations per KM (VPK)** — violation events per kilometre
  driven in the campaign.  Lower is more resilient.
* **Accidents per KM (APK)** — collision events per kilometre driven.
* **Time to Traffic Violation (TTV)** — time between a fault injection and
  its manifestation as a violation.  Higher means more time for detection
  and recovery.

The aggregate VPK/APK are computed over pooled distance (total events /
total km), while the per-run lists feed the distribution plots of figs.
3-4 (the paper shows boxplots, i.e. run-level spread).

**Empty-slice convention** (defined once, applied by every aggregate):
a slice with *no completed runs* — a fault class in a freshly resumed or
partially drained queue campaign, an injector filtered down to nothing —
has **NaN** for MSR/VPK/APK.  Absence of data is not "0 % success" or
"0 violations"; NaN keeps empty slices visibly undefined in tables and
propagates honestly through downstream arithmetic, while counts
(``n_runs``, ``total_km``, ``total_violations``…) are legitimately 0.
Distinct from this is the *zero-distance* case: completed runs in which
the car never moved keep VPK/APK of 0.0 (the run happened and produced
no per-km events), matching the per-run properties on
:class:`~repro.core.campaign.RunRecord`.

**Streaming aggregation:** :class:`MetricsAccumulator` folds records one
at a time into per-group aggregates (scalars plus per-run floats — never
the records themselves, whose violation/fault payloads dominate memory),
so million-episode checkpoints aggregate in one pass over a record
*iterator* (a :class:`~repro.core.resultlog.ResultLog`).  The batch helpers
:func:`compute_metrics` / :func:`metrics_by_injector` are thin wrappers
over the same accumulator, so streamed and in-memory aggregation are
equal by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .campaign import RunRecord
from .outcomes import EpisodeFailure

__all__ = [
    "ResilienceMetrics",
    "MetricsAccumulator",
    "compute_metrics",
    "metrics_by_injector",
    "mission_success_rate",
    "violations_per_km",
    "accidents_per_km",
    "time_to_violation",
]


def mission_success_rate(records: Sequence[RunRecord]) -> float:
    """MSR in percent over a set of runs; NaN for an empty slice."""
    if not records:
        return float("nan")
    return 100.0 * sum(r.success for r in records) / len(records)


def violations_per_km(records: Sequence[RunRecord]) -> float:
    """Pooled VPK: total violations over total kilometres.

    NaN for an empty slice; 0.0 when runs exist but covered no distance.
    """
    if not records:
        return float("nan")
    total_km = sum(r.distance_km for r in records)
    if total_km <= 0.0:
        return 0.0
    return sum(r.n_violations for r in records) / total_km


def accidents_per_km(records: Sequence[RunRecord]) -> float:
    """Pooled APK: total accidents over total kilometres.

    NaN for an empty slice; 0.0 when runs exist but covered no distance.
    """
    if not records:
        return float("nan")
    total_km = sum(r.distance_km for r in records)
    if total_km <= 0.0:
        return 0.0
    return sum(r.n_accidents for r in records) / total_km


def time_to_violation(records: Sequence[RunRecord]) -> list[float]:
    """TTV samples (seconds), one per run where a fault manifested."""
    out = []
    for r in records:
        ttv = r.time_to_violation_s()
        if ttv is not None:
            out.append(ttv)
    return out


@dataclass
class ResilienceMetrics:
    """The paper's metric set for one group of runs."""

    n_runs: int
    msr: float
    vpk: float
    apk: float
    ttv_s: list[float] = field(default_factory=list)
    vpk_per_run: list[float] = field(default_factory=list)
    apk_per_run: list[float] = field(default_factory=list)
    success_flags: list[bool] = field(default_factory=list)
    total_km: float = 0.0
    total_violations: int = 0
    total_accidents: int = 0
    violations_by_type: dict[str, int] = field(default_factory=dict)
    #: The group's fault-set composition (fault names in attach order),
    #: taken from the first record that carries fault descriptions.
    #: ``()`` for the fault-free baseline and for records written before
    #: fault descriptions existed.  Compound groups (two or more names)
    #: are what :func:`~repro.core.analysis.interaction_effects` pairs
    #: against their single-fault marginals.
    fault_names: tuple[str, ...] = ()
    #: Episodes that never produced data, counted by outcome
    #: (``"failed"``/``"timed_out"``/``"quarantined"``).  Failures are
    #: *never* folded into MSR/VPK/APK — a crashed harness episode is
    #: not a failed mission — but they must stay visible, so reports can
    #: show "48 runs, 2 quarantined" instead of silently shrinking n.
    failure_counts: dict[str, int] = field(default_factory=dict)

    @property
    def n_failures(self) -> int:
        """Total episodes lost to harness failures (all outcomes)."""
        return sum(self.failure_counts.values())

    @property
    def ttv_median_s(self) -> float:
        """Median TTV, ``nan`` when no fault manifested."""
        return float(np.median(self.ttv_s)) if self.ttv_s else float("nan")

    def summary_row(self) -> dict:
        """Flat dict for tables."""
        return {
            "runs": self.n_runs,
            "MSR_%": round(self.msr, 1),
            "VPK": round(self.vpk, 2),
            "APK": round(self.apk, 2),
            "TTV_median_s": round(self.ttv_median_s, 2) if self.ttv_s else None,
            "km": round(self.total_km, 2),
        }


class MetricsAccumulator:
    """Streaming aggregation of one group of runs.

    Folds records in one at a time, keeping only scalar aggregates and
    per-run floats — memory stays O(runs) small floats rather than
    O(runs × violations) record payloads, which is what lets a single
    pass over a million-episode JSONL checkpoint compute the
    full metric set.  :meth:`result` yields the identical
    :class:`ResilienceMetrics` the batch path produces (same fold order,
    same float arithmetic).
    """

    def __init__(self) -> None:
        self.n_runs = 0
        self.n_success = 0
        self.total_km = 0.0
        self.total_violations = 0
        self.total_accidents = 0
        self.ttv_s: list[float] = []
        self.vpk_per_run: list[float] = []
        self.apk_per_run: list[float] = []
        self.success_flags: list[bool] = []
        self.violations_by_type: dict[str, int] = {}
        self.fault_names: tuple[str, ...] = ()
        self.failure_counts: dict[str, int] = {}

    def add(self, record: RunRecord) -> None:
        """Fold one completed run into the aggregates.

        :class:`~repro.core.outcomes.EpisodeFailure` rows (as streamed
        by a :class:`~repro.core.resultlog.ResultLog` that saw crashes or
        quarantines) are dispatched to :meth:`add_failure` — counted,
        never folded into the mission metrics.
        """
        if isinstance(record, EpisodeFailure):
            self.add_failure(record)
            return
        self.n_runs += 1
        self.n_success += bool(record.success)
        self.total_km += record.distance_km
        self.total_violations += record.n_violations
        self.total_accidents += record.n_accidents
        ttv = record.time_to_violation_s()
        if ttv is not None:
            self.ttv_s.append(ttv)
        self.vpk_per_run.append(record.violations_per_km)
        self.apk_per_run.append(record.accidents_per_km)
        self.success_flags.append(record.success)
        for v in record.violations:
            self.violations_by_type[v["type"]] = (
                self.violations_by_type.get(v["type"], 0) + 1
            )
        if not self.fault_names and record.faults:
            self.fault_names = tuple(
                f.get("name", "?") for f in record.faults
            )

    def add_failure(self, failure: EpisodeFailure) -> None:
        """Count one harness failure by outcome (no metric impact)."""
        self.failure_counts[failure.outcome] = (
            self.failure_counts.get(failure.outcome, 0) + 1
        )

    def result(self) -> ResilienceMetrics:
        """The aggregated metrics (empty-slice convention applies)."""
        if self.n_runs == 0:
            msr = vpk = apk = float("nan")
        else:
            msr = 100.0 * self.n_success / self.n_runs
            vpk = (
                self.total_violations / self.total_km if self.total_km > 0.0 else 0.0
            )
            apk = (
                self.total_accidents / self.total_km if self.total_km > 0.0 else 0.0
            )
        return ResilienceMetrics(
            n_runs=self.n_runs,
            msr=msr,
            vpk=vpk,
            apk=apk,
            ttv_s=list(self.ttv_s),
            vpk_per_run=list(self.vpk_per_run),
            apk_per_run=list(self.apk_per_run),
            success_flags=list(self.success_flags),
            total_km=self.total_km,
            total_violations=self.total_violations,
            total_accidents=self.total_accidents,
            violations_by_type=dict(self.violations_by_type),
            fault_names=self.fault_names,
            failure_counts=dict(self.failure_counts),
        )


def compute_metrics(records: Iterable[RunRecord]) -> ResilienceMetrics:
    """Aggregate one group of runs into :class:`ResilienceMetrics`.

    Accepts any iterable — a list, or a streaming record iterator from
    :class:`~repro.core.resultlog.ResultLog` — and folds it through a
    :class:`MetricsAccumulator` in one pass, never materialising the
    record set.  An empty group is valid (see the module's empty-slice
    convention): rates come back NaN, counts 0 — so summarising a
    partially drained or freshly resumed campaign never raises.
    """
    acc = MetricsAccumulator()
    for record in records:
        acc.add(record)
    return acc.result()


def metrics_by_injector(records: Iterable[RunRecord]) -> dict[str, ResilienceMetrics]:
    """Group records by injector and aggregate each group.

    Single-pass and streaming-safe: grouping keeps one
    :class:`MetricsAccumulator` per injector (first-seen order), not the
    records themselves, so this is the right entry point for
    arbitrarily large checkpoint iterators.  Mixed iterables are fine:
    :class:`~repro.core.outcomes.EpisodeFailure` rows group under their
    injector and surface as ``failure_counts``, never as runs.
    """
    groups: dict[str, MetricsAccumulator] = {}
    for record in records:
        groups.setdefault(record.injector, MetricsAccumulator()).add(record)
    return {name: acc.result() for name, acc in groups.items()}
