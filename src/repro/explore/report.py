"""Campaign reports: per-schedule results and JSONL round-trip.

An exploration campaign is a stream of schedule outcomes plus one
summary; this module gives both a stable wire form.  The JSONL layout
follows :mod:`repro.faults.campaign`: one JSON object per explored
schedule, then a single ``{"kind": "explore-summary", ...}`` line, so
reports stream cleanly, concatenate across campaigns, and survive a
crash mid-campaign with every completed schedule intact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: The closed outcome vocabulary of one explored schedule.
#:
#: * ``pass`` -- the run completed and the workload invariant held.
#: * ``failure`` -- the run completed, the invariant broke, and the
#:   failing schedule replayed deterministically (a real, reproducible
#:   schedule-dependent bug).
#: * ``divergence`` -- the invariant broke but the recording did not
#:   replay faithfully (a substrate bug, not a workload bug).
#: * ``stall`` -- the run never completed (deadlock / budget / stall,
#:   per the guard's classification, or the runner's job timeout).
#: * ``error`` -- the job failed before a schedule ran to an end (a bad
#:   configuration, a crashed worker); the classification names the
#:   error type.
EXPLORE_OUTCOMES = ("pass", "failure", "divergence", "stall", "error")

#: Where each explored plan came from.
PLAN_SOURCES = ("baseline", "dpor", "races", "pct", "bisect")


@dataclass(frozen=True)
class ScheduleResult:
    """The classified outcome of one explored schedule."""

    plan: dict                  # SchedulePlan.as_dict() wire form
    source: str                 # one of PLAN_SOURCES
    outcome: str                # one of EXPLORE_OUTCOMES
    classification: str = ""    # guard verdict / invariant diagnosis
    detail: str = ""
    spec_hash: str = ""
    cached: bool = False
    wall_time: float = 0.0
    commits: int = 0

    def __post_init__(self) -> None:
        if self.outcome not in EXPLORE_OUTCOMES:
            raise ValueError(
                f"unknown explore outcome {self.outcome!r} (expected "
                f"one of {', '.join(EXPLORE_OUTCOMES)})")

    @property
    def ok(self) -> bool:
        return self.outcome == "pass"

    def as_dict(self) -> dict:
        return {
            "kind": "explore-schedule",
            "plan": self.plan,
            "source": self.source,
            "outcome": self.outcome,
            "classification": self.classification,
            "detail": self.detail,
            "spec_hash": self.spec_hash,
            "cached": self.cached,
            "wall_time": self.wall_time,
            "commits": self.commits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleResult":
        return cls(
            plan=dict(data["plan"]),
            source=data["source"],
            outcome=data["outcome"],
            classification=data.get("classification", ""),
            detail=data.get("detail", ""),
            spec_hash=data.get("spec_hash", ""),
            cached=bool(data.get("cached", False)),
            wall_time=float(data.get("wall_time", 0.0)),
            commits=int(data.get("commits", 0)),
        )


@dataclass
class ExploreReport:
    """Everything one exploration campaign found."""

    app: str
    mode: str
    campaign_seed: int
    budget: int
    results: list[ScheduleResult] = field(default_factory=list)
    bisection: dict | None = None   # MinimalRepro.as_dict() if bisected
    frontier_branches: int = 0      # DPOR branches generated
    frontier_deduplicated: int = 0

    def add(self, result: ScheduleResult) -> None:
        self.results.append(result)

    @property
    def count(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list[ScheduleResult]:
        return [r for r in self.results if r.outcome == "failure"]

    @property
    def divergences(self) -> list[ScheduleResult]:
        return [r for r in self.results if r.outcome == "divergence"]

    @property
    def stalls(self) -> list[ScheduleResult]:
        return [r for r in self.results if r.outcome == "stall"]

    @property
    def clean(self) -> bool:
        """True when every explored schedule passed."""
        return all(r.ok for r in self.results)

    def outcome_counts(self) -> dict:
        counts = {outcome: 0 for outcome in EXPLORE_OUTCOMES}
        for result in self.results:
            counts[result.outcome] += 1
        return counts

    def as_dict(self) -> dict:
        return {
            "kind": "explore-summary",
            "app": self.app,
            "mode": self.mode,
            "campaign_seed": self.campaign_seed,
            "budget": self.budget,
            "schedules": self.count,
            "outcomes": self.outcome_counts(),
            "cached": sum(1 for r in self.results if r.cached),
            "frontier_branches": self.frontier_branches,
            "frontier_deduplicated": self.frontier_deduplicated,
            "clean": self.clean,
            "bisection": self.bisection,
        }

    def summary(self) -> str:
        counts = self.outcome_counts()
        parts = [f"{self.count} schedules"]
        parts.extend(f"{counts[o]} {o}" for o in EXPLORE_OUTCOMES
                     if counts[o])
        line = (f"explore {self.app}/{self.mode} "
                f"seed={self.campaign_seed}: " + ", ".join(parts))
        if self.bisection is not None:
            line += (f"; minimized to prefix of "
                     f"{self.bisection.get('prefix_length')} grants")
        return line

    def write_jsonl(self, path) -> Path:
        """One line per explored schedule, then the summary line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            for result in self.results:
                stream.write(json.dumps(result.as_dict(),
                                        sort_keys=True) + "\n")
            stream.write(json.dumps(self.as_dict(), sort_keys=True)
                         + "\n")
        return path


def read_explore_report(path) -> ExploreReport:
    """Rebuild an :class:`ExploreReport` from its JSONL file."""
    results: list[ScheduleResult] = []
    summary: dict | None = None
    with Path(path).open("r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if data.get("kind") == "explore-summary":
                summary = data
            elif data.get("kind") == "explore-schedule":
                results.append(ScheduleResult.from_dict(data))
    if summary is None:
        raise ValueError(f"{path}: no explore-summary line "
                         f"(truncated campaign?)")
    report = ExploreReport(
        app=summary["app"],
        mode=summary["mode"],
        campaign_seed=int(summary["campaign_seed"]),
        budget=int(summary["budget"]),
        results=results,
        bisection=summary.get("bisection"),
        frontier_branches=int(summary.get("frontier_branches", 0)),
        frontier_deduplicated=int(
            summary.get("frontier_deduplicated", 0)),
    )
    return report
