"""Admission control: bounded queue depth and per-tenant quotas.

The service never queues unboundedly.  Before a submission touches
the journal, :class:`AdmissionController` checks

* **capacity** -- total non-terminal jobs (queued + running) must stay
  under ``capacity``; beyond it the request is shed with HTTP 429 and
  a ``Retry-After`` estimated from observed service latency, and
* **tenant quota** -- no single tenant may hold more than
  ``tenant_quota`` non-terminal jobs, so one flooding client cannot
  starve the rest.

Per-job resource ceilings come from the guard layer's
:class:`~repro.guard.limits.Budgets`: ``deadline_seconds`` becomes the
executor's per-job timeout (enforced in-worker by
:func:`~repro.runner.jobs.invoke` and backstopped by the pool sweep),
so a job admitted under a budget cannot hold a worker hostage --
admission bounds *how much* work enters, the guard budget bounds *how
long* each admitted piece may take.

Admission also owns the *scheduling* parameters.  ``priority`` and
``deadline`` ride in the submission's ``params`` dictionary (so the
CLI spelling is just ``--param priority=-1``), but they must **not**
reach the spec: two submissions of the same work at different
priorities are the same computation and must hash to the same cached
artifact.  :func:`split_service_params` peels them off before spec
validation; the queue stores them on the job itself (claim order is
``(priority, enqueue LSN)``; a job past its deadline is failed at
claim time with a typed reason instead of wasting a worker).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.guard.limits import Budgets
from repro.serve.model import QueueCounts

#: Default ceilings: modest, explicit, overridable from the CLI.
DEFAULT_CAPACITY = 64
DEFAULT_TENANT_QUOTA = 32

#: Retry-After fallback when no latency has been observed yet.
MIN_RETRY_AFTER = 1.0

#: Scheduling parameters accepted on every kind and peeled off before
#: spec validation/hashing (see the module docstring).
SERVICE_PARAMS = ("priority", "deadline")


def split_service_params(params: dict) -> tuple[dict, dict]:
    """Separate scheduling parameters from spec parameters.

    Returns ``(spec_params, schedule)`` where ``schedule`` is
    ``{"priority": int, "deadline": float | None}``.  ``priority`` is
    any integer, lower claims first, default 0; ``deadline`` is
    seconds from submission (strictly positive) after which the job
    is failed at claim time.  Raises
    :class:`~repro.errors.ConfigurationError` on uncoercible values,
    mirroring :func:`~repro.serve.kinds.validate_params` for the
    parameters that module never sees.
    """
    spec_params = dict(params)
    raw_priority = spec_params.pop("priority", 0)
    raw_deadline = spec_params.pop("deadline", None)
    try:
        if isinstance(raw_priority, bool):
            raise TypeError
        priority = int(raw_priority)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"priority must be an integer, got {raw_priority!r}"
        ) from None
    deadline = None
    if raw_deadline is not None:
        try:
            deadline = float(raw_deadline)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"deadline must be seconds (number), got "
                f"{raw_deadline!r}") from None
        if not (0 < deadline < math.inf):
            raise ConfigurationError(
                f"deadline must be positive finite seconds, got "
                f"{deadline:g}")
    return spec_params, {"priority": priority, "deadline": deadline}


@dataclass
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str = ""
    retry_after: float = 0.0

    def as_dict(self) -> dict:
        return {"admitted": self.admitted, "reason": self.reason,
                "retry_after": self.retry_after}


class AdmissionController:
    """Stateless-per-request admission policy over live queue counts."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 tenant_quota: int = DEFAULT_TENANT_QUOTA,
                 budgets: Budgets | None = None,
                 workers: int = 1) -> None:
        self.capacity = max(1, int(capacity))
        self.tenant_quota = max(1, int(tenant_quota))
        self.budgets = budgets or Budgets()
        self.workers = max(1, int(workers))
        self._latencies: list[float] = []

    @property
    def job_timeout(self) -> float | None:
        """The per-job wall-clock budget admission promises jobs run
        under (wired into the executor's ``invoke`` timeout)."""
        return self.budgets.deadline_seconds

    def observe_latency(self, seconds: float) -> None:
        """Record one completed job's service time (bounded window)."""
        self._latencies.append(seconds)
        if len(self._latencies) > 256:
            del self._latencies[:-256]

    def mean_latency(self) -> float:
        if not self._latencies:
            return MIN_RETRY_AFTER
        return sum(self._latencies) / len(self._latencies)

    def retry_after(self, counts: QueueCounts) -> float:
        """Seconds until a shed client plausibly fits: queue depth
        times mean service time, divided across workers."""
        backlog = max(1, counts.depth - self.capacity + 1)
        estimate = backlog * self.mean_latency() / self.workers
        return max(MIN_RETRY_AFTER, round(estimate, 2))

    def check(self, tenant: str,
              counts: QueueCounts) -> AdmissionDecision:
        """Admit or shed one submission from ``tenant``."""
        if counts.depth >= self.capacity:
            return AdmissionDecision(
                admitted=False,
                reason=f"queue full ({counts.depth}/{self.capacity} "
                       f"jobs in flight)",
                retry_after=self.retry_after(counts))
        held = counts.by_tenant.get(tenant, 0)
        if held >= self.tenant_quota:
            return AdmissionDecision(
                admitted=False,
                reason=f"tenant {tenant!r} at quota "
                       f"({held}/{self.tenant_quota} jobs in flight)",
                retry_after=self.retry_after(counts))
        return AdmissionDecision(admitted=True)


__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "DEFAULT_CAPACITY",
    "DEFAULT_TENANT_QUOTA",
    "MIN_RETRY_AFTER",
    "SERVICE_PARAMS",
    "split_service_params",
]
