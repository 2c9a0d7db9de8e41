"""repro.serve: record/replay as a service.

The serve layer turns the experiment runner into a long-lived,
crash-consistent service:

* :class:`JobQueue` -- write-ahead-journaled durable job queue; a
  SIGKILL at any byte loses no accepted job and duplicates none
  (:mod:`repro.serve.queue`);
* :class:`ReproService` -- the transport-independent core wiring
  queue, content-addressed cache, pluggable executor backend,
  admission control and ``serve_*`` telemetry
  (:mod:`repro.serve.service`);
* :class:`ServeServer` -- stdlib asyncio HTTP front end with SSE
  streaming of job transitions (:mod:`repro.serve.http`);
* :class:`ServeClient` -- blocking client for the CLI and CI
  (:mod:`repro.serve.client`);
* :func:`build_job_spec` -- admission of service requests against the
  runner's job-kind table (:mod:`repro.serve.kinds`);
* :class:`AdmissionController` -- bounded queue depth, per-tenant
  quotas, guard-budget job deadlines (:mod:`repro.serve.admission`);
* :class:`ServeWorker` -- the ``repro worker`` fleet process pulling
  jobs over the lease-based claim/heartbeat/complete wire protocol
  (:mod:`repro.serve.worker`), with lease bookkeeping in
  :mod:`repro.serve.lease`.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.client import ServeClient
from repro.serve.http import ServeServer, run_server
from repro.runner.specs import CampaignSpec
from repro.serve.kinds import JOB_KINDS, build_job_spec
from repro.serve.model import (
    STATES,
    TERMINAL_STATES,
    Job,
    JobStateError,
)
from repro.serve.lease import Lease, WorkerRegistry
from repro.serve.queue import (
    JobQueue,
    read_journal,
    read_journal_dir,
)
from repro.serve.service import ReproService
from repro.serve.sse import EventLog, format_sse
from repro.serve.worker import ServeWorker, run_worker

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CampaignSpec",
    "EventLog",
    "JOB_KINDS",
    "Job",
    "JobQueue",
    "JobStateError",
    "Lease",
    "ReproService",
    "STATES",
    "ServeClient",
    "ServeServer",
    "ServeWorker",
    "TERMINAL_STATES",
    "WorkerRegistry",
    "build_job_spec",
    "format_sse",
    "read_journal",
    "read_journal_dir",
    "run_server",
    "run_worker",
]
