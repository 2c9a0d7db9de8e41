"""The runner: fan simulation jobs out across an executor backend.

:class:`Runner` takes a batch of :class:`RunSpec` jobs and drives each
to a terminal state:

1. **Dedup** -- specs are keyed by content hash; a sweep that names
   the same run twice pays for it once.
2. **Cache** -- every job is first looked up in the content-addressed
   :class:`~repro.runner.cache.ResultCache`; hits never reach a
   worker.
3. **Waves** -- jobs with dependencies (a replay needs its recording)
   run after their dependencies, so N replays of one recording share
   one record job through the cache instead of each recomputing it.
4. **Execute** -- misses run on a pluggable
   :class:`~repro.runner.executors.ExecutorBackend`:
   :class:`~repro.runner.executors.InlineBackend` (the serial
   baseline, and the fast path for a wave with a single miss),
   :class:`~repro.runner.executors.ProcessPoolBackend` (``jobs > 1``)
   or :class:`~repro.runner.executors.RemoteWorkerBackend` (the serve
   layer's lease-based worker fleet, with a local fallback pool it
   degrades to when no worker heartbeats).  One attempt loop drives
   every backend.  It keeps at most ``width`` attempts in flight: 1
   on a backend that is not ``parallel``, otherwise ``min(jobs,
   misses)`` capped by the backend's ``max_workers``.  An attempt is
   submitted only when a slot is free, so on the inline backend the
   loop runs one job to its end before the next starts.  Each attempt
   runs under a per-job wall-clock timeout enforced *inside* the
   worker (SIGALRM on a unix main thread, an async-raise watchdog
   timer elsewhere), so a hung simulation turns into a structured
   timeout failure rather than a stuck pool.  A deadline sweep
   backstops both: the loop notes :func:`sweep_deadline` when it
   submits an attempt -- when the attempt gets a worker, not while it
   waits for one -- and abandons an attempt still pending past it,
   feeding it through the normal retry path, so even a worker wedged
   in C code cannot stall the sweep.  The abandoned worker stays busy
   until it returns; the window does not wait for it.
5. **Retry** -- failed attempts (exceptions, timeouts, a crashed
   worker process) are retried with exponential backoff under a
   :class:`~repro.runner.retry.RetryPolicy`; a job waiting out its
   backoff gives up its slot.  A failure its envelope marks not
   retryable (a bad configuration) ends the job at once.  A job that
   exhausts its budget yields a
   :class:`~repro.runner.retry.FailureRecord` and the sweep continues.

Progress and counters flow through a pluggable
:class:`~repro.runner.reporting.Reporter`.
"""

from __future__ import annotations

import collections
import concurrent.futures
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.runner import jobs as jobs_module
from repro.runner.cache import ResultCache
from repro.runner.executors import (
    ExecutorBackend,
    InlineBackend,
    resolve_backend,
)
from repro.runner.reporting import NullReporter, Reporter, RunnerMetrics
from repro.runner.retry import (
    AttemptFailure,
    FailureRecord,
    RetryPolicy,
)
from repro.runner.specs import RunSpec


class RunnerError(ReproError):
    """A sweep-level failure (raised by the strict helpers only)."""


def sweep_deadline(timeout: float) -> float:
    """Pool-side backstop budget for one attempt.

    The in-worker enforcement (SIGALRM on the main thread, the async-
    raise watchdog elsewhere) gets the first shot at a hung job; the
    pool's deadline sweep only collects attempts stuck past it -- jobs
    wedged in C code where no Python-level exception can land.  The
    margin keeps the two mechanisms from racing on healthy timeouts.
    """
    return timeout + max(1.0, 0.5 * timeout)


def overdue_futures(pending, deadlines, now: float) -> list:
    """Futures in ``pending`` whose sweep deadline has passed."""
    return [future for future, due in deadlines.items()
            if due <= now and future in pending and not future.done()]


@dataclass
class JobOutcome:
    """Terminal state of one job in a sweep."""

    spec: RunSpec
    artifact: dict | None = None
    failure: FailureRecord | None = None
    attempts: int = 0
    wall_time: float = 0.0
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """Whether the job produced an artifact."""
        return self.artifact is not None


@dataclass
class _JobState:
    """One miss's progress through its attempts."""

    spec: RunSpec
    attempt: int = 1
    failures: list[AttemptFailure] = field(default_factory=list)
    started: float | None = None     # monotonic, first submit
    submitted: float = 0.0           # monotonic, latest submit
    last_delay: float | None = None  # previous backoff, for jitter


def default_jobs() -> int:
    """Worker count when the caller does not choose one."""
    return max(1, min(8, os.cpu_count() or 1))


class Runner:
    """Parallel, cached, fault-tolerant executor for run specs."""

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | bool | None = True,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        reporter: Reporter | None = None,
        job_fn=jobs_module.execute_spec,
        executor: str | ExecutorBackend | None = None,
    ) -> None:
        if jobs < 1:
            raise RunnerError("need at least one worker")
        self.jobs = jobs
        if cache is True:
            cache = ResultCache()
        elif cache is False:
            cache = None
        self.cache = cache
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.reporter = reporter or NullReporter()
        self.job_fn = job_fn
        # An explicitly chosen backend is always honored; the implicit
        # default keeps the historical fast path (single-miss waves
        # skip pool startup and run inline).
        self._explicit_backend = executor is not None
        self._owns_backend = not isinstance(executor, ExecutorBackend)
        self._backend = resolve_backend(executor, jobs)
        self._inline = (self._backend
                        if isinstance(self._backend, InlineBackend)
                        else InlineBackend())
        self.metrics = RunnerMetrics()

    @property
    def backend(self) -> ExecutorBackend:
        """The execution substrate this runner submits attempts to."""
        return self._backend

    # -- public API -----------------------------------------------------

    def run(self, specs) -> list[JobOutcome]:
        """Drive every spec to a terminal state.

        Returns one outcome per *distinct* requested spec, in first-
        seen order.  Dependency jobs added for scheduling are executed
        (and cached) but not returned.
        """
        requested: list[RunSpec] = []
        seen: set[str] = set()
        for spec in specs:
            spec_hash = spec.content_hash()
            if spec_hash not in seen:
                seen.add(spec_hash)
                requested.append(spec)

        waves = self._plan_waves(requested, seen)
        self.metrics = RunnerMetrics(
            queued=sum(len(wave) for wave in waves))
        self.reporter.on_start(self.metrics.queued)

        outcomes: dict[str, JobOutcome] = {}
        try:
            for wave in waves:
                self._run_wave(wave, outcomes)
        finally:
            if self._owns_backend:
                self._backend.shutdown(wait=True, cancel_futures=True)
        self.reporter.on_finish(self.metrics)
        return [outcomes[spec.content_hash()] for spec in requested]

    def run_one(self, spec: RunSpec) -> dict:
        """Run a single spec; return its artifact or raise."""
        outcome = self.run([spec])[0]
        if not outcome.ok:
            raise RunnerError(outcome.failure.summary())
        return outcome.artifact

    def artifacts_by_hash(self, specs) -> dict[str, dict]:
        """Run a sweep; map spec hash -> artifact for the successes."""
        return {outcome.spec.content_hash(): outcome.artifact
                for outcome in self.run(specs) if outcome.ok}

    # -- scheduling -----------------------------------------------------

    def _plan_waves(self, requested, seen) -> list[list[RunSpec]]:
        """Topologically bucket jobs: dependencies before dependents.

        With the cache enabled, dependencies of requested jobs are
        injected into the first wave so concurrent dependents share
        one computation through the cache instead of racing on it.
        """
        first: list[RunSpec] = []
        second: list[RunSpec] = []
        for spec in requested:
            dependencies = spec.dependencies()
            if not dependencies:
                first.append(spec)
                continue
            second.append(spec)
            if self.cache is None:
                continue  # nothing to share without a cache
            for dependency in dependencies:
                dep_hash = dependency.content_hash()
                if dep_hash not in seen:
                    seen.add(dep_hash)
                    first.append(dependency)
        return [wave for wave in (first, second) if wave]

    def _run_wave(self, wave, outcomes) -> None:
        misses: list[RunSpec] = []
        for spec in wave:
            artifact = self.cache.load(spec) if self.cache else None
            if artifact is not None:
                self.metrics.queued -= 1
                self.metrics.done += 1
                self.metrics.cache_hits += 1
                outcome = JobOutcome(spec=spec, artifact=artifact,
                                     from_cache=True)
                outcomes[spec.content_hash()] = outcome
                self.reporter.on_job_done(
                    spec, from_cache=True, wall_time=0.0,
                    metrics=self.metrics)
            else:
                self.metrics.cache_misses += 1
                misses.append(spec)
        if not misses:
            return
        backend = self._backend
        if ((self.jobs == 1 or len(misses) == 1)
                and not self._explicit_backend):
            backend = self._inline  # no pool startup for one job
        self._execute(misses, outcomes, backend)

    # -- execution ------------------------------------------------------

    def _width(self, backend: ExecutorBackend, misses: int) -> int:
        """How many attempts may be in flight at once."""
        if not backend.parallel:
            return 1
        width = min(self.jobs, misses)
        if backend.max_workers:
            width = min(width, backend.max_workers)
        return width

    def _execute(self, misses, outcomes, backend) -> None:
        """Drive every miss to a terminal state through ``backend``,
        keeping at most :meth:`_width` attempts in flight."""
        width = self._width(backend, len(misses))
        budget = sweep_deadline(self.timeout) if self.timeout else None
        cache_args = ((None, None) if self.cache is None
                      else (str(self.cache.root), self.cache.salt))
        ready = collections.deque(_JobState(spec) for spec in misses)
        pending: dict = {}     # future -> _JobState
        deadlines: dict = {}   # future -> monotonic sweep deadline
        backoff: list = []     # (monotonic due time, _JobState)

        def submit(job: _JobState) -> None:
            job.submitted = time.monotonic()
            if job.started is None:
                job.started = job.submitted
                self.metrics.queued -= 1
                self.metrics.running += 1
            self.reporter.on_job_start(job.spec, job.attempt)
            future = backend.submit(jobs_module.invoke, self.job_fn,
                                    job.spec, self.timeout, *cache_args)
            pending[future] = job
            if budget is not None:
                deadlines[future] = job.submitted + budget

        def fail(job: _JobState, envelope: dict) -> None:
            failure = AttemptFailure(
                attempt=job.attempt,
                error_type=envelope["error_type"],
                message=envelope["message"],
                traceback=envelope.get("traceback", ""),
                wall_time=envelope.get("wall_time", 0.0))
            job.failures.append(failure)
            if (envelope.get("retryable", True)
                    and self.retry.should_retry(
                        job.attempt, time.monotonic() - job.started)):
                delay = self.retry.delay(
                    job.attempt, previous_delay=job.last_delay,
                    rng=self.retry.attempt_rng(job.spec.content_hash(),
                                               job.attempt))
                job.last_delay = delay
                self.metrics.retries += 1
                self.reporter.on_retry(job.spec, job.attempt, delay,
                                       failure.brief())
                job.attempt += 1
                backoff.append((time.monotonic() + delay, job))
            else:
                outcomes[job.spec.content_hash()] = \
                    self._finish_failure(job)

        backend.start(width)
        while ready or pending or backoff:
            now = time.monotonic()
            # Retries whose backoff ran out go ahead of jobs that have
            # not started yet.
            ready.extendleft(reversed(
                [job for due, job in backoff if due <= now]))
            backoff[:] = [entry for entry in backoff if entry[0] > now]
            while ready and len(pending) < width:
                submit(ready.popleft())
            wake = [due for due, _ in backoff] + list(deadlines.values())
            timeout = (max(0.0, min(wake) - time.monotonic())
                       if wake else None)
            if not pending:
                time.sleep(timeout)
                continue
            done, _ = concurrent.futures.wait(
                pending, timeout=timeout,
                return_when=concurrent.futures.FIRST_COMPLETED)
            for future in done:
                job = pending.pop(future, None)
                deadlines.pop(future, None)
                if job is None:
                    # A pool break earlier in this batch already moved
                    # this job back to ``ready``; the stale future
                    # carries nothing we still need.
                    continue
                try:
                    envelope = future.result()
                except BrokenProcessPool:
                    # The worker died hard (SIGKILL, segfault,
                    # os._exit).  Every sibling future on this
                    # substrate is poisoned; rebuild it and resubmit
                    # the survivors at their current attempt.
                    envelope = jobs_module.failure_envelope(
                        "BrokenProcessPool", "worker process died")
                    backend.restart(width)
                    ready.extendleft(reversed(list(pending.values())))
                    pending.clear()
                    deadlines.clear()
                except Exception as error:  # noqa: BLE001
                    envelope = jobs_module.failure_envelope(
                        type(error).__name__, str(error))
                if envelope["ok"]:
                    outcomes[job.spec.content_hash()] = \
                        self._finish_success(job, envelope)
                else:
                    fail(job, envelope)
            # Deadline sweep: an attempt that outlived both the
            # in-worker enforcement and the sweep margin is wedged
            # below Python (C-level blocking).  Abandon its future so
            # the job fails fast through the normal retry path.
            now = time.monotonic()
            for future in overdue_futures(pending, deadlines, now):
                job = pending.pop(future)
                deadlines.pop(future)
                future.cancel()
                self.metrics.swept += 1
                fail(job, jobs_module.failure_envelope(
                    "JobTimeout",
                    f"job missed its {self.timeout:g}s deadline "
                    f"(pool sweep)",
                    wall_time=now - job.submitted))

    def _finish_success(self, job: _JobState,
                        envelope: dict) -> JobOutcome:
        artifact = envelope["artifact"]
        if self.cache is not None:
            self.cache.store(job.spec, artifact)
        self.metrics.done += 1
        self.metrics.running -= 1
        self.metrics.job_wall_times.append(envelope["wall_time"])
        self.reporter.on_job_done(
            job.spec, from_cache=False, wall_time=envelope["wall_time"],
            metrics=self.metrics)
        return JobOutcome(spec=job.spec, artifact=artifact,
                          attempts=job.attempt,
                          wall_time=envelope["wall_time"])

    def _finish_failure(self, job: _JobState) -> JobOutcome:
        elapsed = time.monotonic() - job.started
        record = FailureRecord(spec=job.spec, attempts=job.failures,
                               total_elapsed=elapsed)
        self.metrics.failed += 1
        self.metrics.running -= 1
        self.reporter.on_job_failed(job.spec, record.last.brief(),
                                    self.metrics)
        return JobOutcome(spec=job.spec, failure=record,
                          attempts=len(job.failures),
                          wall_time=elapsed)
