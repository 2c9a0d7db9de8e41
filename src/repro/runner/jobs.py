"""Job execution: the job-kind table, and spec -> result artifact.

:data:`JOB_TABLE` holds one :class:`JobKind` row per job kind: the
kind's parameters (type, default, allowed values, required), the
function that turns resolved parameters into a content-hashed spec,
and the executor that runs such a spec.  Four kinds build a
:class:`~repro.runner.specs.RunSpec` (``record``, ``replay``,
``consistency``, ``explore``); three wrap higher-level campaigns
and build a :class:`~repro.runner.specs.CampaignSpec`:

* ``chaos``   -- a :func:`repro.faults.campaign.run_campaign` fault
  campaign;
* ``salvage`` -- :func:`repro.faults.salvage.salvage_replay` over a
  recording artifact already in the cache (addressed by hash);
* ``bench``   -- a :func:`repro.runner.baseline.collect_baseline`
  performance snapshot.

The serve layer's admission (:mod:`repro.serve.kinds`), the CLI's
``submit`` choices and :func:`execute_spec` all read this one table.

:func:`execute_spec` runs one spec of any kind and packages the
outcome as a JSON-serializable *artifact*::

    {
      "schema": 1,
      "kind": "record" | "replay" | ... | "bench",
      "spec": {...canonical spec...},
      "spec_hash": "...",
      "metrics": {...figure-ready numbers...},
      "payload_codec": "dlrn" | "pickle",   # simulation kinds
      "payload": "<base64>",
    }

``metrics`` carries every number the figure renderers need, so sweeps
can tabulate results without touching the payload.  ``payload`` holds
the full result object -- the native ``save_recording`` container for
recordings, a fixed-protocol pickle for replay/consistency results --
so the benchmark harness can hand callers real ``Recording`` /
``ReplayResult`` / ``InterleavedResult`` instances reconstructed from
cache.  Both encodings are deterministic: executing the same spec
twice yields byte-identical artifacts (the cache determinism guard).
The campaign kinds carry their campaign's report instead of a payload.

:func:`invoke` is the actual pool entry point: it wraps
:func:`execute_spec` with a hard per-job timeout -- SIGALRM on a unix
main thread, an async-raise :class:`~repro.guard.watchdog.WatchdogTimer`
everywhere else -- and converts every failure into a structured,
picklable failure dictionary, so a crashing or hanging job degrades
the sweep instead of poisoning the pool.  The pool itself adds a
deadline sweep on top (see :mod:`repro.runner.pool`) for jobs wedged
where no in-process exception can land.
"""

from __future__ import annotations

import base64
import pickle
import signal
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.baselines import ConsistencyModel, InterleavedExecutor
from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.core.replayer import ReplayPerturbation
from repro.core.serialization import load_recording, save_recording
from repro.errors import ConfigurationError
from repro.runner.specs import CampaignSpec, RunSpec
from repro.workloads import APP_NAMES, WORKLOAD_APPS, program_for

#: Pickle protocol pinned for byte-stable payloads across interpreters.
_PICKLE_PROTOCOL = 4


class JobTimeout(Exception):
    """A job exceeded its per-job wall-clock budget."""


def _program(spec: RunSpec):
    return program_for(spec.app, scale=spec.scale, seed=spec.seed,
                       num_threads=spec.num_threads)


def _base_artifact(spec) -> dict:
    return {
        "schema": 1,
        "kind": spec.kind,
        "spec": spec.canonical(),
        "spec_hash": spec.content_hash(),
    }


def _record_metrics(recording) -> dict:
    ordering = recording.memory_ordering
    total = recording.total_committed_instructions
    return {
        "cycles": recording.stats.cycles,
        "total_committed_instructions": total,
        "num_processors": recording.machine_config.num_processors,
        "pi_bits_raw": ordering.pi_size_bits(False),
        "pi_bits_compressed": ordering.pi_size_bits(True),
        "cs_bits_raw": ordering.cs_size_bits(False),
        "cs_bits_compressed": ordering.cs_size_bits(True),
        "total_bits_raw": ordering.total_size_bits(False),
        "total_bits_compressed": ordering.total_size_bits(True),
        "log_bits_per_proc_per_kiloinst_raw":
            ordering.bits_per_proc_per_kiloinst(total, False),
        "log_bits_per_proc_per_kiloinst_compressed":
            ordering.bits_per_proc_per_kiloinst(total, True),
        "run_stats": recording.stats.as_dict(),
    }


def _run_record(spec: RunSpec, cache=None) -> dict:
    system = DeLoreanSystem(
        mode=spec.execution_mode(),
        machine_config=spec.machine_config(),
        chunk_size=spec.chunk_size or None,
    )
    recording = system.record(_program(spec))
    artifact = _base_artifact(spec)
    artifact["metrics"] = _record_metrics(recording)
    artifact["payload_codec"] = "dlrn"
    artifact["payload"] = base64.b64encode(
        save_recording(recording)).decode("ascii")
    return artifact


def _run_replay(spec: RunSpec, cache=None) -> dict:
    record_spec = spec.record_spec()
    if cache is not None:
        record_artifact = cache.get_or_compute(record_spec,
                                               execute_spec)
    else:
        record_artifact = execute_spec(record_spec)
    recording = recording_from_artifact(record_artifact)
    system = DeLoreanSystem(
        mode=recording.mode_config.mode,
        machine_config=recording.machine_config,
        mode_config=recording.mode_config,
    )
    perturbation = (None if spec.perturb_seed is None
                    else ReplayPerturbation(seed=spec.perturb_seed))
    result = system.replay(recording, perturbation=perturbation,
                           use_strata=spec.use_strata)
    artifact = _base_artifact(spec)
    artifact["metrics"] = {
        "cycles": result.cycles,
        "matches": result.determinism.matches,
        "compared_chunks": result.determinism.compared_chunks,
        "summary": result.determinism.summary(),
        "record_cycles": recording.stats.cycles,
        "run_stats": result.stats.as_dict(),
    }
    artifact["payload_codec"] = "pickle"
    artifact["payload"] = base64.b64encode(
        pickle.dumps(result, protocol=_PICKLE_PROTOCOL)).decode("ascii")
    return artifact


def _run_consistency(spec: RunSpec, cache=None) -> dict:
    executor = InterleavedExecutor(
        _program(spec),
        spec.machine_config(),
        spec.consistency_model(),
        collect_trace=spec.collect_trace,
    )
    result = executor.run()
    artifact = _base_artifact(spec)
    artifact["metrics"] = {
        "cycles": result.cycles,
        "total_instructions": result.total_instructions,
        "ipc": result.ipc,
        "spin_instructions": result.spin_instructions,
        "trace_length": len(result.trace),
    }
    artifact["payload_codec"] = "pickle"
    artifact["payload"] = base64.b64encode(
        pickle.dumps(result, protocol=_PICKLE_PROTOCOL)).decode("ascii")
    return artifact


def _run_explore(spec: RunSpec, cache=None) -> dict:
    # Lazy: repro.explore sits above the runner layer; importing it
    # here (only when an explore spec is executed) avoids the cycle.
    from repro.explore.driver import execute_explore_spec

    return execute_explore_spec(spec, cache)


def _run_chaos(spec: CampaignSpec, cache=None) -> dict:
    from repro.faults.campaign import run_campaign

    params = spec.param_dict
    params["mode"] = ExecutionMode(params["mode"])
    report = run_campaign(**params)
    artifact = _base_artifact(spec)
    artifact["metrics"] = {
        "injected": len(report.results),
        "failures": len(report.failures),
        "invariant_ok": report.invariant_ok,
    }
    artifact["report"] = report.as_dict()
    return artifact


def _run_salvage(spec: CampaignSpec, cache=None) -> dict:
    from repro.faults.salvage import salvage_replay

    params = spec.param_dict
    if cache is None:
        raise ConfigurationError(
            "salvage jobs need a result cache to resolve "
            "recording_hash")
    recording_artifact = cache.load_by_hash(params["recording_hash"])
    if recording_artifact is None:
        raise ConfigurationError(
            f"no cached artifact {params['recording_hash'][:12]}... "
            f"to salvage (record it first)")
    recording = recording_from_artifact(recording_artifact)
    report = salvage_replay(recording,
                            max_events=params.get("max_events"))
    artifact = _base_artifact(spec)
    artifact["metrics"] = {"coverage": report.coverage}
    artifact["report"] = report.as_dict()
    return artifact


def _run_bench(spec: CampaignSpec, cache=None) -> dict:
    from repro.runner.baseline import collect_baseline

    baseline = collect_baseline(**spec.param_dict)
    artifact = _base_artifact(spec)
    artifact["metrics"] = {"modes": sorted(baseline.get("modes", {}))}
    artifact["baseline"] = baseline
    return artifact


@dataclass(frozen=True)
class Param:
    """One job parameter.

    ``type`` coerces the submitted value.  ``default=None`` leaves an
    unset parameter out of the resolved parameters, so the spec
    constructor's own default applies and no null enters a hashed form.
    A non-empty ``choices`` lists the only values the job can run.
    """

    type: type
    default: object = None
    required: bool = False
    choices: tuple = ()


@dataclass(frozen=True)
class JobKind:
    """One row of :data:`JOB_TABLE`."""

    params: dict                      # name -> Param
    build: Callable[..., object]      # resolved params -> spec
    execute: Callable[..., dict]      # (spec, cache) -> artifact


def _campaign_spec(kind: str, **params) -> CampaignSpec:
    return CampaignSpec(kind=kind, params=tuple(params.items()))


def _workload(apps: tuple, scale: float, seed: int) -> dict:
    return {"app": Param(str, "fft", choices=apps),
            "scale": Param(float, scale), "seed": Param(int, seed)}


_MODE = Param(str, "order_only",
              choices=tuple(mode.value for mode in ExecutionMode))
_RUN = {**_workload(APP_NAMES, 1.0, 11), "num_threads": Param(int, 8)}
_CHUNK = {"chunk_size": Param(int, 0)}

#: Every job kind, one row each.  Parameter names are the keyword
#: names of the row's spec constructor (``RunSpec`` classmethods) or,
#: for the campaign kinds, of the function its executor calls.
#: Service-level scheduling parameters (``priority``, ``deadline``)
#: never appear here: admission strips them before validation, so
#: they steer the queue without perturbing the spec's content hash.
JOB_TABLE: dict[str, JobKind] = {
    "record": JobKind(
        {**_RUN, **_CHUNK, "mode": _MODE, "simultaneous": Param(int, 0)},
        RunSpec.record, _run_record),
    "replay": JobKind(
        {**_RUN, **_CHUNK, "mode": _MODE,
         "use_strata": Param(bool, False), "perturb_seed": Param(int)},
        RunSpec.replay, _run_replay),
    "consistency": JobKind(
        {**_RUN, "collect_trace": Param(bool, False),
         "model": Param(str, "sc", choices=tuple(
             model.value for model in ConsistencyModel))},
        RunSpec.consistency, _run_consistency),
    "explore": JobKind(
        {**_RUN, **_CHUNK, "mode": _MODE, "schedule_seed": Param(int)},
        RunSpec.explore, _run_explore),
    "chaos": JobKind(
        {**_workload(WORKLOAD_APPS, 0.25, 1), "mode": _MODE,
         "plan_seed": Param(int, 7), "fault_count": Param(int, 12),
         "checkpoint_every": Param(int, 32)},
        partial(_campaign_spec, "chaos"), _run_chaos),
    "salvage": JobKind(
        {"recording_hash": Param(str, required=True),
         "max_events": Param(int)},
        partial(_campaign_spec, "salvage"), _run_salvage),
    "bench": JobKind(
        {**_workload(WORKLOAD_APPS, 0.3, 11), "jobs": Param(int, 1)},
        partial(_campaign_spec, "bench"), _run_bench),
}

JOB_KINDS = tuple(JOB_TABLE)


def execute_spec(spec, cache=None) -> dict:
    """Run one spec of any kind to completion; return its artifact.

    The ``job_fn`` of the runner, the service and the fleet worker:
    module-level (so it crosses the process-pool boundary) and shaped
    ``(spec, cache)`` for :func:`invoke`.  ``cache`` (a
    :class:`~repro.runner.cache.ResultCache`) lets jobs with
    dependencies -- a replay needs its recording, a salvage its
    recording artifact -- reuse and populate cached intermediates.
    """
    return JOB_TABLE[spec.kind].execute(spec, cache)


def recording_from_artifact(artifact: dict):
    """Materialize a fresh :class:`Recording` from a record artifact."""
    if artifact.get("payload_codec") != "dlrn":
        raise ValueError(
            f"not a record artifact (codec "
            f"{artifact.get('payload_codec')!r})")
    return load_recording(base64.b64decode(artifact["payload"]))


def result_from_artifact(artifact: dict):
    """Materialize the replay/consistency result object."""
    if artifact.get("payload_codec") != "pickle":
        raise ValueError(
            f"not a pickled-result artifact (codec "
            f"{artifact.get('payload_codec')!r})")
    return pickle.loads(base64.b64decode(artifact["payload"]))


def _raise_timeout(signum, frame):
    raise JobTimeout()


def invoke(job_fn, spec: RunSpec, timeout: float | None,
           cache_root, cache_salt) -> dict:
    """Pool entry point: run ``job_fn(spec, cache)`` under a hard
    per-job timeout and map every outcome to a picklable envelope.

    Returns ``{"ok": True, "artifact": ..., "wall_time": ...}`` or
    ``{"ok": False, "error_type": ..., "message": ...,
    "traceback": ..., "wall_time": ...}``.  Never raises: exceptions
    (and their tracebacks) travel as data so an exotic unpicklable
    error cannot wedge the executor.
    """
    from repro.runner.cache import ResultCache

    cache = (ResultCache(cache_root, cache_salt)
             if cache_root is not None else None)
    started = time.perf_counter()
    alarm_set = False
    previous_handler = None
    watchdog = None
    if timeout and hasattr(signal, "SIGALRM"):
        try:
            previous_handler = signal.signal(signal.SIGALRM,
                                             _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            alarm_set = True
        except ValueError:
            # Not the main thread: fall through to the watchdog timer.
            pass
    if timeout and not alarm_set:
        # Worker threads and non-unix platforms: enforce the deadline
        # with an async-raise watchdog instead of dropping enforcement
        # (the pool's deadline sweep backstops C-level blocking).
        from repro.guard.watchdog import WatchdogTimer

        watchdog = WatchdogTimer(timeout, JobTimeout).start()
    try:
        artifact = job_fn(spec, cache)
        return {"ok": True, "artifact": artifact,
                "wall_time": time.perf_counter() - started}
    except JobTimeout:
        return {
            "ok": False,
            "error_type": "JobTimeout",
            "message": f"job exceeded its {timeout:g}s budget",
            "traceback": "",
            "wall_time": time.perf_counter() - started,
        }
    except BaseException as error:  # noqa: BLE001 -- envelope, not loss
        return {
            "ok": False,
            "error_type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
            "wall_time": time.perf_counter() - started,
        }
    finally:
        if alarm_set:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous_handler)
        if watchdog is not None:
            watchdog.cancel()
