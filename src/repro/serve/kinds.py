"""Job kinds the service accepts and how each one executes.

The serve layer speaks in ``(kind, params)`` pairs.  Four kinds map
straight onto :class:`~repro.runner.specs.RunSpec` (``record``,
``replay``, ``consistency``, ``explore``) and execute through the
runner's :func:`~repro.runner.jobs.execute_spec`.  Three more wrap
higher-level drivers that have no RunSpec form:

* ``chaos``   -- a :func:`repro.faults.campaign.run_campaign` fault
  campaign;
* ``salvage`` -- :func:`repro.faults.salvage.salvage_replay` over a
  recording artifact already in the cache (addressed by hash);
* ``bench``   -- a :func:`repro.runner.baseline.collect_baseline`
  performance snapshot.

Those get a :class:`CampaignSpec`: a frozen, picklable spec with the
same ``canonical()``/``content_hash()``/``label()`` surface as
RunSpec, so the content-addressed :class:`~repro.runner.cache
.ResultCache` and the pool's :func:`~repro.runner.jobs.invoke`
envelope work unchanged for every kind.  One consequence is the serve
layer's core idempotence property: identical submissions hash
identically, so re-running a job (after a crash, or on a duplicate
submission) is answered by the artifact the first run stored.

:func:`execute_job_spec` is the single ``job_fn`` the service hands to
its executor backend -- a module-level function (picklable across the
process-pool boundary) with the ``(spec, cache)`` signature
:func:`~repro.runner.jobs.invoke` expects.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError
from repro.runner.jobs import execute_spec, recording_from_artifact
from repro.runner.specs import RunSpec
from repro.workloads import BUG_ZOO, COMMERCIAL_APPS, SPLASH2_APPS

#: Schema stamp for campaign-spec canonical forms (cache invalidation
#: lever, independent of RunSpec's).
CAMPAIGN_SCHEMA = 1

#: Kinds that resolve to a plain RunSpec.
RUNSPEC_KINDS = ("record", "replay", "consistency", "explore")

#: Kinds that resolve to a CampaignSpec.
CAMPAIGN_KINDS = ("chaos", "salvage", "bench")

JOB_KINDS = RUNSPEC_KINDS + CAMPAIGN_KINDS

#: Per-kind allowed parameters (name -> coercion).  Everything is
#: optional except where :func:`build_job_spec` checks otherwise; an
#: unknown parameter is rejected at admission so typos fail fast
#: instead of silently hashing into a distinct (never-hit) cache key.
#: Service-level scheduling parameters (``priority``, ``deadline``)
#: never appear here: admission's
#: :func:`~repro.serve.admission.split_service_params` strips them
#: before validation, so they steer the queue without perturbing the
#: spec's content hash (the same work at two priorities is still one
#: cached artifact).
_COMMON = {"app": str, "scale": float, "seed": int}
_PARAMS = {
    "record": {**_COMMON, "mode": str, "chunk_size": int,
               "num_threads": int, "simultaneous": int},
    "replay": {**_COMMON, "mode": str, "chunk_size": int,
               "num_threads": int, "use_strata": bool,
               "perturb_seed": int},
    "consistency": {**_COMMON, "model": str, "num_threads": int,
                    "collect_trace": bool},
    "explore": {**_COMMON, "mode": str, "chunk_size": int,
                "num_threads": int, "schedule_seed": int},
    "chaos": {**_COMMON, "mode": str, "plan_seed": int,
              "fault_count": int, "checkpoint_every": int},
    "salvage": {"recording_hash": str, "max_events": int},
    "bench": {**_COMMON, "jobs": int},
}

_MODES = tuple(mode.value for mode in ExecutionMode)
_APPS = tuple(sorted(SPLASH2_APPS)) + tuple(sorted(COMMERCIAL_APPS))
#: Bug-zoo specimens resolve only through a RunSpec program build.
_ZOO_APPS = tuple(f"zoo:{name}" for name in sorted(BUG_ZOO))


def _check_choices(kind: str, clean: dict) -> None:
    """Reject a ``mode`` or ``app`` the job could only fail on later."""
    mode = clean.get("mode")
    if mode is not None and mode not in _MODES:
        raise ConfigurationError(
            f"{kind} parameter 'mode' must be one of "
            f"{', '.join(_MODES)}, got {mode!r}")
    app = clean.get("app")
    apps = _APPS + (_ZOO_APPS if kind in RUNSPEC_KINDS else ())
    if app is not None and app not in apps:
        raise ConfigurationError(
            f"{kind} parameter 'app' must be one of "
            f"{', '.join(apps)}, got {app!r}")


def validate_params(kind: str, params: dict) -> dict:
    """Check and coerce a raw parameter dictionary for ``kind``.

    Returns a new dictionary with every value coerced to its declared
    type; raises :class:`ConfigurationError` on an unknown kind, an
    unknown parameter, an uncoercible value, or a ``mode`` or ``app``
    that names no execution mode or workload.
    """
    if kind not in JOB_KINDS:
        raise ConfigurationError(
            f"unknown job kind {kind!r} "
            f"(expected one of {', '.join(JOB_KINDS)})")
    if not isinstance(params, dict):
        raise ConfigurationError(
            f"{kind} params must be an object, got "
            f"{type(params).__name__}")
    allowed = _PARAMS[kind]
    clean: dict = {}
    for name, value in params.items():
        if name not in allowed:
            raise ConfigurationError(
                f"{kind} jobs take no parameter {name!r} "
                f"(allowed: {', '.join(sorted(allowed))})")
        coerce = allowed[name]
        try:
            if coerce is bool and not isinstance(value, bool):
                raise TypeError  # "true"/1 must not silently coerce
            clean[name] = coerce(value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{kind} parameter {name!r} must be "
                f"{coerce.__name__}, got {value!r}") from None
    _check_choices(kind, clean)
    return clean


@dataclass(frozen=True)
class CampaignSpec:
    """Content-hashed spec for the non-RunSpec kinds.

    Mirrors the RunSpec cache contract: ``canonical()`` is a
    fully-determined JSON-stable dictionary, ``content_hash()`` its
    SHA-256, ``label()`` a short human name.  ``params`` is a sorted
    tuple of ``(name, value)`` pairs so the dataclass stays hashable
    and order-insensitive to construct.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in CAMPAIGN_KINDS:
            raise ConfigurationError(
                f"unknown campaign kind {self.kind!r}")
        object.__setattr__(
            self, "params",
            tuple(sorted((str(k), v) for k, v in self.params)))

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def canonical(self) -> dict:
        data = {"schema": CAMPAIGN_SCHEMA, "kind": self.kind}
        for name, value in self.params:
            data[name] = repr(value) if isinstance(value, float) \
                else value
        return data

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(
            self.canonical_json().encode()).hexdigest()

    def label(self) -> str:
        params = self.param_dict
        app = params.get("app") or \
            params.get("recording_hash", "")[:12]
        return f"{self.kind}:{app}" if app else self.kind


def build_job_spec(kind: str, params: dict):
    """Resolve a validated ``(kind, params)`` pair to its spec.

    Returns a :class:`RunSpec` or a :class:`CampaignSpec`; either way
    the result is frozen, picklable and content-hashed.
    """
    params = validate_params(kind, params)
    if kind == "record":
        return RunSpec.record(
            params.get("app", "fft"), params.get("mode", "order_only"),
            chunk_size=params.get("chunk_size", 0),
            num_threads=params.get("num_threads", 8),
            simultaneous=params.get("simultaneous", 0),
            scale=params.get("scale", 1.0), seed=params.get("seed", 11))
    if kind == "replay":
        return RunSpec.replay(
            params.get("app", "fft"), params.get("mode", "order_only"),
            use_strata=params.get("use_strata", False),
            perturb_seed=params.get("perturb_seed"),
            chunk_size=params.get("chunk_size", 0),
            num_threads=params.get("num_threads", 8),
            scale=params.get("scale", 1.0), seed=params.get("seed", 11))
    if kind == "consistency":
        return RunSpec.consistency(
            params.get("app", "fft"), params.get("model", "sc"),
            num_threads=params.get("num_threads", 8),
            collect_trace=params.get("collect_trace", False),
            scale=params.get("scale", 1.0), seed=params.get("seed", 11))
    if kind == "explore":
        return RunSpec.explore(
            params.get("app", "fft"), params.get("mode", "order_only"),
            schedule_seed=params.get("schedule_seed"),
            num_threads=params.get("num_threads", 8),
            chunk_size=params.get("chunk_size", 0),
            scale=params.get("scale", 1.0), seed=params.get("seed", 11))
    if kind == "salvage" and "recording_hash" not in params:
        raise ConfigurationError(
            "salvage jobs need a recording_hash parameter")
    return CampaignSpec(kind=kind, params=tuple(params.items()))


def _campaign_artifact(spec: CampaignSpec, body: dict) -> dict:
    return {
        "schema": 1,
        "kind": spec.kind,
        "spec": spec.canonical(),
        "spec_hash": spec.content_hash(),
        **body,
    }


def _run_chaos(spec: CampaignSpec, cache) -> dict:
    from repro.core.modes import ExecutionMode
    from repro.faults.campaign import run_campaign

    params = spec.param_dict
    report = run_campaign(
        params.get("app", "fft"),
        ExecutionMode(params.get("mode", "order_only")),
        scale=params.get("scale", 0.25), seed=params.get("seed", 1),
        plan_seed=params.get("plan_seed", 7),
        fault_count=params.get("fault_count", 12),
        checkpoint_every=params.get("checkpoint_every", 32))
    return _campaign_artifact(spec, {
        "metrics": {
            "injected": len(report.results),
            "failures": len(report.failures),
            "invariant_ok": report.invariant_ok,
        },
        "report": report.as_dict(),
    })


def _run_salvage(spec: CampaignSpec, cache) -> dict:
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
    return _campaign_artifact(spec, {
        "metrics": {"coverage": report.coverage},
        "report": report.as_dict(),
    })


def _run_bench(spec: CampaignSpec, cache) -> dict:
    from repro.runner.baseline import collect_baseline

    params = spec.param_dict
    baseline = collect_baseline(
        params.get("app", "fft"), scale=params.get("scale", 0.3),
        seed=params.get("seed", 11), jobs=params.get("jobs", 1))
    return _campaign_artifact(spec, {
        "metrics": {"modes": sorted(baseline.get("modes", {}))},
        "baseline": baseline,
    })


_CAMPAIGN_RUNNERS = {
    "chaos": _run_chaos,
    "salvage": _run_salvage,
    "bench": _run_bench,
}


def execute_job_spec(spec, cache=None) -> dict:
    """The service's ``job_fn``: run any spec kind to an artifact.

    Module-level and importable by name, so it crosses the
    process-pool boundary, and shaped ``(spec, cache)`` to slot into
    :func:`repro.runner.jobs.invoke` unchanged.
    """
    if isinstance(spec, RunSpec):
        return execute_spec(spec, cache)
    return _CAMPAIGN_RUNNERS[spec.kind](spec, cache)


__all__ = [
    "CAMPAIGN_KINDS",
    "CampaignSpec",
    "JOB_KINDS",
    "RUNSPEC_KINDS",
    "build_job_spec",
    "execute_job_spec",
    "validate_params",
]
