"""Admission of ``(kind, params)`` pairs against the job-kind table.

The serve layer speaks in ``(kind, params)`` pairs.  Each kind is one
row of :data:`repro.runner.jobs.JOB_TABLE`, which holds its
parameters and the constructor of its content-hashed spec; the service
and the fleet worker execute every spec through
:func:`repro.runner.jobs.execute_spec`.

:func:`build_job_spec` resolves a submission to its spec with every
default filled in before hashing, so identical work hashes
identically however much of it was spelled out.  That is the serve
layer's core idempotence property: re-running a job (after a crash,
or on a duplicate submission) is answered by the artifact the first
run stored.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.runner.jobs import JOB_KINDS, JOB_TABLE


def _coerce(kind: str, name: str, param, value):
    try:
        if param.type is bool and not isinstance(value, bool):
            raise TypeError  # "true"/1 must not silently coerce
        clean = param.type(value)
        if param.type is float and not math.isfinite(clean):
            raise ValueError  # NaN/inf only fail later, in the worker
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"{kind} parameter {name!r} must be "
            f"{'finite ' if param.type is float else ''}"
            f"{param.type.__name__}, got {value!r}") from None
    if param.choices and clean not in param.choices:
        raise ConfigurationError(
            f"{kind} parameter {name!r} must be one of "
            f"{', '.join(param.choices)}, got {clean!r}")
    return clean


def validate_params(kind: str, params: dict) -> dict:
    """Check, coerce and complete a raw parameter dictionary.

    Returns the resolved parameters: every submitted value coerced to
    its declared type, plus the row's default for each unset
    parameter that has one.  Raises :class:`ConfigurationError` on an
    unknown kind, an unknown or missing required parameter, an
    uncoercible or non-finite value, or a value outside the
    parameter's choices (a ``mode`` or ``app`` the job could only
    fail on later).
    """
    # A tuple scan, not a dict lookup: an unhashable kind from a JSON
    # body must be a 400, not a TypeError.
    if kind not in JOB_KINDS:
        raise ConfigurationError(
            f"unknown job kind {kind!r} "
            f"(expected one of {', '.join(JOB_KINDS)})")
    if not isinstance(params, dict):
        raise ConfigurationError(
            f"{kind} params must be an object, got "
            f"{type(params).__name__}")
    allowed = JOB_TABLE[kind].params
    for name in params:
        if name not in allowed:
            raise ConfigurationError(
                f"{kind} jobs take no parameter {name!r} "
                f"(allowed: {', '.join(sorted(allowed))})")
    resolved: dict = {}
    for name, param in allowed.items():
        if name in params:
            resolved[name] = _coerce(kind, name, param, params[name])
        elif param.required:
            raise ConfigurationError(
                f"{kind} jobs need a {name} parameter")
        elif param.default is not None:
            resolved[name] = param.default
    return resolved


def build_job_spec(kind: str, params: dict):
    """Resolve a ``(kind, params)`` pair to its spec.

    Returns a :class:`~repro.runner.specs.RunSpec` or a
    :class:`~repro.runner.specs.CampaignSpec`; either way the result
    is frozen, picklable and content-hashed.
    """
    resolved = validate_params(kind, params)
    return JOB_TABLE[kind].build(**resolved)


__all__ = ["JOB_KINDS", "build_job_spec", "validate_params"]
