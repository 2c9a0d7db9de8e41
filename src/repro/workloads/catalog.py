"""One name space for every workload a job can name.

A job names its program by app: a SPLASH-2 stand-in (``fft``), a
commercial stand-in (``sjbb2k``) or a bug-zoo specimen behind a
``zoo:`` prefix (``zoo:lost-update``).  :func:`program_for` is the one
place that turns such a name into a fresh
:class:`~repro.machine.program.Program`; the runner's job kinds, the
fault campaigns, the baseline snapshot, the CLI and the benchmark
harness all build through it, so they agree on which names exist.
"""

from __future__ import annotations

from repro.workloads.bugzoo import BUG_ZOO, zoo_specimen
from repro.workloads.commercial import COMMERCIAL_APPS, commercial_program
from repro.workloads.splash2 import SPLASH2_APPS, splash2_program

_ZOO_PREFIX = "zoo:"

#: The scaled, seeded stand-ins: SPLASH-2 then commercial.
WORKLOAD_APPS = tuple(sorted(SPLASH2_APPS)) + tuple(sorted(COMMERCIAL_APPS))

#: Every name :func:`program_for` builds.  Zoo specimens ignore
#: ``scale``, ``seed`` and ``num_threads``: their shape is the bug.
APP_NAMES = WORKLOAD_APPS + tuple(
    f"{_ZOO_PREFIX}{name}" for name in sorted(BUG_ZOO))


def program_for(app: str, *, scale: float, seed: int,
                num_threads: int = 8):
    """A fresh program for ``app`` (any name in :data:`APP_NAMES`)."""
    if app.startswith(_ZOO_PREFIX):
        return zoo_specimen(app[len(_ZOO_PREFIX):]).build()
    if app in COMMERCIAL_APPS:
        return commercial_program(app, scale=scale, seed=seed,
                                  num_threads=num_threads)
    return splash2_program(app, scale=scale, seed=seed,
                           num_threads=num_threads)


__all__ = ["APP_NAMES", "WORKLOAD_APPS", "program_for"]
