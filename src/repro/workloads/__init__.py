"""Synthetic concurrent workloads standing in for the paper's suites.

The paper evaluates SPLASH-2 (all applications but Volrend),
SPECjbb2000 and SPECweb2005.  We cannot run those binaries inside a
behavioral Python simulator, so this subpackage generates synthetic
concurrent programs whose *sharing structure* -- the property DeLorean's
logs and performance actually depend on -- is parameterized per
application: working-set size, fraction of shared accesses, lock
contention, barrier cadence, load imbalance, and (for the commercial
workloads) interrupt/DMA/I-O system activity.  See DESIGN.md for the
substitution argument.
"""

from repro.workloads.program_builder import ProgramBuilder
from repro.workloads.synthetic import (
    SyntheticSpec,
    build_program,
)
from repro.workloads.splash2 import (
    SPLASH2_APPS,
    splash2_program,
    splash2_spec,
)
from repro.workloads.commercial import (
    COMMERCIAL_APPS,
    commercial_program,
    commercial_spec,
)
from repro.workloads.bugzoo import (
    BUG_ZOO,
    InvariantVerdict,
    ZooSpecimen,
    zoo_specimen,
)
from repro.workloads.catalog import APP_NAMES, WORKLOAD_APPS, program_for

__all__ = [
    "APP_NAMES",
    "WORKLOAD_APPS",
    "program_for",
    "BUG_ZOO",
    "InvariantVerdict",
    "ZooSpecimen",
    "zoo_specimen",
    "ProgramBuilder",
    "SyntheticSpec",
    "build_program",
    "SPLASH2_APPS",
    "splash2_program",
    "splash2_spec",
    "COMMERCIAL_APPS",
    "commercial_program",
    "commercial_spec",
]
