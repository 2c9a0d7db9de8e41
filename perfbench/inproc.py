"""The in-process workloads: ``splash-rr`` and ``commercial-guarded``.

Both run a fixed, seeded list of programs in passes.  One op handles
one program and holds two jobs: a record job and a replay job.  The
benchmark times each job from outside, around calls into the library's
public functions, and counts work from the returned ``RunStats`` and
reports.

``splash-rr``: fft, raytrace and radix, each under Order&Size,
OrderOnly and PicoLog.  Record job = ``DeLoreanSystem.record`` +
``save_recording``; replay job = ``load_recording`` + a perturbed
``replay`` that verifies the result.  Program build is outside both
jobs, so a faster build moves nothing end to end here.

``commercial-guarded``: sjbb2k and sweb2005 under OrderOnly and
PicoLog.  Record job = ``guard.supervise_record`` with a write-ahead
journal at the default ``flush_every``; replay job =
``load_journal_file`` + ``salvage_replay`` + a perturbed ``replay`` of
the recovered recording.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import (
    DeLoreanSystem,
    ExecutionMode,
    ReplayPerturbation,
    load_recording,
    save_recording,
)
from repro.faults.salvage import salvage_replay
from repro.guard.journal import load_journal_file
from repro.guard.supervisor import supervise_record
from repro.telemetry.tracer import EventTracer
from repro.workloads import commercial_program, splash2_program

from perfbench.spans import SpanRecorder, percentile

SPLASH_APPS = ("fft", "raytrace", "radix")
SPLASH_MODES = (ExecutionMode.ORDER_AND_SIZE, ExecutionMode.ORDER_ONLY,
                ExecutionMode.PICOLOG)
COMMERCIAL_APPS = ("sjbb2k", "sweb2005")
COMMERCIAL_MODES = (ExecutionMode.ORDER_ONLY, ExecutionMode.PICOLOG)

#: Program scale per workload.  splash-rr at 0.5 keeps the simulator's
#: chunk loop the bulk of each job; commercial-guarded is smaller so a
#: run holds enough jobs for a p90 with ten samples beyond it.
SCALES = {"splash-rr": 0.5, "commercial-guarded": 0.3}

#: Leading passes whose results are the exact metrics: as many as the
#: jobs of a p90 sample need, so every untraced run completes them.
EXACT_PASSES = {"splash-rr": 5, "commercial-guarded": 12}

#: Scale of the warm-up op that ends set-up.
WARMUP_SCALE = 0.05


@dataclass(frozen=True)
class Item:
    """One program of a workload's list."""

    app: str
    mode: ExecutionMode
    program_seed: int
    perturb_seed: int

    @property
    def label(self) -> str:
        return f"{self.app}/{self.mode.value}"


def plan(workload: str, seed: int, pass_index: int) -> list[Item]:
    """The programs of one pass, generated from ``seed``.  Every pass
    draws fresh program seeds, so a run's medians and exact totals
    average over many programs rather than hinge on one draw."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "splash-rr":
        pairs = [(a, m) for a in SPLASH_APPS for m in SPLASH_MODES]
    else:
        pairs = [(a, m) for a in COMMERCIAL_APPS for m in COMMERCIAL_MODES]
    return [Item(app, mode, rng.randrange(1, 1 << 30),
                 rng.randrange(1, 1 << 30)) for app, mode in pairs]


@dataclass
class OpResult:
    """What one op did: job times and exact counts."""

    item: Item
    traced: bool
    record_s: float = 0.0
    replay_s: float = 0.0
    instructions: int = 0
    record_cycles: float = 0.0
    replay_cycles: float = 0.0
    verified: bool = False
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _run_stats_counts(stats) -> dict:
    return {
        "chunks.committed": stats.total_committed_chunks,
        "chunks.squashed_instructions": stats.total_squashed_instructions,
        "chunks.overflow_truncations": stats.overflow_truncations,
        "chunks.collision_truncations": stats.collision_truncations,
        "chunks.io_truncations": stats.io_truncations,
        "machine.dma_commits": stats.dma_commits,
        "machine.stall_cycles": stats.stall_cycles_total,
    }


def _log_counts(recording) -> dict:
    ordering = recording.memory_ordering
    return {"log.bits_raw": ordering.total_size_bits(False),
            "log.bits_compressed": ordering.total_size_bits(True)}


def _replay(recording, perturb_seed: int):
    system = DeLoreanSystem(mode=recording.mode_config.mode,
                            machine_config=recording.machine_config,
                            mode_config=recording.mode_config)
    return system.replay(recording,
                         perturbation=ReplayPerturbation(seed=perturb_seed))


def splash_op(item: Item, scale: float, spans: SpanRecorder,
              traced: bool, workdir: Path) -> OpResult:
    out = OpResult(item, traced)
    op = spans.new_op()
    with spans.span(f"op:{item.label}", op):
        with spans.span("workloads.build"):
            program = splash2_program(item.app, scale=scale,
                                      seed=item.program_seed)
        system = DeLoreanSystem(mode=item.mode)
        start = time.perf_counter()
        with spans.span("job:record"):
            with spans.span("core.record"):
                recording = system.record(program)
            with spans.span("core.save"):
                blob = save_recording(recording)
        middle = time.perf_counter()
        with spans.span("job:replay"):
            with spans.span("core.load"):
                loaded = load_recording(blob)
            with spans.span("core.replay"):
                result = _replay(loaded, item.perturb_seed)
        end = time.perf_counter()
        with spans.span("compression.size"):
            counts = _log_counts(recording)
        if traced:
            with spans.span("telemetry.traced_record"):
                system.record(program, tracer=EventTracer())
    out.record_s = middle - start
    out.replay_s = end - middle
    _fill(out, recording, result, counts)
    out.counts["core.dlrn_bytes"] = len(blob)
    return out


def commercial_op(item: Item, scale: float, spans: SpanRecorder,
                  traced: bool, workdir: Path) -> OpResult:
    out = OpResult(item, traced)
    op = spans.new_op()
    journal = workdir / f"op{op}-{os.getpid()}.journal"
    with spans.span(f"op:{item.label}", op):
        with spans.span("workloads.build"):
            program = commercial_program(item.app, scale=scale,
                                         seed=item.program_seed)
        if traced:
            # The unsupervised baseline for guard.overhead_s.
            with spans.span("core.record"):
                DeLoreanSystem(mode=item.mode,
                               stochastic_overflow_rate=0.0
                               ).record(program)
        start = time.perf_counter()
        with spans.span("job:record"):
            with spans.span("guard.supervise_record"):
                report = supervise_record(program, mode=item.mode,
                                          journal_path=str(journal))
        middle = time.perf_counter()
        if not report.ok:
            out.problems.append(
                f"{item.label}: supervised record {report.outcome}")
            return out
        with spans.span("job:replay"):
            with spans.span("guard.load_journal"):
                recovered, info = load_journal_file(str(journal))
            with spans.span("guard.salvage"):
                salvage = salvage_replay(recovered)
            with spans.span("core.replay"):
                result = _replay(recovered, item.perturb_seed)
        end = time.perf_counter()
        with spans.span("core.save"):
            blob = save_recording(report.recording)
        with spans.span("compression.size"):
            counts = _log_counts(report.recording)
    journal.unlink()
    out.record_s = middle - start
    out.replay_s = end - middle
    _fill(out, report.recording, result, counts)
    out.counts.update({
        "core.dlrn_bytes": len(blob),
        "guard.journal_bytes": info.total_bytes,
        "guard.journal_flushes": info.flushes,
    })
    if salvage.coverage != 1.0:
        out.problems.append(
            f"{item.label}: salvage coverage {salvage.coverage}")
    out.counts["guard.salvage_coverage"] = salvage.coverage
    return out


def _fill(out: OpResult, recording, result, counts: dict) -> None:
    out.instructions = recording.total_committed_instructions
    out.record_cycles = recording.stats.cycles
    out.replay_cycles = result.cycles
    out.verified = result.determinism.matches
    if not out.verified:
        out.problems.append(f"{out.item.label}: replay unverified: "
                            f"{result.determinism.summary()}")
    out.counts.update(_run_stats_counts(recording.stats))
    out.counts.update(counts)
    out.counts["core.verify_compared_chunks"] = \
        result.determinism.compared_chunks


OPS = {"splash-rr": splash_op, "commercial-guarded": commercial_op}


def setup(workload: str, seed: int, workdir: Path) -> None:
    """Everything before the first timed op after the imports: one
    warm-up op at a tiny scale."""
    OPS[workload](plan(workload, seed, 0)[0], WARMUP_SCALE,
                  SpanRecorder(False), False, workdir)


# -- metrics --------------------------------------------------------------


def exact_metrics(ops: list[OpResult]) -> dict:
    """Exact (simulated, byte or count) totals of the given ops."""
    total = {}
    for op in ops:
        for key, value in op.counts.items():
            if key != "guard.salvage_coverage":
                total[key] = total.get(key, 0) + value
    instructions = sum(op.instructions for op in ops)
    exact = {
        "log_bits_per_kiloinst":
            total["log.bits_compressed"] * 1000.0 / instructions,
        "record_sim_ipc":
            instructions / sum(op.record_cycles for op in ops),
        "replay_sim_ipc":
            instructions / sum(op.replay_cycles for op in ops),
        "chunks.committed": total["chunks.committed"],
        "chunks.squash_waste_frac": total["chunks.squashed_instructions"]
            / (total["chunks.squashed_instructions"] + instructions),
        "compression.ratio":
            total["log.bits_raw"] / total["log.bits_compressed"],
    }
    for key in ("chunks.overflow_truncations",
                "chunks.collision_truncations", "chunks.io_truncations",
                "machine.dma_commits", "machine.stall_cycles",
                "core.dlrn_bytes", "core.verify_compared_chunks",
                "guard.journal_bytes", "guard.journal_flushes"):
        exact[key] = total.get(key, 0)
    if "guard.journal_bytes" in total:
        exact["guard.journal_blob_ratio"] = (
            total["guard.journal_bytes"] / total["core.dlrn_bytes"])
    return exact


def end_to_end(passes: list[list[OpResult]], setup_s: float) -> dict:
    """End-to-end metrics of the untraced passes."""
    ops = [op for ops in passes for op in ops]
    latencies = [s for op in ops for s in (op.record_s, op.replay_s)]
    return {
        "setup_s": setup_s,
        "record_inst_per_s": statistics.median(
            op.instructions / op.record_s for op in ops),
        "replay_inst_per_s": statistics.median(
            op.instructions / op.replay_s for op in ops),
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_latency_p50_s": percentile(latencies, 0.5),
        "job_latency_p90_s": percentile(latencies, 0.9),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path, min_jobs: int, scale: float | None = None,
        max_seconds: float = 150.0) -> dict:
    """Measure ``workload`` for ``seconds`` in whole passes, and for at
    least ``min_jobs`` untraced jobs and ``EXACT_PASSES`` passes.  With
    ``trace`` the passes alternate untraced and traced."""
    scale = SCALES[workload] if scale is None else scale
    op_fn = OPS[workload]
    spans = SpanRecorder(True)
    quiet = SpanRecorder(False)
    passes: list[tuple[bool, list[OpResult]]] = []
    start = time.perf_counter()
    while True:
        is_traced = trace and len(passes) % 2 == 1
        ops = [op_fn(item, scale, spans if is_traced else quiet,
                     is_traced, workdir)
               for item in plan(workload, seed, len(passes))]
        passes.append((is_traced, ops))
        if any(op.problems for op in ops):
            break
        elapsed = time.perf_counter() - start
        jobs = sum(2 * len(ops) for traced, ops in passes if not traced)
        enough = (elapsed >= seconds and jobs >= min_jobs
                  and len(passes) >= max(2 if trace else 1,
                                         EXACT_PASSES[workload]))
        if enough or elapsed > max_seconds:
            break
    window = time.perf_counter() - start
    all_ops = [op for _, ops in passes for op in ops]
    problems = [p for op in all_ops for p in op.problems]
    exact = {}
    if not problems and len(passes) >= EXACT_PASSES[workload]:
        exact = exact_metrics([op for _, ops in
                               passes[:EXACT_PASSES[workload]]
                               for op in ops])
    return {
        "untraced": [ops for traced, ops in passes if not traced],
        "traced": [ops for traced, ops in passes if traced],
        "spans": spans,
        "window_s": window,
        "exact": exact,
        "problems": problems,
        "attempted": 2 * len(all_ops),
        "failed": sum(1 for op in all_ops if op.problems),
    }


def per_layer(result: dict) -> dict:
    """Layer metrics of the traced passes (per-call medians)."""
    by_op: dict[tuple, dict[str, float]] = {}
    for span in result["spans"].spans:
        by_op.setdefault(span.op, {})[span.name] = span.duration
    traced_ops = [op for ops in result["traced"] for op in ops]
    per_op = [by_op[key] for key in sorted(by_op)]
    if len(per_op) != len(traced_ops):
        raise RuntimeError("traced ops and span groups disagree")

    def median_of(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    def med(name: str) -> float:
        return median_of(d[name] for d in per_op if name in d)

    def med_pair(name: str, base: str, fn) -> float:
        return median_of(fn(d[name], d[base]) for d in per_op
                         if name in d and base in d)

    def seconds_per_inst(passes) -> float:
        return statistics.median(
            sum(op.record_s + op.replay_s for op in ops)
            / sum(op.instructions for op in ops) for ops in passes)

    coverages = [op.counts["guard.salvage_coverage"] for op in traced_ops
                 if "guard.salvage_coverage" in op.counts]
    return {
        "workloads.build_s": med("workloads.build"),
        "core.record_s": med("core.record"),
        "core.host_us_per_chunk": median_of(
            d["core.record"] / op.counts["chunks.committed"] * 1e6
            for d, op in zip(per_op, traced_ops) if "core.record" in d),
        "core.replay_s": med("core.replay"),
        "core.save_s": med("core.save"),
        "core.load_s": med("core.load"),
        "compression.size_s": med("compression.size"),
        "guard.supervised_record_s": med("guard.supervise_record"),
        "guard.overhead_s": med_pair(
            "guard.supervise_record", "core.record", lambda a, b: a - b),
        "guard.journal_load_s": med("guard.load_journal"),
        "guard.salvage_s": med("guard.salvage"),
        "guard.salvage_coverage": min(coverages) if coverages else 0.0,
        "telemetry.tracer_on_overhead_frac": med_pair(
            "telemetry.traced_record", "core.record",
            lambda a, b: a / b - 1.0),
        "bench.trace_overhead_frac":
            seconds_per_inst(result["traced"])
            / seconds_per_inst(result["untraced"]) - 1.0,
    }
