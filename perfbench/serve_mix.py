"""The ``serve-mix`` workload: a ``repro serve --jobs 1`` subprocess on
loopback, driven over its HTTP API by two closed-loop clients.

Each client works through its own share of a seeded list of *units*.
A unit is three requests, each sent only after the previous one is
answered, as a ``repro submit --wait`` caller would:

1. a new ``record`` job (fft or sjbb2k at a small scale);
2. a new ``replay`` job of that recording;
3. a resubmit of the record spec, which the server answers from its
   cache (a hit).

Every answered job is followed by an artifact fetch by hash.  New-work
jobs are followed to their terminal state on ``/v1/jobs/<id>/events``
rather than by polling, so latencies are not quantized.
"""

from __future__ import annotations

import base64
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.serialization import save_recording
from repro.errors import ServeError
from repro.runner.cache import ResultCache, encode_artifact
from repro.runner.jobs import execute_spec, recording_from_artifact
from repro.serve.client import ServeClient
from repro.serve.kinds import build_job_spec
from repro.workloads import COMMERCIAL_APPS, commercial_program, \
    splash2_program

from perfbench.spans import SpanRecorder, percentile

APPS = ("fft", "sjbb2k")
#: ``ExecutionMode`` values: the server admits any string and only
#: fails a hyphenated one at run time.
MODES = ("order_only", "picolog", "order_and_size")
SCALE = 0.2
CLIENTS = 2
#: Each client thinks for a seeded uniform 0..THINK_S seconds before
#: every request.  Without it the two clients stay phase-locked for a
#: whole run, either always or never queueing behind each other, and
#: the latency median jumps between those regimes from run to run.
THINK_S = 0.05
#: Units whose results feed the exact metrics; every run completes
#: them (each client finishes at least EXACT_UNITS / CLIENTS units).
#: 40 units are 80 new-work jobs, fewer than a p90 sample needs.
EXACT_UNITS = 40
#: Units re-executed in-process to check byte-identical artifacts.
REEXEC_UNITS = {False: 1, True: 4}

SETUPS = 3
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0
HTTP_TIMEOUT = 120.0


def unit_params(seed: int, index: int) -> tuple[dict, dict]:
    """Record and replay params of unit ``index``, from ``seed``."""
    rng = random.Random(f"serve-mix:{seed}:{index}")
    record = {"app": APPS[index % len(APPS)],
              "mode": MODES[(index // len(APPS)) % len(MODES)],
              "scale": SCALE, "seed": rng.randrange(1, 1 << 30)}
    replay = dict(record, perturb_seed=rng.randrange(1, 1 << 30))
    return record, replay


# -- the server -------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess with fresh data and cache dirs."""

    def __init__(self, root: Path, workdir: Path, name: str) -> None:
        self.dir = workdir / name
        self.dir.mkdir(parents=True)
        ready = self.dir / "ready"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--data-dir", str(self.dir / "data"),
             "--cache-dir", str(self.dir / "cache"),
             "--ready-file", str(ready)],
            cwd=self.dir, env=env, stdout=self.log,
            stderr=subprocess.STDOUT)
        deadline = time.monotonic() + START_TIMEOUT
        while not (ready.exists() and ready.read_text().endswith("\n")):
            if self.proc.poll() is not None or \
                    time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    f"repro serve did not start (see {self.dir})")
            time.sleep(0.005)
        host, port = ready.read_text().split()
        self.host, self.port = host, int(port)

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=HTTP_TIMEOUT)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def journal_bytes(self) -> int:
        data = self.dir / "data"
        return sum(p.stat().st_size for p in data.glob("queue*.jsonl"))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def follow(client: ServeClient, job_id: str) -> dict:
    """The job's snapshot at its terminal event on its SSE stream."""
    with closing(client.stream(job_id)) as events:
        for _, data in events:
            if data["job"]["state"] in ("done", "failed"):
                return data["job"]
    raise RuntimeError(f"event stream of {job_id} ended before a "
                       f"terminal state")


def start_server(root: Path, workdir: Path, name: str) -> Server:
    """Spawn, wait for ready-file + health, and run one warm-up job."""
    server = Server(root, workdir, name)
    try:
        client = server.client()
        client.health()
        job = client.submit("record", {"app": "fft", "scale": 0.05,
                                       "mode": "order_only"})
        if follow(client, job["id"])["state"] != "done":
            raise RuntimeError("warm-up job failed")
    except BaseException:
        server.stop()
        raise
    return server


# -- the clients ------------------------------------------------------------


@dataclass
class Sample:
    kind: str
    latency_s: float
    submit_s: float
    queue_wait_s: float
    run_s: float
    notify_lag_s: float
    fetch_s: float
    instructions: int
    traced: bool


@dataclass
class ClientLog:
    new: list = field(default_factory=list)
    hits: list = field(default_factory=list)
    hit_fetch_s: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)  # unit -> (rec, rep)
    shed: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


class Mix:
    """Shared state of one measured window."""

    def __init__(self, server: Server, seed: int, seconds: float,
                 min_new: int, min_hits: int, trace: bool,
                 max_seconds: float) -> None:
        self.server = server
        self.seed = seed
        self.seconds = seconds
        self.min_new = min_new
        self.min_hits = min_hits
        self.max_seconds = max_seconds
        self.trace = trace
        self.lock = threading.Lock()
        self.new_done = 0
        self.hits_done = 0
        self.start = 0.0
        self.recorders = [SpanRecorder(trace, tid=c + 1)
                          for c in range(CLIENTS)]
        self.thinkers = [random.Random(f"serve-mix:{seed}:client{c}")
                         for c in range(CLIENTS)]
        self.logs = [ClientLog() for _ in range(CLIENTS)]

    def keep_going(self, units_done: int) -> bool:
        if any(log.problems for log in self.logs):
            return False
        if units_done < EXACT_UNITS // CLIENTS:
            return True
        elapsed = time.perf_counter() - self.start
        if elapsed > self.max_seconds:
            return False
        with self.lock:
            return not (elapsed >= self.seconds
                        and self.new_done >= self.min_new
                        and self.hits_done >= self.min_hits)

    def submit(self, client, log: ClientLog, kind: str, params: dict):
        while True:
            log.attempted += 1
            try:
                return client.submit(kind, params)
            except ServeError as error:
                if error.status != 429:
                    raise
                log.shed += 1
                time.sleep(max(0.05, error.retry_after))

    def new_work(self, c: int, kind: str, params: dict):
        client, log, spans = (self.server.client(), self.logs[c],
                              self.recorders[c])
        with spans.span(f"job:{kind}"):
            t0 = time.perf_counter()
            with spans.span("serve.submit"):
                job = self.submit(client, log, kind, params)
            t1 = time.perf_counter()
            with spans.span("serve.wait_events"):
                final = follow(client, job["id"])
            t2 = time.perf_counter()
            received = time.time()
            if final["state"] != "done":
                log.failed += 1
                log.problems.append(f"{kind} job {job['id']} "
                                    f"{final['state']}: "
                                    f"{final.get('error')}")
                return None
            with spans.span("serve.artifact_fetch"):
                artifact = client.artifact(final["artifact_hash"])
            t3 = time.perf_counter()
        if not self.check(log, job, artifact):
            return None
        metrics = artifact["metrics"]
        if kind == "record":
            instructions = metrics["total_committed_instructions"]
        else:
            instructions = metrics["run_stats"][
                "total_committed_instructions"]
        log.new.append(Sample(
            kind, t2 - t0, t1 - t0,
            final["started_at"] - final["submitted_at"],
            final["finished_at"] - final["started_at"],
            received - final["finished_at"], t3 - t2,
            instructions, spans.enabled))
        with self.lock:
            self.new_done += 1
        return artifact

    def check(self, log: ClientLog, job: dict, artifact: dict) -> bool:
        problem = None
        if artifact.get("spec_hash") != job["spec_hash"]:
            problem = (f"artifact of {job['id']} has spec_hash "
                       f"{artifact.get('spec_hash')}")
        elif job["kind"] == "replay" and not artifact["metrics"]["matches"]:
            problem = f"replay {job['id']} does not match its recording"
        if problem:
            log.failed += 1
            log.problems.append(problem)
        return problem is None

    def hit(self, c: int, params: dict, expected: dict) -> None:
        client, log, spans = (self.server.client(), self.logs[c],
                              self.recorders[c])
        with spans.span("job:hit"):
            t0 = time.perf_counter()
            with spans.span("serve.submit"):
                job = self.submit(client, log, "record", params)
            t1 = time.perf_counter()
            if job["state"] != "done":
                log.failed += 1
                log.problems.append(f"resubmit {job['id']} answered "
                                    f"{job['state']}, not done")
                return
            with spans.span("serve.artifact_fetch"):
                artifact = client.artifact(job["artifact_hash"])
            t2 = time.perf_counter()
        if encode_artifact(artifact) != encode_artifact(expected):
            log.failed += 1
            log.problems.append(f"cache hit {job['id']} returned other "
                                f"bytes than the computed artifact")
            return
        log.hits.append(t1 - t0)
        log.hit_fetch_s.append(t2 - t1)
        with self.lock:
            self.hits_done += 1

    def think(self, c: int) -> None:
        with self.recorders[c].span("client.think"):
            time.sleep(self.thinkers[c].uniform(0.0, THINK_S))

    def client_loop(self, c: int) -> None:
        log = self.logs[c]
        try:
            index = c
            while self.keep_going(len(log.artifacts)):
                record, replay = unit_params(self.seed, index)
                spans = self.recorders[c]
                # Traced and untraced units alternate in a traced run.
                spans.enabled = self.trace and (index // CLIENTS) % 2 == 1
                with spans.span(f"op:unit{index}", spans.new_op()):
                    self.think(c)
                    rec = self.new_work(c, "record", record)
                    rep = None
                    if rec:
                        self.think(c)
                        rep = self.new_work(c, "replay", replay)
                    if rep:
                        self.think(c)
                        self.hit(c, record, rec)
                if rep:
                    log.artifacts[index] = (rec, rep)
                index += CLIENTS
        except Exception as error:  # a client must report, not vanish
            log.failed += 1
            log.problems.append(f"client {c}: {type(error).__name__}: "
                                f"{error}")

    def run(self) -> float:
        self.start = time.perf_counter()
        threads = [threading.Thread(target=self.client_loop, args=(c,))
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - self.start


# -- in-process re-execution ------------------------------------------------


def reexecute(units: list[int], seed: int, artifacts: dict,
              cache_dir: Path, spans: SpanRecorder) -> list[str]:
    """Re-run sampled specs in-process through the runner and compare
    their ``encode_artifact`` bytes with the served artifacts."""
    cache = ResultCache(cache_dir)
    problems = []
    for index in units:
        for kind, params, served in zip(
                ("record", "replay"), unit_params(seed, index),
                artifacts[index]):
            spec = build_job_spec(kind, params)
            with spans.span(f"op:reexec-{kind}{index}", spans.new_op()):
                if kind == "record":
                    build = (commercial_program
                             if spec.app in COMMERCIAL_APPS
                             else splash2_program)
                    with spans.span("workloads.build"):
                        build(spec.app, scale=spec.scale, seed=spec.seed,
                              num_threads=spec.num_threads)
                with spans.span("runner.execute"):
                    artifact = execute_spec(spec, cache)
                with spans.span("runner.encode"):
                    data = encode_artifact(artifact)
                with spans.span("runner.cache_store"):
                    cache.store(spec, artifact)
                with spans.span("runner.cache_load"):
                    cache.load_by_hash(spec.content_hash())
                if kind == "record" and spans.enabled:
                    with spans.span("core.load"):
                        recording = recording_from_artifact(artifact)
                    with spans.span("core.save"):
                        save_recording(recording)
                    with spans.span("compression.size"):
                        recording.memory_ordering.total_size_bits(True)
            if data != encode_artifact(served):
                problems.append(
                    f"unit {index} {kind}: in-process artifact bytes "
                    f"differ from the served artifact")
    return problems


# -- one run ----------------------------------------------------------------


def run(root: Path, seed: int, seconds: float, trace: bool,
        workdir: Path, min_new: int, min_hits: int,
        max_seconds: float = 120.0) -> dict:
    """Set up the server ``SETUPS`` times (keeping the last), measure
    for ``seconds``, then re-execute a sample in-process."""
    setups = []
    server = None
    for attempt in range(SETUPS):
        start = time.perf_counter()
        server = start_server(root, workdir, f"server{attempt}")
        setups.append(time.perf_counter() - start)
        if attempt < SETUPS - 1:
            server.stop()
    try:
        mix = Mix(server, seed, seconds, min_new, min_hits, trace,
                  max_seconds)
        window = mix.run()
        peak_rss = server.peak_rss_mb()
        journal_bytes = server.journal_bytes()
    finally:
        server.stop()
    artifacts = {}
    for log in mix.logs:
        artifacts.update(log.artifacts)
    problems = [p for log in mix.logs for p in log.problems]
    local = SpanRecorder(trace, tid=0)
    if not problems:
        units = sorted(artifacts)[:REEXEC_UNITS[trace]]
        problems += reexecute(units, seed, artifacts,
                              workdir / "reexec-cache", local)
    return {
        "mix": mix,
        "window_s": window,
        "setups": setups,
        "peak_rss_mb": peak_rss,
        "journal_bytes": journal_bytes,
        "artifacts": artifacts,
        "recorders": [local] + mix.recorders,
        "problems": problems,
        "attempted": sum(log.attempted for log in mix.logs),
        "failed": sum(log.failed + log.shed for log in mix.logs),
    }


# -- metrics ----------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def exact_metrics(result: dict) -> dict:
    """Exact results of the first ``EXACT_UNITS`` units' artifacts."""
    pairs = [result["artifacts"][i] for i in range(EXACT_UNITS)]
    records = [rec["metrics"] for rec, _ in pairs]
    replays = [rep["metrics"] for _, rep in pairs]
    stats = [m["run_stats"] for m in records]
    instructions = sum(m["total_committed_instructions"] for m in records)
    squashed = sum(s["total_squashed_instructions"] for s in stats)
    replay_instructions = sum(
        m["run_stats"]["total_committed_instructions"] for m in replays)
    return {
        "log_bits_per_kiloinst": sum(
            m["total_bits_compressed"] for m in records) * 1000.0
            / instructions,
        "record_sim_ipc": instructions / sum(m["cycles"] for m in records),
        "replay_sim_ipc": replay_instructions
            / sum(m["cycles"] for m in replays),
        "chunks.committed": sum(s["total_committed_chunks"] for s in stats),
        "chunks.squash_waste_frac": squashed / (squashed + instructions),
        "chunks.overflow_truncations":
            sum(s["overflow_truncations"] for s in stats),
        "chunks.collision_truncations":
            sum(s["collision_truncations"] for s in stats),
        "chunks.io_truncations": sum(s["io_truncations"] for s in stats),
        "machine.dma_commits": sum(s["dma_commits"] for s in stats),
        "machine.stall_cycles": sum(s["stall_cycles_total"] for s in stats),
        "compression.ratio":
            sum(m["total_bits_raw"] for m in records)
            / sum(m["total_bits_compressed"] for m in records),
        "core.verify_compared_chunks":
            sum(m["compared_chunks"] for m in replays),
        "core.dlrn_bytes": sum(len(base64.b64decode(rec["payload"]))
                               for rec, _ in pairs),
        "runner.artifact_bytes": len(encode_artifact(pairs[0][0])),
    }


def end_to_end(result: dict) -> dict:
    mix = result["mix"]
    samples = [s for log in mix.logs for s in log.new if not s.traced]
    latencies = [s.latency_s for s in samples]
    return {
        "setup_s": statistics.median(result["setups"]),
        "record_inst_per_s": _median(
            s.instructions / s.run_s for s in samples
            if s.kind == "record"),
        "replay_inst_per_s": _median(
            s.instructions / s.run_s for s in samples
            if s.kind == "replay"),
        "jobs_per_s": mix.new_done / result["window_s"],
        "job_latency_p50_s": percentile(latencies, 0.5),
        "job_latency_p90_s": percentile(latencies, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, durations) -> dict:
    """Serve and runner layer metrics; ``durations(name)`` lists the
    traced spans' durations by name."""
    mix = result["mix"]
    new = [s for log in mix.logs for s in log.new]
    traced = [s.latency_s for s in new if s.traced]
    untraced = [s.latency_s for s in new if not s.traced]
    hits = [h for log in mix.logs for h in log.hits]
    fetches = [s.fetch_s for s in new] + [
        f for log in mix.logs for f in log.hit_fetch_s]
    submitted = len(new) + len(hits)
    shed = sum(log.shed for log in mix.logs)
    return {
        "serve.submit_s": _median(s.submit_s for s in new),
        "serve.queue_wait_s": _median(s.queue_wait_s for s in new),
        "serve.run_s": _median(s.run_s for s in new),
        "serve.notify_lag_s": _median(s.notify_lag_s for s in new),
        "serve.artifact_fetch_s": _median(fetches),
        "serve.cache_hit_frac": len(hits) / submitted,
        "serve.shed_frac": shed / max(1, result["attempted"]),
        # +1: the set-up warm-up job shares the journal.
        "serve.journal_bytes_per_job":
            result["journal_bytes"] / (submitted + 1),
        "serve.hit_latency_p50_s": percentile(hits, 0.5) or 0.0,
        "bench.trace_overhead_frac":
            _median(traced) / _median(untraced) - 1.0
            if traced and untraced else 0.0,
        "workloads.build_s": _median(durations("workloads.build")),
        "runner.execute_s": _median(durations("runner.execute")),
        "runner.encode_s": _median(durations("runner.encode")),
        "runner.cache_store_s": _median(durations("runner.cache_store")),
        "runner.cache_load_s": _median(durations("runner.cache_load")),
        "core.load_s": _median(durations("core.load")),
        "core.save_s": _median(durations("core.save")),
        "compression.size_s": _median(durations("compression.size")),
    }
