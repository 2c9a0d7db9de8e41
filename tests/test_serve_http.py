"""End-to-end tests for the HTTP front end.

Most tests run a real :class:`ServeServer` on an ephemeral port inside
a background thread, with an injected instant ``job_fn`` so they stay
fast.  The crash test at the bottom is the full acceptance scenario:
a real ``python -m repro serve`` subprocess, SIGKILLed mid-campaign,
restarted on the same data directory -- every accepted job must reach
a terminal state exactly once with its artifact retrievable.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.runner import ResultCache
from repro.runner.cache import encode_artifact
from repro.serve import http as http_module
from repro.serve.client import ServeClient
from repro.serve.http import ServeServer
from repro.serve.service import ReproService
from repro.telemetry.metrics import MetricsRegistry

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def fake_job(spec, cache=None):
    return {"schema": 1, "spec_hash": spec.content_hash(),
            "kind": getattr(spec, "kind", "?"), "payload": "ok"}


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("cache",
                      ResultCache(tmp_path / "cache", salt="http-t"))
    kwargs.setdefault("executor", "inline")
    kwargs.setdefault("job_fn", fake_job)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ReproService(tmp_path / "data", **kwargs)


@contextmanager
def running_server(service):
    """A live server on an ephemeral port, torn down on exit."""
    box: dict = {}
    ready = threading.Event()

    def run():
        async def main():
            stop = asyncio.Event()
            server = ServeServer(service, "127.0.0.1", 0)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            box["stop"] = stop
            ready.set()
            await stop.wait()
            await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield box["server"]
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(15)


class TestEndpoints:
    def test_submit_stream_fetch_roundtrip(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            assert client.health()["ok"]

            job = client.submit("record", {"seed": 1, "scale": 0.05})
            assert job["state"] in ("queued", "running", "done")
            final = client.wait(job["id"], timeout=30)
            assert final["state"] == "done"

            # SSE: full per-job history, strictly ordered.
            events = list(client.stream(job["id"]))
            states = [data["job"]["state"] for _, data in events]
            assert states == ["queued", "running", "done"]
            ids = [event_id for event_id, _ in events]
            assert ids == sorted(ids) and len(set(ids)) == len(ids)

            # SSE resume: ?after=N replays only what follows N.
            resumed = list(client.stream(job["id"], after=ids[0]))
            assert [event_id for event_id, _ in resumed] == ids[1:]

            # SSE resume via the Last-Event-ID header.
            conn = http.client.HTTPConnection("127.0.0.1",
                                              server.port, timeout=10)
            conn.request("GET", f"/v1/jobs/{job['id']}/events",
                         headers={"Last-Event-ID": str(ids[1])})
            response = conn.getresponse()
            assert response.getheader("Content-Type") == \
                "text/event-stream"
            header_ids = [int(line[3:])
                          for line in response.read().decode()
                          .splitlines() if line.startswith("id:")]
            conn.close()
            assert header_ids == ids[2:]

            # Artifact fetch by content hash.
            artifact = client.artifact(final["artifact_hash"])
            assert artifact["spec_hash"] == final["artifact_hash"]

            # Identical resubmission: answered from cache.
            dup = client.submit("record", {"seed": 1, "scale": 0.05})
            assert dup["state"] == "done" and dup["from_cache"]
            assert dup["artifact_hash"] == final["artifact_hash"]
            stats = client.stats()
            assert stats["metrics"]["serve_cache_hits"] == 1
            assert stats["queue"]["done"] == 2

            # Listing filters.
            assert len(client.jobs(state="done")) == 2
            assert client.jobs(tenant="nobody") == []

    def test_bad_submissions_get_400(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            with pytest.raises(ServeError) as err:
                client.submit("record", {"warp": 9})
            assert err.value.status == 400
            for kind, params in [("dance", {}), (["record"], {}),
                                 ("record", "seed=1")]:
                with pytest.raises(ServeError) as err:
                    client.submit(kind, params)
                assert err.value.status == 400

    def test_unknown_mode_or_app_gets_400(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            for kind, params in [("record", {"mode": "order-only"}),
                                 ("record", {"app": "nope"}),
                                 ("explore", {"mode": "bogus"})]:
                with pytest.raises(ServeError) as err:
                    client.submit(kind, params)
                assert err.value.status == 400
                assert "must be one of" in str(err.value)
            assert client.jobs() == []

    def test_raw_nan_body_gets_400(self, tmp_path):
        """json.loads accepts bare NaN/Infinity; admission must not."""
        service = make_service(tmp_path)
        with running_server(service) as server:
            for literal in ("NaN", "Infinity"):
                conn = http.client.HTTPConnection("127.0.0.1",
                                                  server.port, timeout=10)
                conn.request(
                    "POST", "/v1/jobs",
                    body=('{"kind": "record", "params": {"scale": %s}}'
                          % literal).encode(),
                    headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                error = json.loads(response.read())["error"]
                conn.close()
                assert response.status == 400
                assert "finite" in error
            assert ServeClient(port=server.port).jobs() == []

    def test_unknown_resources_get_404(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            for call in (lambda: client.job("j999999-nope"),
                         lambda: client.artifact("f" * 64)):
                with pytest.raises(ServeError) as err:
                    call()
                assert err.value.status == 404

    def test_flood_sheds_with_429_and_retry_after(self, tmp_path):
        gate = threading.Event()

        def gated_job(spec, cache=None):
            gate.wait(15)
            return fake_job(spec)

        service = make_service(tmp_path, capacity=2,
                               job_fn=gated_job)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            first = client.submit("record", {"seed": 1})
            second = client.submit("record", {"seed": 2})
            with pytest.raises(ServeError) as err:
                client.submit("record", {"seed": 3})
            assert err.value.status == 429
            assert err.value.retry_after >= 1.0
            assert "queue full" in str(err.value)
            gate.set()
            assert client.wait(first["id"], timeout=30)["state"] == \
                "done"
            assert client.wait(second["id"], timeout=30)["state"] == \
                "done"
            stats = client.stats()
            assert stats["metrics"]["serve_rejected"] == 1


class TestArtifactFetch:
    def test_fetch_runs_off_the_event_loop(self, tmp_path):
        """A slow artifact lookup must not stall other requests: with
        the lookup blocked, ``/healthz`` still answers."""
        service = make_service(tmp_path)
        release = threading.Event()
        entered = threading.Event()
        lookup = service.artifact_bytes

        def blocked_lookup(artifact_hash):
            entered.set()
            release.wait(15)
            return lookup(artifact_hash)

        service.artifact_bytes = blocked_lookup
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            job = client.submit("record", {"seed": 1, "scale": 0.05})
            final = client.wait(job["id"], timeout=30)
            fetched: dict = {}
            fetcher = threading.Thread(target=lambda: fetched.update(
                client.artifact(final["artifact_hash"])))
            fetcher.start()
            try:
                assert entered.wait(10)
                health = ServeClient(port=server.port, timeout=5)
                assert health.health()["ok"]
                assert fetcher.is_alive()
            finally:
                release.set()
                fetcher.join(15)
            assert fetched["spec_hash"] == final["artifact_hash"]

    def test_body_is_the_stored_canonical_encoding(self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            job = client.submit("record", {"seed": 1, "scale": 0.05})
            artifact_hash = client.wait(job["id"],
                                        timeout=30)["artifact_hash"]
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=10)
            conn.request("GET", f"/v1/artifacts/{artifact_hash}")
            response = conn.getresponse()
            body = response.read()
            conn.close()
            assert response.status == 200
            assert response.getheader("Content-Length") == str(len(body))
            path = service.cache.path_for_hash(artifact_hash)
            assert body == path.read_bytes()
            assert body == encode_artifact(json.loads(body))

    def test_corrupt_or_foreign_cache_file_is_dropped_not_served(
            self, tmp_path):
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            for content in (b"{not json", b"[1, 2]",
                            encode_artifact({"spec_hash": "0" * 64})):
                artifact_hash = "ab" * 32
                path = service.cache.path_for_hash(artifact_hash)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(content)
                with pytest.raises(ServeError) as err:
                    client.artifact(artifact_hash)
                assert err.value.status == 404
                assert not path.exists()

    def test_path_outside_the_store_is_neither_read_nor_dropped(
            self, tmp_path):
        """Only a 64-hex content hash names an artifact: a traversal
        segment is a 404 and leaves the file it points at alone."""
        service = make_service(tmp_path)
        # <cache>/<salt>/<hash[:2]>/<hash>.json with hash "../victim"
        # resolves to <tmp_path>/victim.json once the salt directory
        # exists, as it does after the first store.
        (service.cache.root / service.cache.salt).mkdir(parents=True)
        victim = tmp_path / "victim.json"
        victim.write_bytes(b'{"spec_hash": "../victim"}')
        assert (service.cache.path_for_hash("../victim").resolve()
                == victim.resolve())
        with running_server(service) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=10)
            for target in ("/v1/artifacts/../victim",
                           "/v1/artifacts/" + "AB" * 32):
                conn.request("GET", target)
                response = conn.getresponse()
                response.read()
                assert response.status == 404, target
            conn.close()
        assert service.cache.load_by_hash("../victim") is None
        assert victim.read_bytes() == b'{"spec_hash": "../victim"}'


class TestDispatch:
    def test_idle_worker_wakes_on_submit_not_on_its_nap(
            self, tmp_path, monkeypatch):
        """A submit wakes the idle worker task at once: with the nap
        stretched to 5 s, a tiny record job still finishes well
        inside it."""
        monkeypatch.setattr(http_module, "WORKER_IDLE_NAP", 5.0)
        service = make_service(tmp_path)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            time.sleep(0.3)  # the worker found nothing and is napping
            started = time.perf_counter()
            job = client.submit("record", {"seed": 1, "scale": 0.05})
            events = list(client.stream(job["id"]))
            elapsed = time.perf_counter() - started
            assert events[-1][1]["job"]["state"] == "done"
            assert elapsed < 2.0, elapsed

    def test_concurrent_submits_strand_no_job(self, tmp_path,
                                              monkeypatch):
        """More worker tasks than cores, each with its own wake-up
        event, and submits race with claims from several threads:
        every job still finishes without waiting out the (5 s) nap."""
        monkeypatch.setattr(http_module, "WORKER_IDLE_NAP", 5.0)
        service = make_service(tmp_path, jobs=4, capacity=64,
                               tenant_quota=64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running_server(service) as server:
                client = ServeClient(port=server.port)
                time.sleep(0.3)  # every worker task is napping
                ids: list = []
                lock = threading.Lock()

                def submit_some(base):
                    for offset in range(6):
                        job = client.submit("record",
                                            {"seed": base + offset})
                        with lock:
                            ids.append(job["id"])

                started = time.perf_counter()
                submitters = [threading.Thread(target=submit_some,
                                               args=(100 * index,))
                              for index in range(4)]
                for thread in submitters:
                    thread.start()
                for thread in submitters:
                    thread.join(30)
                    assert not thread.is_alive()
                for job_id in ids:
                    events = list(client.stream(job_id))
                    assert events[-1][1]["job"]["state"] == "done"
                elapsed = time.perf_counter() - started
        finally:
            sys.setswitchinterval(interval)
        assert len(set(ids)) == 24
        assert elapsed < 4.0, elapsed


class TestAuthOverHTTP:
    def test_writes_need_the_token_reads_stay_open(self, tmp_path):
        service = make_service(tmp_path, executor="remote",
                               auth_token="sekrit")
        with running_server(service) as server:
            anon = ServeClient(port=server.port)
            assert anon.health()["ok"]  # reads are open
            assert anon.jobs() == []

            for call in (lambda: anon.submit("record", {"seed": 1}),
                         lambda: anon.claim("w1"),
                         lambda: anon.heartbeat("w1", "j", "l"),
                         lambda: anon.complete("w1", "j", "l", {})):
                with pytest.raises(ServeError) as err:
                    call()
                assert err.value.status == 401
                # No detail leaks: not why, not what would match.
                assert str(err.value) == "unauthorized"

            wrong = ServeClient(port=server.port, token="skerit")
            with pytest.raises(ServeError) as err:
                wrong.submit("record", {"seed": 1})
            assert err.value.status == 401

            good = ServeClient(port=server.port, token="sekrit")
            job = good.submit("record", {"seed": 1, "scale": 0.05})
            assert good.wait(job["id"], timeout=30)["state"] == "done"


class TestFleetWireProtocol:
    def test_claim_heartbeat_complete_over_http(self, tmp_path):
        import hashlib

        from repro.runner.cache import encode_artifact
        from repro.serve.kinds import build_job_spec

        service = make_service(tmp_path, executor="remote")
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            # First contact marks the fleet live (and gates the local
            # fallback) before anything is queued.
            assert client.claim("w1")["job"] is None
            census = client.workers()
            assert census["remote"] and not census["degraded"]
            assert census["workers"] == ["w1"]

            submitted = client.submit(
                "record", {"seed": 7, "scale": 0.05})
            reply = client.claim("w1", lease_ttl=30.0)
            job, lease = reply["job"], reply["lease"]
            assert job["id"] == submitted["id"]
            assert reply["heartbeat_interval"] == \
                pytest.approx(10.0)

            renewed = client.heartbeat("w1", job["id"],
                                       lease["lease_id"])
            assert renewed["ok"]
            with pytest.raises(ServeError) as err:
                client.heartbeat("w1", job["id"], "forged")
            assert err.value.status == 409
            assert "lease lost" in str(err.value)

            spec = build_job_spec(job["kind"], job["params"])
            artifact = fake_job(spec)
            digest = hashlib.sha256(
                encode_artifact(artifact)).hexdigest()
            result = client.complete(
                "w1", job["id"], lease["lease_id"],
                {"ok": True, "artifact": artifact,
                 "wall_time": 0.01}, digest)
            assert result["status"] == "ok"
            final = client.job(job["id"])
            assert final["state"] == "done"
            assert client.artifact(final["artifact_hash"]) == artifact

    def test_worker_routes_409_outside_fleet_mode(self, tmp_path):
        service = make_service(tmp_path)  # inline: no fleet
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            with pytest.raises(ServeError) as err:
                client.claim("w1")
            assert err.value.status == 409
            assert "not running a remote worker fleet" in \
                str(err.value)


class TestCompactionResumeOverHTTP:
    def test_sse_and_listing_survive_compaction(self, tmp_path):
        """A cursor older than the compaction horizon gets the full
        retained snapshot (no silent gap); listings are complete."""
        submitted = []
        service = make_service(tmp_path, segment_bytes=4096,
                               compact_after=1)
        with running_server(service) as server:
            client = ServeClient(port=server.port)
            for seed in range(20):
                job = client.submit("record",
                                    {"seed": seed, "scale": 0.05})
                submitted.append(job["id"])
            for job_id in submitted:
                client.wait(job_id, timeout=60)
        service.close()
        assert service.queue.compactions >= 1

        again = make_service(tmp_path, segment_bytes=4096,
                             compact_after=1)
        with running_server(again) as server:
            client = ServeClient(port=server.port)
            stats = client.stats()
            horizon = stats["journal"]["compacted_through"]
            assert horizon > 0

            # The listing shows every job despite the dissolved
            # per-transition history.
            jobs = client.jobs()
            assert sorted(j["id"] for j in jobs) == sorted(submitted)
            assert all(j["state"] == "done" for j in jobs)

            # Resume from inside the dissolved range: the feed falls
            # back to the full snapshot -- events at or below the
            # requested cursor ARE re-delivered.
            full = _drain_events(server.port, after=0)
            stale_cursor = _drain_events(server.port,
                                         after=horizon - 1)
            assert stale_cursor == full
            assert any(event_id <= horizon - 1
                       for event_id, _ in stale_cursor)

            # A cursor at the tip resumes normally: nothing new.
            tip = max(event_id for event_id, _ in full)
            assert _drain_events(server.port, after=tip) == []
        again.close()


def _drain_events(port, after):
    """Read the global SSE feed until it goes quiet; return events."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
    events = []
    try:
        conn.request("GET", f"/v1/events?after={after}")
        response = conn.getresponse()
        event_id = 0
        for raw in response:
            line = raw.decode().rstrip("\r\n")
            if line.startswith("id:"):
                event_id = int(line[3:].strip())
            elif line.startswith("data:"):
                events.append((event_id,
                               json.loads(line[5:].strip())))
    except (TimeoutError, OSError):
        pass  # the feed never ends; quiet = drained
    finally:
        conn.close()
    return events


# -- the acceptance scenario: SIGKILL a real server mid-campaign ------


def _serve_env(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_CACHE_SALT"] = "kill-test"
    return env


def _start_serve(tmp_path, env):
    ready = tmp_path / "ready"
    if ready.exists():
        ready.unlink()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--jobs", "1",
         "--data-dir", str(tmp_path / "data"),
         "--ready-file", str(ready)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if ready.exists() and ready.read_text().strip():
            host, port = ready.read_text().split()
            return proc, int(port)
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    proc.kill()
    raise AssertionError("serve subprocess never became ready")


class TestCrashRecoveryOverHTTP:
    def test_sigkill_mid_campaign_loses_nothing(self, tmp_path):
        env = _serve_env(tmp_path)
        proc, port = _start_serve(tmp_path, env)
        try:
            client = ServeClient(port=port, timeout=30)
            submitted = [
                client.submit("record", {"seed": seed, "scale": 0.08,
                                         "app": "fft"})["id"]
                for seed in (201, 202, 203)]

            # Wait until the campaign is genuinely mid-flight.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                states = {j["id"]: j["state"] for j in client.jobs()}
                if any(s in ("running", "done")
                       for s in states.values()):
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        # Restart on the same data directory: recovery requeues the
        # killed job and the workers drain the survivors.
        proc, port = _start_serve(tmp_path, env)
        try:
            client = ServeClient(port=port, timeout=30)
            deadline = time.monotonic() + 240
            jobs = []
            while time.monotonic() < deadline:
                jobs = client.jobs()
                if len(jobs) == 3 and \
                        all(j["state"] in ("done", "failed")
                            for j in jobs):
                    break
                time.sleep(0.5)

            # Every accepted job reached a terminal state exactly
            # once, none was lost, none was duplicated.
            assert sorted(j["id"] for j in jobs) == sorted(submitted)
            assert all(j["state"] == "done" for j in jobs), jobs
            for job in jobs:
                artifact = client.artifact(job["artifact_hash"])
                assert artifact["spec_hash"] == job["artifact_hash"]

            # The SSE log spans the restart: a fresh stream replays
            # pre-crash transitions seeded from the journal.
            events = list(client.stream(submitted[0]))
            states = [data["job"]["state"] for _, data in events]
            assert states[0] == "queued"
            assert states[-1] == "done"
            ids = [event_id for event_id, _ in events]
            assert ids == sorted(ids) and len(set(ids)) == len(ids)

            stats = client.stats()
            assert stats["journal"]["recovered_jobs"] == 3
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
