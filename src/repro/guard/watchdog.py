"""Forward-progress watchdogs for record and replay sessions.

A chunk machine can stop making progress in several distinct ways, and
distinguishing them is most of the diagnosis:

* **gcc-stagnation** -- the global commit count stops advancing while
  the event queue keeps churning (a wedged commit pipeline).
* **token-starvation** -- PicoLog's commit token never reaches a
  processor with a pending request (the token is in flight forever or
  the holder can never be granted), so requests starve while token
  wakeups keep the engine busy.
* **squash-livelock** -- two or more processors keep squashing each
  other's chunks (ping-pong collision cycles): commits flow, squash
  bandwidth is saturated, and no squashed processor ever retires its
  work.
* **lock-starvation / livelock** -- chunks commit and the machine looks
  healthy, but no thread's *architectural* state advances (the classic
  case: every thread spinning on a lock that will never open; spin
  chunks are read-only and commit happily forever).
* **replay-stall** -- a replayer is waiting on a log entry that can
  never be satisfied (cursor frozen with requests pending).

The watchdog measures progress in dispatched *events*, not wall-clock,
so detection is deterministic: the same run stalls at the same event
count every time.  On detection it raises
:class:`~repro.errors.StallError` carrying the classification and a
telemetry snapshot, instead of letting the session hang.

:class:`WatchdogTimer` is the thread-level counterpart used by the
runner: a deadline that works on worker threads and non-unix platforms
where SIGALRM is unavailable.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass

from repro.core.arbiter import PIReplayPolicy, RoundRobinPolicy
from repro.errors import StallError


@dataclass(frozen=True)
class WatchdogConfig:
    """Detection thresholds, all in dispatched engine events.

    ``no_commit_events``: events without a single global commit before
    the session is declared stalled.  ``no_progress_events``: events
    without any thread's architectural state changing (commits may
    still be flowing -- that is exactly a livelock).  A squash livelock
    is declared when ``squash_livelock_threshold`` ping-pong squashes
    land within the trailing ``squash_window_events`` events.
    """

    no_commit_events: int = 60_000
    no_progress_events: int = 240_000
    squash_window_events: int = 40_000
    squash_livelock_threshold: int = 12
    poll_stride: int = 512


def progress_key(proc) -> tuple:
    """Architectural-progress digest of a processor's *committed*
    thread state.

    Uses the oldest uncommitted chunk's start state (the committed
    boundary) so speculative wiggle does not count as progress, and
    excludes the retired counter, the accumulator and the handler
    fields: a spinning thread retires instructions forever and an
    interrupt storm executes handlers forever, yet neither advances the
    program.
    """
    if proc.outstanding:
        state = proc.outstanding[0].start_state
    else:
        state = proc.spec_state
    return (state.op_index, state.finished, state.compute_remaining,
            state.stage, state.barrier_target)


def _blocked_at_lock(proc) -> bool:
    """True when the processor's committed state sits at a LOCK op."""
    from repro.machine.program import OpKind

    if proc.outstanding:
        state = proc.outstanding[0].start_state
    else:
        state = proc.spec_state
    if state.finished or state.in_handler:
        return False
    if state.op_index >= len(proc.ops):
        return False
    return proc.ops[state.op_index].kind is OpKind.LOCK


class Watchdog:
    """Stall detector over one :class:`ChunkMachine`.

    The supervisor feeds it commits and squashes from the machine
    observer (cheap per-event notes) and calls :meth:`poll` every
    ``poll_stride`` dispatched events; :meth:`poll` classifies and
    raises when a threshold is crossed.
    """

    def __init__(self, machine, config: WatchdogConfig | None = None,
                 phase: str | None = None) -> None:
        self.machine = machine
        self.config = config or WatchdogConfig()
        self.phase = phase or ("replay" if machine.is_replay
                               else "record")
        events = machine.engine.events_processed
        self.commit_count = 0
        self._events_at_last_commit = events
        self._progress: dict[int, tuple] = {
            proc.proc_id: progress_key(proc)
            for proc in machine.processors}
        self._events_at_progress: dict[int, int] = {
            proc.proc_id: events for proc in machine.processors}
        # (events_processed, victim_proc, aggressor_proc | None)
        self._squashes: list[tuple[int, int, int | None]] = []
        self.squash_count = 0

    # -- observer-side notes ------------------------------------------

    def note_commit(self, count: int) -> None:
        """A global commit finalized (GCC = ``count``)."""
        self.commit_count = count
        self._events_at_last_commit = (
            self.machine.engine.events_processed)

    def note_squash(self, victim_proc: int, cause: str) -> None:
        """A squash happened; ``cause`` is the machine's cause string
        (``collision:pN``, ``collision:dma``, ``interrupt``)."""
        self.squash_count += 1
        aggressor: int | None = None
        if cause.startswith("collision:p"):
            try:
                aggressor = int(cause[len("collision:p"):])
            except ValueError:
                aggressor = None
        self._squashes.append(
            (self.machine.engine.events_processed, victim_proc,
             aggressor))

    # -- polling ------------------------------------------------------

    def _refresh_progress(self, events: int) -> None:
        for proc in self.machine.processors:
            key = progress_key(proc)
            if key != self._progress[proc.proc_id]:
                self._progress[proc.proc_id] = key
                self._events_at_progress[proc.proc_id] = events

    def _squash_window(self, events: int) -> list[tuple[int, int,
                                                        int | None]]:
        horizon = events - self.config.squash_window_events
        keep = 0
        while (keep < len(self._squashes)
               and self._squashes[keep][0] <= horizon):
            keep += 1
        if keep:
            del self._squashes[:keep]
        return self._squashes

    def _ping_pong_procs(self, window, events: int) -> set[int]:
        """Processors that are both squash victim and squash aggressor
        within the window *and* architecturally stagnant across it (the
        ping-pong livelock signature).  Contended-but-progressing
        workloads squash each other constantly too; the difference is
        that their committed state keeps advancing."""
        victims = {victim for _, victim, _ in window}
        aggressors = {agg for _, _, agg in window if agg is not None}
        horizon = self.config.squash_window_events
        return {
            proc for proc in victims & aggressors
            if events - self._events_at_progress.get(proc, events)
            >= horizon}

    def snapshot(self, events: int | None = None) -> dict:
        """Telemetry context attached to every :class:`StallError`."""
        machine = self.machine
        if events is None:
            events = machine.engine.events_processed
        arbiter = machine.arbiter
        details = {
            "phase": self.phase,
            "cycle": machine.engine.now,
            "events": events,
            "queue_depth": machine.engine.pending(),
            "global_commits": self.commit_count,
            "events_since_commit": events - self._events_at_last_commit,
            "committed_counts": {
                p.proc_id: p.committed_count
                for p in machine.processors},
            "pending_requests": [c.processor for c in arbiter.pending],
            "committing": [c.processor for c in arbiter.committing],
            "grant_count": arbiter.grant_count,
            "squashes_in_window": len(self._squashes),
            "total_squashes": self.squash_count,
            "stagnant_procs": sorted(
                proc_id for proc_id, since
                in self._events_at_progress.items()
                if (events - since >= self.config.no_progress_events
                    and machine.processors[proc_id]
                    .has_uncommitted_work())),
            "op_index": {
                p.proc_id: progress_key(p)[0]
                for p in machine.processors},
        }
        policy = arbiter.policy
        if isinstance(policy, RoundRobinPolicy):
            details["token_pointer"] = policy.pointer
            details["token_since"] = policy.pointer_since
        if isinstance(policy, PIReplayPolicy):
            details["pi_cursor"] = policy.cursor
            details["pi_entries"] = len(policy.entries)
        return details

    def _stall(self, classification: str, reason: str,
               events: int) -> StallError:
        details = self.snapshot(events)
        details["classification"] = classification
        return StallError(
            f"{self.phase} session stalled ({classification}): {reason}",
            classification=classification, details=details)

    def poll(self) -> None:
        """Evaluate every detector; raise :class:`StallError` on the
        first stall found.  Deterministic: depends only on dispatched
        events and machine state, never on wall-clock."""
        machine = self.machine
        config = self.config
        events = machine.engine.events_processed
        self._refresh_progress(events)

        window = self._squash_window(events)
        if len(window) >= config.squash_livelock_threshold:
            ping_pong = self._ping_pong_procs(window, events)
            if len(ping_pong) >= 2:
                raise self._stall(
                    "squash-livelock",
                    f"{len(window)} squashes in the last "
                    f"{config.squash_window_events} events with "
                    f"processors {sorted(ping_pong)} squashing each "
                    f"other and making no architectural progress",
                    events)

        since_commit = events - self._events_at_last_commit
        if since_commit >= config.no_commit_events:
            arbiter = machine.arbiter
            policy = arbiter.policy
            if machine.is_replay:
                raise self._stall(
                    "replay-stall",
                    f"no commit for {since_commit} events while the "
                    f"replayer waits on its ordering log", events)
            if (isinstance(policy, RoundRobinPolicy)
                    and arbiter.pending and not arbiter.committing):
                raise self._stall(
                    "token-starvation",
                    f"no commit for {since_commit} events with "
                    f"requests pending and the commit token parked at "
                    f"processor {policy.pointer}", events)
            raise self._stall(
                "gcc-stagnation",
                f"no commit for {since_commit} events", events)

        active = [p for p in machine.processors
                  if p.has_uncommitted_work()]
        if active and all(
                events - self._events_at_progress[p.proc_id]
                >= config.no_progress_events
                for p in active):
            since_progress = min(
                events - self._events_at_progress[p.proc_id]
                for p in active)
            if all(_blocked_at_lock(p) for p in active):
                raise self._stall(
                    "lock-starvation",
                    f"every active thread has spun at a LOCK without "
                    f"architectural progress for {since_progress} "
                    f"events", events)
            raise self._stall(
                "livelock",
                f"commits are flowing but no thread's architectural "
                f"state has advanced for {since_progress} events",
                events)


def async_raise(thread: threading.Thread, exception: type) -> None:
    """Raise ``exception`` in ``thread`` at its next bytecode.

    ``PyThreadState_SetAsyncExc`` interrupts compute-bound Python code
    on any platform; a thread blocked in a C call only sees the
    exception once it returns to the interpreter.  A thread that has
    not started or has already finished is left alone.
    """
    if thread.ident is None or not thread.is_alive():
        return
    ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(thread.ident), ctypes.py_object(exception))


class WatchdogTimer:
    """Deadline enforcement for worker *threads* (the runner satellite).

    SIGALRM only works on the main thread of a unix process.  This
    timer instead arms a daemon :class:`threading.Timer` that, on
    expiry, raises ``exception_type`` in the target thread through
    :func:`async_raise`.  A thread blocked in a C call, e.g.
    ``time.sleep``, only sees it when it returns to the interpreter;
    the pool-level deadline sweep is the backstop for those.
    """

    def __init__(self, seconds: float, exception_type: type,
                 thread: threading.Thread | None = None) -> None:
        self.seconds = seconds
        self.exception_type = exception_type
        self._thread = thread or threading.current_thread()
        self._timer: threading.Timer | None = None
        self.fired = False

    def _fire(self) -> None:
        self.fired = True
        async_raise(self._thread, self.exception_type)

    def start(self) -> "WatchdogTimer":
        """Arm the deadline."""
        self._timer = threading.Timer(self.seconds, self._fire)
        self._timer.daemon = True
        self._timer.start()
        return self

    def cancel(self) -> None:
        """Disarm (work finished in time)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def __enter__(self) -> "WatchdogTimer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.cancel()


__all__ = [
    "Watchdog",
    "WatchdogConfig",
    "WatchdogTimer",
    "async_raise",
    "progress_key",
]
