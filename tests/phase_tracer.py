"""Probe-derived phase witness — the repo's bpftrace (paper §4.2.1).

"We divided the function start-up into four components (or phases):
i) execution of the clone system call (CLONE), ii) execution of the
exec system call (EXEC), iii) the period between the end of the exec
call and the start of the main() procedure (runtime start-up - RTS)
and iv) from the end of the RTS phase to when the function is ready to
serve the first request (application initialization - APPINIT)."

The harness measures those phases with :mod:`repro.obs.profile`. This
tracer derives them a second, independent way — from the kernel probe
stream's clone/execve/runtime.main/runtime.ready boundaries — so tests
can check the profiler against what a syscall tracer would observe.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench.harness import PhaseBreakdown
from repro.osproc.kernel import Kernel
from repro.osproc.probes import SyscallRecord


class TraceError(Exception):
    """The observed event stream did not contain a full episode."""


class PhaseTracer:
    """Records one start-up episode's probe events and derives phases."""

    WATCHED = ("clone", "execve", "runtime.main", "runtime.ready",
               "runtime.first_response", "criu.restore")

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.events: List[SyscallRecord] = []
        self._armed = False
        for syscall in self.WATCHED:
            kernel.probes.on_enter(syscall, self._record)
            kernel.probes.on_exit(syscall, self._record)

    def _record(self, record: SyscallRecord) -> None:
        if self._armed:
            self.events.append(record)

    def start_episode(self) -> None:
        """Begin recording (attach right before the replica start)."""
        self.events = []
        self._armed = True

    def stop_episode(self) -> None:
        self._armed = False

    # -- analysis --------------------------------------------------------------

    def _first(self, syscall: str, phase: str) -> Optional[SyscallRecord]:
        for event in self.events:
            if event.syscall == syscall and event.phase == phase:
                return event
        return None

    def breakdown(self) -> PhaseBreakdown:
        """Compute CLONE/EXEC/RTS/APPINIT from the recorded episode."""
        clone_in = self._first("clone", "enter")
        clone_out = self._first("clone", "exit")
        exec_in = self._first("execve", "enter")
        exec_out = self._first("execve", "exit")
        ready = self._first("runtime.ready", "enter")
        if not (clone_in and clone_out and exec_in and exec_out):
            raise TraceError(
                "episode is missing clone/exec events; events: "
                + ", ".join(f"{e.syscall}:{e.phase}" for e in self.events)
            )
        if ready is None:
            raise TraceError("episode never reached runtime.ready")
        main = self._first("runtime.main", "enter")
        if main is not None:
            rts = main.timestamp - exec_out.timestamp
            appinit_start = main.timestamp
        else:
            # Restored processes skip main(): RTS is identically zero
            # ("prebaking brings the RTS down to 0ms", §4.2.1).
            rts = 0.0
            appinit_start = exec_out.timestamp
        return PhaseBreakdown(
            clone_ms=clone_out.timestamp - clone_in.timestamp,
            exec_ms=exec_out.timestamp - exec_in.timestamp,
            rts_ms=rts,
            appinit_ms=ready.timestamp - appinit_start,
        )
