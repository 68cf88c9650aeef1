"""Syscall/lifecycle probe registry — the repo's bpftrace analog.

The paper instrumented CLONE and EXEC with bpftrace system-call probes
(§4.2.1). Here, the simulated kernel publishes enter/exit events for
every syscall it executes, and runtimes publish ``runtime.main`` /
``runtime.ready`` lifecycle events. The Figure 4 phases themselves are
attributed by :mod:`repro.obs.profile` at the same sites; the test
suite derives them a second way from this event stream, as bpftrace
would, and checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class SyscallRecord:
    """One probe event."""

    syscall: str
    pid: int
    phase: str          # "enter" | "exit"
    timestamp: float    # virtual ms
    detail: str = ""


ProbeCallback = Callable[[SyscallRecord], None]


class ProbeRegistry:
    """Subscription hub for syscall probes.

    Subscribe to a specific syscall name or to ``"*"`` for everything,
    mirroring bpftrace's ``tracepoint:syscalls:sys_enter_*`` wildcards.
    """

    def __init__(self) -> None:
        self._enter: Dict[str, List[ProbeCallback]] = {}
        self._exit: Dict[str, List[ProbeCallback]] = {}
        # Deterministic count of probe events published since boot —
        # the numerator the kernel throughput bench divides wall-clock
        # time into (simulated work is identical across backends, so
        # events/sec differences are purely dispatch speed).
        self.events_emitted = 0

    def on_enter(self, syscall: str, callback: ProbeCallback) -> None:
        self._enter.setdefault(syscall, []).append(callback)

    def on_exit(self, syscall: str, callback: ProbeCallback) -> None:
        self._exit.setdefault(syscall, []).append(callback)

    def clear(self) -> None:
        self._enter.clear()
        self._exit.clear()

    def emit(self, record: SyscallRecord) -> None:
        self.events_emitted += 1
        table = self._enter if record.phase == "enter" else self._exit
        for callback in table.get(record.syscall, ()):
            callback(record)
        for callback in table.get("*", ()):
            callback(record)

    # -- convenience used by the kernel ---------------------------------------

    def syscall_enter(self, syscall: str, pid: int, timestamp: float, detail: str = "") -> None:
        self.emit(SyscallRecord(syscall, pid, "enter", timestamp, detail))

    def syscall_exit(self, syscall: str, pid: int, timestamp: float, detail: str = "") -> None:
        self.emit(SyscallRecord(syscall, pid, "exit", timestamp, detail))
