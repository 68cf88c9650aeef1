"""Tests for the simulated kernel: syscalls, freezer, ptrace, procfs."""

import gc
import weakref

import pytest

from repro import make_world
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions.base import make_app
from repro.osproc.kernel import Kernel, KernelError, PermissionDenied
from repro.osproc.namespaces import NamespaceKind
from repro.osproc.process import Capability, ProcessState
from repro.sim.costmodel import DEFAULT_COST_MODEL


@pytest.fixture
def quiet():
    from repro.sim.clock import SimClock
    from repro.sim.rng import RandomStreams
    return Kernel(clock=SimClock(), costs=DEFAULT_COST_MODEL.with_noise_sigma(0.0),
                  streams=RandomStreams(seed=0))


class TestClone:
    def test_clone_creates_child(self, kernel):
        child = kernel.clone(kernel.init_process, comm="worker")
        assert child.ppid == kernel.init_process.pid
        assert child.pid in kernel.processes
        assert child.pid in kernel.init_process.children

    def test_clone_advances_clock(self, quiet):
        before = quiet.clock.now
        quiet.clone(quiet.init_process)
        assert quiet.clock.now - before == pytest.approx(DEFAULT_COST_MODEL.clone_ms)

    def test_clone_emits_probes(self, kernel):
        seen = []
        kernel.probes.on_enter("clone", lambda r: seen.append(("in", r.pid)))
        kernel.probes.on_exit("clone", lambda r: seen.append(("out", r.pid)))
        kernel.clone(kernel.init_process)
        assert seen == [("in", 1), ("out", 1)]

    def test_clone_with_new_namespaces(self, kernel):
        child = kernel.clone(kernel.init_process,
                             new_namespaces=(NamespaceKind.PID, NamespaceKind.NET))
        parent_ns = kernel.init_process.namespaces
        assert child.namespaces.get(NamespaceKind.PID) != parent_ns.get(NamespaceKind.PID)
        assert child.namespaces.get(NamespaceKind.MNT) == parent_ns.get(NamespaceKind.MNT)

    def test_clone_dead_parent_rejected(self, kernel):
        child = kernel.clone(kernel.init_process)
        kernel.kill(child.pid)
        with pytest.raises(KernelError):
            kernel.clone(child)

    def test_target_pid_requires_capability(self, kernel):
        unprivileged = kernel.clone(kernel.init_process, inherit_capabilities=False)
        with pytest.raises(PermissionDenied):
            kernel.clone(unprivileged, target_pid=9999)

    def test_target_pid_with_capability(self, kernel):
        child = kernel.clone(kernel.init_process, target_pid=5000)
        assert child.pid == 5000
        # Next auto pid must not collide.
        nxt = kernel.clone(kernel.init_process)
        assert nxt.pid > 5000

    def test_target_pid_in_use_rejected(self, kernel):
        kernel.clone(kernel.init_process, target_pid=777)
        with pytest.raises(KernelError, match="already in use"):
            kernel.clone(kernel.init_process, target_pid=777)


class TestExec:
    def test_execve_replaces_image(self, kernel):
        kernel.fs.create("/bin/app", size=100_000)
        proc = kernel.clone(kernel.init_process)
        proc.payload["junk"] = 1
        proc.address_space.grow_anon("old", 1.0)
        kernel.execve(proc, "/bin/app", argv=["/bin/app", "-x"])
        assert proc.comm == "app"
        assert proc.argv == ["/bin/app", "-x"]
        assert proc.payload == {}
        assert proc.address_space.find_by_label("old") is None
        assert proc.address_space.find_by_label("text") is not None
        assert proc.address_space.find_by_label("stack") is not None

    def test_execve_missing_binary_rejected(self, kernel):
        proc = kernel.clone(kernel.init_process)
        with pytest.raises(Exception, match="no such file"):
            kernel.execve(proc, "/bin/missing")

    def test_execve_warms_binary_cache(self, kernel):
        binary = kernel.fs.create("/bin/app", size=50_000)
        proc = kernel.clone(kernel.init_process)
        kernel.execve(proc, "/bin/app")
        assert kernel.page_cache.warmth(binary) == 1.0


class TestExitWaitKill:
    def test_exit_makes_zombie(self, kernel):
        child = kernel.clone(kernel.init_process)
        kernel.exit(child, code=3)
        assert child.state is ProcessState.ZOMBIE
        assert child.exit_code == 3

    def test_wait_reaps_and_returns_code(self, kernel):
        child = kernel.clone(kernel.init_process)
        kernel.exit(child, code=7)
        code = kernel.wait(kernel.init_process, child.pid)
        assert code == 7
        assert child.state is ProcessState.DEAD
        assert child.pid not in kernel.init_process.children

    def test_wait_on_running_child_rejected(self, kernel):
        child = kernel.clone(kernel.init_process)
        with pytest.raises(KernelError, match="has not exited"):
            kernel.wait(kernel.init_process, child.pid)

    def test_wait_on_non_child_rejected(self, kernel):
        a = kernel.clone(kernel.init_process)
        b = kernel.clone(a)
        kernel.exit(b)
        with pytest.raises(KernelError, match="not a child"):
            kernel.wait(kernel.init_process, b.pid)

    def test_kill_releases_memory(self, kernel):
        child = kernel.clone(kernel.init_process)
        child.address_space.grow_anon("heap", 4.0)
        kernel.kill(child.pid)
        assert child.state is ProcessState.DEAD
        assert child.address_space.rss_bytes == 0

    def test_reap_drops_payload(self, kernel):
        killed = kernel.clone(kernel.init_process)
        waited = kernel.clone(kernel.init_process)
        for proc in (killed, waited):
            proc.payload["runtime"] = object()
        kernel.kill(killed.pid)
        kernel.exit(waited)
        assert waited.payload  # a zombie keeps it until reaped
        kernel.wait(kernel.init_process, waited.pid)
        assert killed.payload == {} and waited.payload == {}

    def test_gc_reaped_replicas_free_their_runtimes(self):
        """Dead entries stay in the process table; they must not pin the
        runtime (and its pagemaps) of every replica ever reaped."""
        world = make_world(seed=9)
        platform = FaaSPlatform(world.kernel, PlatformConfig())
        platform.register_function(lambda: make_app("markdown"),
                                   idle_timeout_ms=100.0)
        runtimes = []
        for _ in range(5):
            platform.invoke("markdown")
            (replica,) = platform.deployer.replicas("markdown")
            runtimes.append(weakref.ref(replica.handle.runtime))
            del replica
            world.kernel.clock.advance(1_000.0)
            platform.gc_tick()
        assert platform.replica_count("markdown") == 0
        dead = [p for p in world.kernel.processes.values()
                if p.state is ProcessState.DEAD]
        assert len(dead) >= 5
        assert all(p.payload == {} for p in dead)
        gc.collect()
        assert all(ref() is None for ref in runtimes)

    def test_kill_is_idempotent(self, kernel):
        child = kernel.clone(kernel.init_process)
        kernel.kill(child.pid)
        kernel.kill(child.pid)
        assert child.state is ProcessState.DEAD

    def test_kill_unknown_pid_rejected(self, kernel):
        with pytest.raises(KernelError, match="ESRCH"):
            kernel.kill(424242)


class TestFreezer:
    def test_freeze_thaw_cycle(self, kernel):
        child = kernel.clone(kernel.init_process)
        kernel.freeze(child)
        assert child.state is ProcessState.FROZEN
        assert all(t.state.value == "frozen" for t in child.threads)
        kernel.thaw(child)
        assert child.state is ProcessState.RUNNING

    def test_double_freeze_rejected(self, kernel):
        child = kernel.clone(kernel.init_process)
        kernel.freeze(child)
        with pytest.raises(KernelError):
            kernel.freeze(child)

    def test_thaw_running_rejected(self, kernel):
        child = kernel.clone(kernel.init_process)
        with pytest.raises(KernelError):
            kernel.thaw(child)


class TestPtrace:
    def _privileged(self, kernel):
        tracer = kernel.clone(kernel.init_process)
        tracer.capabilities.add(Capability.CHECKPOINT_RESTORE)
        return tracer

    def test_seize_requires_capability(self, kernel):
        tracer = kernel.clone(kernel.init_process, inherit_capabilities=False)
        target = kernel.clone(kernel.init_process)
        with pytest.raises(PermissionDenied):
            kernel.ptrace_seize(tracer, target)

    def test_seize_inject_cure_detach(self, kernel):
        tracer = self._privileged(kernel)
        target = kernel.clone(kernel.init_process)
        kernel.ptrace_seize(tracer, target)
        assert kernel.tracer_of(target.pid) == tracer.pid
        vma = kernel.ptrace_inject_parasite(tracer, target)
        assert vma.label == "criu-parasite"
        assert target.address_space.find_by_label("criu-parasite") is vma
        kernel.ptrace_remove_parasite(tracer, target)
        assert target.address_space.find_by_label("criu-parasite") is None
        kernel.ptrace_detach(tracer, target)
        assert kernel.tracer_of(target.pid) is None

    def test_double_seize_rejected(self, kernel):
        tracer = self._privileged(kernel)
        other = self._privileged(kernel)
        target = kernel.clone(kernel.init_process)
        kernel.ptrace_seize(tracer, target)
        with pytest.raises(KernelError, match="already traced"):
            kernel.ptrace_seize(other, target)

    def test_inject_without_seize_rejected(self, kernel):
        tracer = self._privileged(kernel)
        target = kernel.clone(kernel.init_process)
        with pytest.raises(KernelError, match="does not trace"):
            kernel.ptrace_inject_parasite(tracer, target)

    def test_double_inject_rejected(self, kernel):
        tracer = self._privileged(kernel)
        target = kernel.clone(kernel.init_process)
        kernel.ptrace_seize(tracer, target)
        kernel.ptrace_inject_parasite(tracer, target)
        with pytest.raises(KernelError, match="already carries"):
            kernel.ptrace_inject_parasite(tracer, target)


class TestProcfs:
    def test_pagemap_lists_resident(self, kernel):
        child = kernel.clone(kernel.init_process)
        child.address_space.grow_anon("heap", 1.0)
        pages = list(kernel.pagemap(child.pid))
        assert len(pages) == 256  # 1 MiB of 4 KiB pages

    def test_proc_maps_format(self, kernel):
        child = kernel.clone(kernel.init_process)
        child.address_space.grow_anon("heap", 0.1)
        lines = kernel.proc_maps(child.pid)
        assert len(lines) == 1
        assert "anon" in lines[0]
        assert "rss=26p" in lines[0]

    def test_clear_refs(self, kernel):
        child = kernel.clone(kernel.init_process)
        vma = child.address_space.grow_anon("heap", 0.01)
        assert all(p.soft_dirty for p in vma.pages.values())
        kernel.clear_refs(child.pid)
        assert not any(p.soft_dirty for p in vma.pages.values())

    def test_get_unknown_pid(self, kernel):
        with pytest.raises(KernelError, match="ESRCH"):
            kernel.get(31337)

    def test_live_processes(self, kernel):
        a = kernel.clone(kernel.init_process)
        b = kernel.clone(kernel.init_process)
        kernel.kill(a.pid)
        live = kernel.live_processes()
        assert b in live and a not in live
